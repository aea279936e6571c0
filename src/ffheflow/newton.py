"""Direct Newton-Raphson solution of the assembled system.

Used standalone for cross-validation and, truncated to a few iterations, to
produce the reference state the series solver expands around.

The loop holds its last SuperLU factorisation and reuses it for a full
chord step while that step contracts the mismatch by ``CONTRACTION``; it
factorises the Jacobian at the current point only when the held factor
fails that ratio test (the chord, or Shamanskii, method).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import (System, jacobian, lu_factor, lu_solve, residual,
                     unpack_state)

#: nudge applied to a device current that an iteration drove to ~zero, so
#: magnitude-normalised control rows stay differentiable
CURRENT_NUDGE = 1e-3

#: step halvings attempted before the line search gives up
MAX_BACKTRACKS = 40

#: a chord step, with a factorisation held from an earlier point, is kept
#: only if it brings the mismatch below this fraction of the current one
CONTRACTION = 0.3

#: Newton steps a full solve may take before it is declared divergent
MAX_ITERS = 40


class ConvergenceError(RuntimeError):
    """The iteration diverged or stalled above tolerance."""


@dataclass
class NewtonResult:
    V: np.ndarray
    I: np.ndarray
    iterations: int
    mismatch: float


def flat_start(sys: System):
    """Standard cold start: setpoint magnitude at zero angle where known."""
    V = np.where(sys.slack | sys.pv, sys.v_set, 1)
    I = np.array([g for dev in sys.devices for g in dev.current_guess],
                 dtype=complex)
    return V, I


def _step(sys: System, V, I, r, lu, bound: float, tries: int):
    """Update (V, I), whose residual vector is ``r``, along the Newton
    direction of the factorisation ``lu``: the step is halved, up to
    ``tries`` lengths in all, until the mismatch norm falls below ``bound``.
    Returns (V, I, residual vector) of the accepted point, or None."""
    dV, dI = unpack_state(lu_solve(lu, -r), sys.n_bus)
    lam = 1.0
    for _ in range(tries):
        Vn = V + lam * dV
        In = _nudge_zero_currents(sys, I + lam * dI)
        rn = residual(sys, Vn, In)
        mn = float(np.max(np.abs(rn))) if np.all(np.isfinite(rn)) else np.inf
        if mn < bound:
            return Vn, In, rn
        lam *= 0.5
    return None


def _newton(sys: System, V0, I0, tol: float, max_steps: int):
    """Newton steps from (V0, I0), default flat start, until the mismatch
    meets ``tol`` or is not finite, ``max_steps`` steps are taken, or the
    line search stalls.  Returns (V, I, mismatch, steps).

    The last factorisation is held.  A step first tries it unchanged, at
    full length (a chord step), and keeps the result only if the mismatch
    falls below ``CONTRACTION`` times the current one.  Otherwise the
    Jacobian is factorised at the current point and the step is
    backtracked until the mismatch decreases.  Either kind counts as one
    step."""
    if V0 is None or I0 is None:
        V0, I0 = flat_start(sys)
    V = np.array(V0, dtype=complex)
    I = _nudge_zero_currents(sys, np.array(I0, dtype=complex))
    r = residual(sys, V, I)
    mis = float(np.max(np.abs(r)))
    steps, lu = 0, None
    while steps < max_steps and tol < mis < np.inf:
        stepped = None if lu is None else \
            _step(sys, V, I, r, lu, CONTRACTION * mis, 1)
        if stepped is None:
            try:
                lu = lu_factor(jacobian(sys, V, I))
            except np.linalg.LinAlgError:
                break
            stepped = _step(sys, V, I, r, lu, mis, MAX_BACKTRACKS)
        if stepped is None:
            break
        V, I, r = stepped
        mis = float(np.max(np.abs(r)))
        steps += 1
    return V, I, mis, steps


def nr_solve(sys: System, V0=None, I0=None,
             tol: float = 1e-8) -> NewtonResult:
    """Damped Newton iteration from (V0, I0), default flat start.

    A step reuses the held factorisation when that contracts the mismatch
    enough, else factorises afresh and is backtracked until the mismatch
    norm decreases; divergence is declared when the line search stalls, or
    after ``MAX_ITERS`` steps, chord steps included.
    """
    V, I, mis, steps = _newton(sys, V0, I0, tol, MAX_ITERS)
    if mis <= tol:
        return NewtonResult(V, I, steps, mis)
    if not np.isfinite(mis):
        raise ConvergenceError("iteration produced non-finite mismatch")
    if steps < MAX_ITERS:
        raise ConvergenceError(
            f"stalled at iteration {steps} (mismatch {mis:.3e})")
    raise ConvergenceError(
        f"no convergence in {MAX_ITERS} iterations (mismatch {mis:.3e})")


def warm_start(sys: System, iterations: int = 3, tol: float = 1e-8,
               V0=None, I0=None):
    """Run up to ``iterations`` steps of :func:`nr_solve`'s loop, chord
    steps included, to produce a series reference.

    Returns ``(V, I, steps)``, where ``steps`` counts the Newton steps taken:
    fewer than requested when the mismatch already meets ``tol`` or the line
    search stalls.  Convergence is not required (nor expected) here, but at
    least one iteration must be requested.
    """
    if iterations < 1:
        raise ValueError("warm start needs at least one iteration")
    V, I, _, steps = _newton(sys, V0, I0, tol, iterations)
    return V, I, steps


def _nudge_zero_currents(sys: System, I: np.ndarray) -> np.ndarray:
    """Keep currents used by magnitude-normalised rows away from zero: one
    below ``CURRENT_NUDGE`` in magnitude is scaled up to it, keeping its
    phase (a zero current becomes ``CURRENT_NUDGE``)."""
    c = sys.rows.companions
    mag = np.hypot(I[c].real, I[c].imag)
    small = mag < CURRENT_NUDGE
    c, mag = c[small], mag[small]
    I[c] = np.divide(I[c], mag, out=np.ones(c.size, complex),
                     where=mag != 0) * CURRENT_NUDGE
    return I
