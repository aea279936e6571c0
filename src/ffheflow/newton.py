"""Direct Newton-Raphson solution of the assembled system.

Used standalone for cross-validation and, truncated to a few iterations, to
produce the reference state the series solver expands around.  Newton, the
warm start and the series all return one record, :class:`SolveResult`.

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

#: why a solve stopped short of its tolerance (``SolveResult.cause``)
SINGULAR, STALLED, CAPPED, NON_FINITE = (
    "singular Jacobian", "no step length lowers the mismatch",
    "step cap reached", "non-finite mismatch")


class ConvergenceError(RuntimeError):
    """The iteration diverged or stalled above tolerance."""


@dataclass
class SolveResult:
    """One solve by Newton, a warm start or a series walk."""
    V: np.ndarray              # bus voltages reached
    I: np.ndarray              # device currents reached
    mismatch: float            # max-norm residual there
    iterations: int            # Newton steps, chord steps included
    terms: int                 # series terms, summed over references
    converged: bool            # the mismatch meets the tolerance
    best_mismatch: float       # lowest mismatch reached, and the series
    best_term: int             # term that reached it (0: the start or a step)
    runtime_s: float = 0.0     # wall time, set by the study that timed it
    cause: str = ""            # why it stopped short; empty if converged


def failure(res: SolveResult, series: bool = False) -> str:
    """The message for a solve short of its tolerance, Newton's or, with
    ``series``, a series walk's, which ends with the cause."""
    k, m = res.iterations, f"{res.mismatch:.3e}"
    if series:
        return (f"series did not converge ({res.terms} terms, mismatch {m}; "
                f"best {res.best_mismatch:.3e} at term {res.best_term}); "
                f"{res.cause}")
    return {SINGULAR: f"singular Jacobian at iteration {k} (mismatch {m})",
            STALLED: f"stalled at iteration {k} (mismatch {m})",
            CAPPED: f"no convergence in {k} iterations (mismatch {m})",
            NON_FINITE: "iteration produced non-finite mismatch"}[res.cause]


def flat_start(sys: System):
    """Standard cold start: setpoint magnitude at zero angle where known."""
    V = np.where(sys.slack | sys.pv, sys.v_set, 1)
    I = np.array([g for dev in sys.devices for g in dev.current_guess],
                 dtype=complex)
    return V, I


def _step(sys: System, V, I, r, lu, bound: float, tries: int):
    """Update (V, I), whose residual vector is ``r``, along the Newton
    direction of the factorisation ``lu`` by :func:`_damped_step`."""
    dV, dI = unpack_state(lu_solve(lu, -r), sys.n_bus)
    return _damped_step(sys, V, I, dV, dI, bound, tries)


def _damped_step(sys: System, V, I, dV, dI, bound: float, tries: int,
                 r_full=None):
    """Update (V, I) along (dV, dI): the step is halved, up to ``tries``
    lengths in all, until the mismatch norm falls below ``bound``.
    ``r_full``, when given, is the residual vector at (V + dV, I + dI),
    which the full step reuses unless a current there needs nudging.
    Returns (V, I, residual vector, mismatch) of the accepted point, or
    None.  A point whose residual is not finite is rejected, as NaN and
    inf fail the ``< bound`` test."""
    lam = 1.0
    for _ in range(tries):
        Vn, In = V + lam * dV, I + lam * dI
        Inn = _nudge_zero_currents(sys, In)
        known = lam == 1.0 and r_full is not None and Inn is In
        rn = r_full if known else residual(sys, Vn, Inn)
        mn = float(np.abs(rn).max())
        if mn < bound:
            return Vn, Inn, rn, mn
        lam *= 0.5
    return None


def _newton(sys: System, V0, I0, tol: float, max_steps: int) -> SolveResult:
    """Newton steps from (V0, I0), default flat start, until the mismatch
    meets ``tol`` or is not finite, ``max_steps`` steps are taken, the
    Jacobian is singular or the line search stalls.

    The last factorisation is held.  A step first tries it unchanged, at
    full length (a chord step), and keeps the result only if the mismatch
    falls below ``CONTRACTION`` times the current one.  Otherwise the
    Jacobian is factorised at the current point and the step is
    backtracked until the mismatch decreases.  Either kind counts as one
    step.  Giving only one of V0 and I0 is a ``ValueError``."""
    if (V0 is None) != (I0 is None):
        raise ValueError("a start needs both V0 and I0, or neither")
    if V0 is None:
        V0, I0 = flat_start(sys)
    V = np.array(V0, dtype=complex)
    I = _nudge_zero_currents(sys, np.array(I0, dtype=complex))
    r = residual(sys, V, I)
    mis = float(np.abs(r).max())
    steps, lu, cause = 0, None, CAPPED
    while steps < max_steps and tol < mis < np.inf:
        stepped = None if lu is None else \
            _step(sys, V, I, r, lu, CONTRACTION * mis, 1)
        if stepped is None:
            try:
                lu = lu_factor(jacobian(sys, V, I), sys.pattern)
            except np.linalg.LinAlgError:
                cause = SINGULAR
                break
            stepped = _step(sys, V, I, r, lu, mis, MAX_BACKTRACKS)
        if stepped is None:
            cause = STALLED
            break
        V, I, r, mis = stepped
        steps += 1
    if not tol < mis < np.inf:
        cause = "" if mis <= tol else NON_FINITE
    return SolveResult(V, I, mis, steps, 0, mis <= tol, mis, 0, cause=cause)


def nr_solve(sys: System, V0=None, I0=None,
             tol: float = 1e-8) -> SolveResult:
    """Damped Newton iteration from (V0, I0), both or neither given;
    default flat start.

    A step reuses the held factorisation when that contracts the mismatch
    enough, else factorises afresh and is backtracked until the mismatch
    norm decreases.  A solve short of ``tol`` after ``MAX_ITERS`` steps,
    chord steps included, or stopped sooner raises
    :class:`ConvergenceError`, which names the cause.
    """
    res = _newton(sys, V0, I0, tol, MAX_ITERS)
    if not res.converged:
        raise ConvergenceError(failure(res))
    return res


def warm_start(sys: System, iterations: int = 3, tol: float = 1e-8,
               V0=None, I0=None) -> SolveResult:
    """Run up to ``iterations`` steps of :func:`nr_solve`'s loop, chord
    steps included, to produce a series reference.

    Its ``iterations`` counts the Newton steps taken: fewer than requested
    when the mismatch already meets ``tol`` or the loop stops early.
    Convergence is not required (nor expected) here, but at least one
    iteration must be requested.
    """
    if iterations < 1:
        raise ValueError("warm start needs at least one iteration")
    return _newton(sys, V0, I0, tol, iterations)


def _nudge_zero_currents(sys: System, I: np.ndarray) -> np.ndarray:
    """Keep currents used by magnitude-normalised rows away from zero: one
    below ``CURRENT_NUDGE`` in magnitude is scaled up to it, keeping its
    phase (a zero current becomes ``CURRENT_NUDGE``).  Returns ``I``
    itself when no such current is small, else a nudged copy."""
    c = sys.rows.companions
    if not c.size:
        return I
    Ic = I[c]
    mag = np.hypot(Ic.real, Ic.imag)
    small = mag < CURRENT_NUDGE
    if not small.any():
        return I
    c, mag = c[small], mag[small]
    I = I.copy()
    I[c] = np.divide(I[c], mag, out=np.ones(c.size, complex),
                     where=mag != 0) * CURRENT_NUDGE
    return I
