"""Direct Newton-Raphson solution of the assembled system.

Used standalone for cross-validation and, truncated to a few iterations, to
produce the reference state the series solver expands around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BusKind
from .system import (System, companion_currents, jacobian, lu_factor,
                     lu_solve, residual)

#: nudge applied to a device current that an iteration drove to ~zero, so
#: magnitude-normalised control rows stay differentiable
CURRENT_NUDGE = 1e-3

#: step halvings attempted before the line search gives up
MAX_BACKTRACKS = 40


class ConvergenceError(RuntimeError):
    """The iteration diverged or stalled above tolerance."""


@dataclass
class NewtonResult:
    V: np.ndarray
    I: np.ndarray
    iterations: int
    mismatch: float
    converged: bool


def flat_start(sys: System):
    """Standard cold start: setpoint magnitude at zero angle where known."""
    V = np.ones(sys.n_bus, dtype=complex)
    for b, bus in enumerate(sys.net.buses):
        if bus.kind is BusKind.SLACK:
            V[b] = bus.v_setpoint * np.exp(1j * bus.angle_setpoint)
        elif bus.kind is BusKind.PV:
            V[b] = bus.v_setpoint
    I = np.empty(sys.n_currents, dtype=complex)
    pos = 0
    for dev in sys.devices:
        for g in dev.current_guesses:
            I[pos] = g
            pos += 1
    return V, I


def _step(sys: System, V, I, r, damped: bool):
    """One Newton update from (V, I), whose residual vector is ``r``; with
    ``damped`` the step is halved until the mismatch norm decreases.
    Returns (V, I, residual vector) of the accepted point, or None when the
    line search cannot make progress."""
    nrm = float(np.max(np.abs(r)))
    try:
        dx = lu_solve(lu_factor(jacobian(sys, V, I)), -r)
    except np.linalg.LinAlgError:
        return None
    n = sys.n_bus
    dV = dx[0:2 * n:2] + 1j * dx[1:2 * n:2]
    dI = dx[2 * n::2] + 1j * dx[2 * n + 1::2]
    lam = 1.0
    for _ in range(MAX_BACKTRACKS if damped else 1):
        Vn = V + lam * dV
        In = _nudge_zero_currents(sys, I + lam * dI)
        rn = residual(sys, Vn, In)
        ok = np.all(np.isfinite(rn))
        mn = float(np.max(np.abs(rn))) if ok else np.inf
        if ok and (not damped or mn < nrm):
            return Vn, In, rn
        lam *= 0.5
    return None


def nr_solve(sys: System, V0=None, I0=None, tol: float = 1e-8,
             max_iters: int = 40, damped: bool = True) -> NewtonResult:
    """Newton iteration from (V0, I0), default flat start.

    With ``damped`` (default) each step is backtracked until the mismatch
    norm decreases; divergence is declared when the line search stalls.
    Without damping, divergence is declared after three consecutive
    mismatch increases or a non-finite state.
    """
    if V0 is None or I0 is None:
        Vf, If = flat_start(sys)
        V = Vf if V0 is None else np.array(V0, dtype=complex)
        I = If if I0 is None else np.array(I0, dtype=complex)
    else:
        V = np.array(V0, dtype=complex)
        I = np.array(I0, dtype=complex)
    I = _nudge_zero_currents(sys, I.copy())

    best = np.inf
    rising = 0
    r = residual(sys, V, I)
    mis = float(np.max(np.abs(r)))
    for it in range(max_iters):
        if not np.isfinite(mis):
            raise ConvergenceError("iteration produced non-finite mismatch")
        if mis <= tol:
            return NewtonResult(V, I, it, mis, True)
        if mis > best:
            rising += 1
            if rising >= 3 and not damped:
                raise ConvergenceError(
                    f"diverging after {it} iterations (mismatch {mis:.3e})")
        else:
            rising = 0
            best = mis
        stepped = _step(sys, V, I, r, damped)
        if stepped is None:
            raise ConvergenceError(
                f"stalled at iteration {it} (mismatch {mis:.3e})")
        V, I, r = stepped
        mis = float(np.max(np.abs(r)))

    if mis <= tol:
        return NewtonResult(V, I, max_iters, mis, True)
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations (mismatch {mis:.3e})")


def warm_start(sys: System, iterations: int = 3, tol: float = 1e-8,
               V0=None, I0=None):
    """Run up to ``iterations`` (damped) Newton iterations to produce a
    series reference.

    Returns ``(V, I, steps)``, where ``steps`` counts the Newton steps taken:
    fewer than requested when the mismatch already meets ``tol`` or the line
    search stalls.  Convergence is not required (nor expected) here, but at
    least one iteration must be requested.
    """
    if iterations < 1:
        raise ValueError("warm start needs at least one iteration")
    if V0 is None or I0 is None:
        V, I = flat_start(sys)
    else:
        V = np.array(V0, dtype=complex)
        I = _nudge_zero_currents(sys, np.array(I0, dtype=complex))
    r = residual(sys, V, I)
    steps = 0
    while steps < iterations and float(np.max(np.abs(r))) > tol:
        stepped = _step(sys, V, I, r, damped=True)
        if stepped is None:
            break
        V, I, r = stepped
        steps += 1
    return V, I, steps


def _nudge_zero_currents(sys: System, I: np.ndarray) -> np.ndarray:
    """Keep currents used by magnitude-normalised rows away from zero."""
    for c in companion_currents(sys):
        if abs(I[c]) < CURRENT_NUDGE:
            I[c] = CURRENT_NUDGE if I[c] == 0 else \
                I[c] / abs(I[c]) * CURRENT_NUDGE
    return I
