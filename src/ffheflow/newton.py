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

from .devices import CURRENT_FLOOR
from .system import (System, jacobian, lu_factor, lu_solve, residual,
                     unpack_state)

#: step halvings attempted before the line search gives up
MAX_BACKTRACKS = 40

#: a chord step, with a factorisation held from an earlier point, is kept
#: only if it brings the mismatch below this fraction of the current one
CONTRACTION = 0.3

#: Newton steps a full solve may take before it is declared divergent
MAX_ITERS = 40

#: why a solve stopped short of its tolerance (``SolveResult.cause``)
SINGULAR, STALLED, CAPPED, NON_FINITE, VANISHED = (
    "singular Jacobian", "no step length lowers the mismatch",
    "step cap reached", "non-finite mismatch", "a device current vanishes")


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
    best_term: int             # series terms summed when it was reached
    runtime_s: float = 0.0     # wall time, set by the study that timed it
    cause: str = ""            # why it stopped short; empty if converged
    vanished: tuple = ()       # (device id, branch) of currents under floor


def failure(res: SolveResult, series: bool = False) -> str:
    """The message for a solve short of its tolerance, Newton's or, with
    ``series``, a series walk's, which ends with the cause.  Either names
    the device branches whose current vanished."""
    k, m = res.iterations, f"{res.mismatch:.3e}"
    at = f"at iteration {k} (mismatch {m})"
    where = ", ".join(f"device {d!r} branch {b}" for d, b in res.vanished)
    where = where and f": {where}"
    if series:
        return (f"series did not converge ({res.terms} terms, mismatch {m}; "
                f"best {res.best_mismatch:.3e} at term {res.best_term}); "
                f"{res.cause}{where}")
    return {SINGULAR: f"{SINGULAR} {at}", STALLED: f"stalled {at}",
            CAPPED: f"no convergence in {k} iterations (mismatch {m})",
            NON_FINITE: "iteration produced non-finite mismatch",
            VANISHED: f"{VANISHED} {at}"}[res.cause] + where


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
    ``r_full``, when given, is the residual vector at (V + dV, I + dI).
    A trial point with a current below the floor (:func:`_point`) or a
    non-finite residual is rejected.  Returns (point, low): the accepted
    (V, I, residual vector, mismatch) or None, and the last trial's low."""
    lam = 1.0
    for _ in range(tries):
        Vn, In = V + lam * dV, I + lam * dI
        low, rn, mn = _point(sys, Vn, In, r_full if lam == 1.0 else None)
        if mn < bound:
            return (Vn, In, rn, mn), low
        lam *= 0.5
    return None, low


def _point(sys: System, V, I, r=None):
    """(low, residual vector, mismatch) at (V, I): ``low`` numbers the
    currents that a V_SE or X_EQ row divides by and that lie below
    ``devices.CURRENT_FLOOR`` in magnitude.  Such a point is outside the
    equations' domain and is not evaluated (None, inf); at any other, the
    residual is ``r``, or evaluated if None."""
    c = sys.rows.companions
    low = c[np.abs(I[c]) < CURRENT_FLOOR] if c.size else c
    if low.size:
        return low, None, np.inf
    r = residual(sys, V, I) if r is None else r
    return low, r, float(np.abs(r).max())


def _result(sys: System, V, I, mis: float, tol: float, low, cause: str,
            steps: int, terms: int, best: tuple) -> SolveResult:
    """The record of a solve stopped at (V, I), with ``cause`` unless
    ``mis`` meets ``tol`` or is not finite, or the floor rejected ``low``."""
    if low.size:
        cause = VANISHED
    elif not tol < mis < np.inf:
        cause = "" if mis <= tol else NON_FINITE
    vanished = tuple((dev.device_id, k) for dev, branches in
                     zip(sys.devices, sys.structure.branches)
                     for k, be in enumerate(branches) if be.cur_idx in low)
    return SolveResult(V, I, mis, steps, terms, mis <= tol, *best,
                       cause=cause, vanished=vanished)


def _newton(sys: System, V0, I0, tol: float, max_steps: int) -> SolveResult:
    """Newton steps from (V0, I0), default flat start, until the mismatch
    meets ``tol`` or is not finite (a start below the floor: inf),
    ``max_steps`` steps are taken, the Jacobian is singular or the line
    search stalls.

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
    V, I = np.array(V0, dtype=complex), np.array(I0, dtype=complex)
    low, r, mis = _point(sys, V, I)
    steps, lu, cause = 0, None, CAPPED
    while steps < max_steps and tol < mis < np.inf:
        point = None if lu is None else \
            _step(sys, V, I, r, lu, CONTRACTION * mis, 1)[0]
        if point is None:
            try:
                lu = lu_factor(jacobian(sys, V, I), sys.pattern)
            except np.linalg.LinAlgError:
                cause = SINGULAR
                break
            point, low = _step(sys, V, I, r, lu, mis, MAX_BACKTRACKS)
        if point is None:
            cause = STALLED
            break
        V, I, r, mis = point
        steps += 1
    return _result(sys, V, I, mis, tol, low, cause, steps, 0, (mis, 0))


def nr_solve(sys: System, V0=None, I0=None,
             tol: float = 1e-8) -> SolveResult:
    """Damped Newton iteration (:func:`_newton`) from (V0, I0), both or
    neither given; default flat start.  A solve short of ``tol`` after
    ``MAX_ITERS`` steps, chord steps included, or stopped sooner raises
    :class:`ConvergenceError`, which names the cause."""
    res = _newton(sys, V0, I0, tol, MAX_ITERS)
    if not res.converged:
        raise ConvergenceError(failure(res))
    return res


def warm_start(sys: System, iterations: int = 3, tol: float = 1e-8,
               V0=None, I0=None) -> SolveResult:
    """Up to ``iterations`` steps of :func:`_newton`, chord steps included,
    to produce a series reference; at least one must be requested, and
    convergence is not required.  Its ``iterations`` counts the steps
    taken: fewer when the mismatch meets ``tol`` or the loop stops early.
    """
    if iterations < 1:
        raise ValueError("warm start needs at least one iteration")
    return _newton(sys, V0, I0, tol, iterations)
