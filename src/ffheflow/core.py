"""Holomorphic-embedding solver.

The original residual equations R(x) = 0 are embedded as the homotopy
R(x(a)) = (1 - a) R(x0) in the embedding parameter ``a``, with x(0) = x0 an
arbitrary (nonzero) reference state.  Matching powers of ``a`` gives one
linear system per series order, all sharing the constant coefficient matrix
J = dR/dx evaluated at x0 — the same Jacobian the Newton solver uses.  Order
1 reproduces a Newton step; higher orders add the polynomial history of the
quadratic (and, for magnitude-normalised device rows, rational) terms.
The coefficients of the state ``z = [V; I]`` are one array, beside those
of the bus currents ``[Y C] z``.  The equations are linear in the order-n
unknowns, so order n's history is every row's order-n coefficient while
they are still zero: full Cauchy products over the order axis
(``series.cauchy``) for all buses at once, and for the device rows one
array expression per shape of ``System.rows`` (``system.DeviceRows``),
whatever the number of devices.  One row-wise call per companion series
brings every magnitude-normalised row's reciprocal and magnitude current
series to order n on those zeros, before the history, and again on the
solution.  The solution is read off at a = 1 from the partial sums, or
with ``pade`` from the degree-reduced Pade approximant of
``series.pade_at_one``, by one ``series.evaluate_at_one`` call per order.

``_orders`` is the recurrence alone, and ``expand`` shows one reference's
coefficients by it.  ``ffhe_solve`` is the walk, shaped as Newton's loop,
and returns Newton's record, ``newton.SolveResult``.  It factorises each
reference once and, after order 1, adds orders while each lowers the
mismatch at a = 1.  At the first that does not, the reference moves by
Newton's damped step along its order-1 coefficient
(``newton._damped_step``) and is re-embedded there, so the series and
Newton share one line search, and the walk stops where Newton stops.
"""

from __future__ import annotations

import numpy as np

from .newton import (CAPPED, MAX_BACKTRACKS, MAX_ITERS, SINGULAR, STALLED,
                     SolveResult, _damped_step, _point, _result)
from .series import (cauchy, evaluate_at_one, magnitude_coefficient,
                     reciprocal_coefficient)
from .system import System, jacobian, lu_factor, lu_solve, residual


def _history(sys: System, n: int, Zs, Ws, Ms, Ts) -> np.ndarray:
    """Order-n polynomial history of the embedded equations (n >= 2): each
    row's order-n coefficient while ``Zs[:, n]`` and ``Ws[:, n]``, those of
    z and ``[Y C] z``, are still zero, every product one Cauchy product
    ``sum(a[d] * b[n - d], d=0..n)``.  ``Ms`` and ``Ts`` hold each
    companion row's M and T through order n on those zeros
    (:func:`_companions`).
    """
    n_bus = sys.n_bus
    Vs = Zs[:n_bus, :n + 1]
    h = np.empty(sys.size)
    h[:2 * n_bus] = cauchy(np.conj(Vs), Ws[:, n::-1]).view(float)
    pv = sys.pv_idx
    h[sys.pv_rows] = 0.5 * cauchy(Vs[pv], np.conj(Vs[pv, ::-1])).real
    h[sys.structure.slack_rows] = 0.0

    rows = sys.rows
    if rows.row.size:
        U, C = Zs[rows.a, :n + 1], Zs[rows.c, :n + 1]
        U[:rows.b.size] -= Zs[rows.b, :n + 1]
        prod = cauchy(U, np.conj(C[:, ::-1]))
        val = np.where(rows.im, prod.imag, prod.real)
        if rows.z.size:
            # companion rows: Im T (X_EQ) or Im M T (V_SE), T = (V_m - V_i) F
            val[rows.z] = Ts[:, n].imag
            vse = rows.vse
            if vse.size:
                val[rows.z[vse]] = cauchy(Ms[vse, :n + 1],
                                          Ts[vse, n::-1]).imag
        dev = np.bincount(rows.row, val, minlength=sys.setpoint.size)
        if rows.v_row.size:
            vb = Vs[rows.v_bus]
            dev[rows.v_row] = 0.5 * cauchy(vb, np.conj(vb[:, ::-1])).real
        h[2 * n_bus:] = dev
    return h


def _companions(sys: System, n: int, Zs, Fs, Ms, Ts) -> None:
    """Write order n of each companion row's reciprocal current F = 1/I,
    magnitude M = |I| and T = (V_m - V_i) F, from ``Zs`` through order n."""
    rows, z = sys.rows, sys.rows.z
    if z.size:
        Ic = Zs[rows.c[z], :n + 1]
        Fs[:, n] = reciprocal_coefficient(Fs, Ic, n)
        Ms[:, n] = magnitude_coefficient(Ms, Ic, n)
        Ts[:, n] = cauchy(Zs[rows.a[z], :n + 1] - Zs[rows.b[z], :n + 1],
                          Fs[:, n::-1])


def _orders(sys: System, C, D, r, lu, n_max: int):
    """Expand the embedding around (C, D), whose residual vector is ``r``
    and Jacobian factorisation ``lu``: after each order n = 1 .. ``n_max``,
    yield the coefficients of z = [V; I] through order n, an array of
    shape (``sys.n_bus + sys.n_currents``, n + 1).  Each yielded array is a
    view that later orders do not change.

    The coefficient arrays hold the orders reached so far: they start with
    orders 0 and 1 and, when full, are copied into arrays twice as wide,
    up to ``n_max`` + 1 orders, so an expansion that stops early allocates
    only what it used.  A copy leaves the arrays it replaces, and the views
    already yielded from them, as they were."""
    n = sys.n_bus
    cols = min(2, n_max + 1)
    Zs = np.zeros((n + sys.n_currents, cols), dtype=complex)
    Zs[:n, 0] = C
    Zs[n:, 0] = D
    Ws = np.zeros((n, cols), dtype=complex)
    Ws[:, 0] = sys.yc @ Zs[:, 0]

    rows = sys.rows
    comp = rows.companions
    Fs = np.zeros((comp.size, cols), dtype=complex)
    Ms = np.zeros((comp.size, cols))
    Fs[:, 0] = 1.0 / D[comp]
    Ms[:, 0] = np.hypot(D.real, D.imag)[comp]
    Ts = np.zeros_like(Fs)
    Ts[:, 0] = (Zs[rows.a[rows.z], 0] - Zs[rows.b[rows.z], 0]) * Fs[:, 0]

    for order in range(1, n_max + 1):
        if order == cols:
            cols = min(2 * cols, n_max + 1)
            Zs, Ws, Fs, Ms, Ts = (_widened(a, cols)
                                  for a in (Zs, Ws, Fs, Ms, Ts))
        if order == 1:
            rhs = -r
        else:       # the companions' order n on the zero unknowns
            _companions(sys, order, Zs, Fs, Ms, Ts)
            rhs = -_history(sys, order, Zs, Ws, Ms, Ts)
        Zs[:, order] = lu_solve(lu, rhs).view(complex)
        Ws[:, order] = sys.yc @ Zs[:, order]
        _companions(sys, order, Zs, Fs, Ms, Ts)     # and on the solution
        yield Zs[:, :order + 1]


def _widened(a: np.ndarray, cols: int) -> np.ndarray:
    """A copy of the coefficient array ``a`` with ``cols`` columns, the
    new ones zero."""
    out = np.zeros((a.shape[0], cols), dtype=a.dtype)
    out[:, :a.shape[1]] = a
    return out


def expand(sys: System, C, D, n_max: int) -> np.ndarray:
    """The coefficients of z = [V; I] around (C, D) through order
    ``n_max``, by the recurrence alone (no stopping rule): an
    array of shape (``sys.n_bus + sys.n_currents``, ``n_max`` + 1) whose
    first ``sys.n_bus`` rows are the voltages'."""
    C, D = np.asarray(C, dtype=complex), np.asarray(D, dtype=complex)
    lu = lu_factor(jacobian(sys, C, D), sys.pattern)
    *_, zs = _orders(sys, C, D, residual(sys, C, D), lu, n_max)
    return zs


def ffhe_solve(sys: System, C: np.ndarray, D: np.ndarray, tol: float = 1e-8,
               n_max: int = 60, pade: bool = False) -> SolveResult:
    """Expand the embedded system around reference state (C, D).

    Every entry of C must be nonzero.  No point with a V_SE or X_EQ current
    below ``devices.CURRENT_FLOOR`` is evaluated (``newton._point``): such
    a start fails at once, such a partial sum ends its expansion as a pole
    at a = 1 does, and the damped step rejects such a trial, as Newton's.

    Each reference is factorised once.  After order 1, orders are added, up
    to ``n_max``, while each lowers the max-norm mismatch at a = 1.  Short
    of ``tol``, the reference moves by Newton's damped step along its
    order-1 coefficient, the Newton direction of its factorisation, and is
    re-embedded there.  The walk stops as Newton does: after
    ``newton.MAX_ITERS`` references, or when the Jacobian is singular or no
    step length lowers the reference's mismatch (the result's ``cause``).
    A walk that fails returns its last reference and its mismatch.  Terms,
    the order that stopped an expansion included, accumulate across
    references; the best mismatch is the lowest of every reference and
    partial sum.  The damped steps count as no Newton ``iterations``.
    """
    if n_max < 1:
        raise ValueError("the series needs at least one order")
    n = sys.n_bus
    V, I = np.array(C, dtype=complex), np.array(D, dtype=complex)
    low, r, mis = _point(sys, V, I)
    terms, best, cause = 0, (mis, 0), CAPPED
    for _ in range(MAX_ITERS):
        if not tol < mis < np.inf:
            break
        try:
            lu = lu_factor(jacobian(sys, V, I), sys.pattern)
        except np.linalg.LinAlgError:
            cause = SINGULAR
            break
        m, r1 = np.inf, None
        for zs in _orders(sys, V, I, r, lu, n_max):
            terms += 1
            last = m
            z = evaluate_at_one(zs, pade)
            m = np.inf          # a pole at a = 1, or a current below the floor
            if np.isfinite(z).all():
                _, rz, m = _point(sys, z[:n], z[n:])
                if zs.shape[1] == 2:
                    r1 = rz
            best = min(best, (m, terms))
            if not tol < m < last:
                break
        if m <= tol:
            V, I, mis = z[:n], z[n:], m
            break
        # order 1 is the Newton direction of the reference's factorisation:
        # take Newton's damped step along it and re-embed from there.  Its
        # full step is the order-1 partial sum, whose residual r1 is known
        point, low = _damped_step(sys, V, I, zs[:n, 1], zs[n:, 1], mis,
                                  MAX_BACKTRACKS, r1)
        if point is None:
            cause = STALLED
            break
        V, I, r, mis = point
        best = min(best, (mis, terms))
    return _result(sys, V, I, mis, tol, low, cause, 0, terms, best)
