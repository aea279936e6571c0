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
A stage that does not reach a = 1 moves its reference by Newton's damped
step along its order-1 coefficient (``newton._damped_step``) and is
re-embedded there, so the series and Newton share one line search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .newton import MAX_BACKTRACKS, _damped_step, _nudge_zero_currents
from .series import (cauchy, evaluate_at_one, magnitude_coefficient,
                     reciprocal_coefficient)
from .system import System, jacobian, lu_factor, lu_solve, residual

#: consecutive growing-mismatch orders before the series is declared divergent
DIVERGENCE_ORDERS = 5

#: staged re-embeddings allowed to a series solve
SERIES_RESTARTS = 10


@dataclass
class FfheResult:
    V: np.ndarray              # bus voltages at a = 1
    I: np.ndarray              # device currents at a = 1
    terms: int                 # series orders computed (excluding order 0)
    mismatch: float
    converged: bool
    v_series: np.ndarray       # coefficients, shape (n_bus, terms + 1)
    i_series: np.ndarray
    best_term: int = 0         # term with the lowest mismatch, counted over
    best_mismatch: float = np.inf   # all stages, and that mismatch


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
    h = np.zeros(sys.size)
    acc = cauchy(np.conj(Vs), Ws[:, n::-1])
    h_re, h_im = h[0:2 * n_bus:2], h[1:2 * n_bus:2]     # views into h
    h_re[:] = acc.real
    h_im[:] = acc.imag
    pv = sys.pv
    h_im[pv] = 0.5 * cauchy(Vs[pv], np.conj(Vs[pv, ::-1])).real
    h_re[sys.slack] = h_im[sys.slack] = 0.0

    rows = sys.rows
    if rows.row.size:
        U, C = Zs[rows.a, :n + 1], Zs[rows.c, :n + 1]
        U[:rows.b.size] -= Zs[rows.b, :n + 1]
        prod = cauchy(U, np.conj(C[:, ::-1]))
        val = np.where(rows.im, prod.imag, prod.real)
        if rows.z.size:
            # companion rows: Im T (X_EQ) or Im M T (V_SE), T = (V_m - V_i) F
            val[rows.z] = Ts[:, n].imag
            vse = rows.pow[rows.z] == 1
            val[rows.z[vse]] = cauchy(Ms[vse, :n + 1], Ts[vse, n::-1]).imag
        dev = np.bincount(rows.row, val, minlength=rows.setpoint.size)
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


def _single_stage(sys: System, C, D, tol, n_max, pade) -> FfheResult:
    """One embedding around (C, D), up to ``n_max`` orders."""
    C = np.asarray(C, dtype=complex)
    D = np.asarray(D, dtype=complex)
    n = sys.n_bus

    Zs = np.zeros((n + sys.n_currents, n_max + 1), dtype=complex)
    Vs, Is = Zs[:n], Zs[n:]         # views: voltage and current rows
    Ws = np.zeros((n, n_max + 1), dtype=complex)
    Vs[:, 0] = C
    Is[:, 0] = D
    Ws[:, 0] = sys.yc @ Zs[:, 0]

    rows = sys.rows
    comp = rows.companions
    Fs = np.zeros((comp.size, n_max + 1), dtype=complex)
    Ms = np.zeros((comp.size, n_max + 1))
    Fs[:, 0] = 1.0 / D[comp]
    Ms[:, 0] = np.hypot(D.real, D.imag)[comp]
    Ts = np.zeros_like(Fs)
    Ts[:, 0] = (Zs[rows.a[rows.z], 0] - Zs[rows.b[rows.z], 0]) * Fs[:, 0]

    base_res = residual(sys, C, D)
    best = np.inf
    best_order = 0
    rising = 0
    mis = float(np.max(np.abs(base_res)))
    if mis <= tol:
        return FfheResult(C, D, 0, mis, True, Vs[:, :1], Is[:, :1], 0, mis)
    try:
        lu = lu_factor(jacobian(sys, C, D), sys.pattern)
    except np.linalg.LinAlgError:
        return FfheResult(C, D, 0, mis, False, Vs[:, :1], Is[:, :1], 0, mis)

    for order in range(1, n_max + 1):
        if order == 1:
            rhs = -base_res
        else:       # the companions' order n on the zero unknowns
            _companions(sys, order, Zs, Fs, Ms, Ts)
            rhs = -_history(sys, order, Zs, Ws, Ms, Ts)
        Zs[:, order] = lu_solve(lu, rhs).view(complex)
        Ws[:, order] = sys.yc @ Zs[:, order]
        _companions(sys, order, Zs, Fs, Ms, Ts)     # and on the solution

        z = evaluate_at_one(Zs[:, :order + 1], pade)
        V, I = z[:n], z[n:]
        if np.isfinite(z).all():
            mis = float(np.max(np.abs(residual(sys, V, I))))
        else:       # a Pade approximant with a pole at a = 1
            mis = np.inf
        if mis <= tol:
            return FfheResult(V, I, order, mis, True, Vs[:, :order + 1],
                              Is[:, :order + 1], order, mis)
        if not np.isfinite(mis):
            break
        if mis > best:
            rising += 1
            if rising >= DIVERGENCE_ORDERS and mis > 10.0 * best:
                break
        else:
            rising = 0
            best = mis
            best_order = order

    return FfheResult(V, I, order, mis, False, Vs[:, :order + 1],
                      Is[:, :order + 1], best_order, best)


def ffhe_solve(sys: System, C: np.ndarray, D: np.ndarray, tol: float = 1e-8,
               n_max: int = 60, pade: bool = False) -> FfheResult:
    """Expand the embedded system around reference state (C, D).

    Every entry of C must be nonzero.  The currents of magnitude-normalised
    control rows are nudged to at least ``newton.CURRENT_NUDGE`` in
    magnitude at each stage's start and at each point of the damped step.

    A stage that cannot reach a = 1 takes Newton's damped step along its
    order-1 coefficient, the Newton direction of its factorisation, and a
    fresh embedding is expanded from there, up to ``SERIES_RESTARTS``
    times; the solve gives up when no step length lowers the mismatch.
    Term counts accumulate across stages.
    """
    V, I = np.asarray(C, dtype=complex), np.asarray(D, dtype=complex)
    total_terms = 0
    best = (np.inf, 0)      # lowest mismatch of any stage, and its term
    for _ in range(SERIES_RESTARTS + 1):
        I = _nudge_zero_currents(sys, I.copy())
        result = _single_stage(sys, V, I, tol, n_max, pade)
        if result.best_mismatch < best[0]:
            best = (result.best_mismatch, total_terms + result.best_term)
        total_terms += result.terms
        if result.converged:
            return FfheResult(result.V, result.I, total_terms, result.mismatch,
                              True, result.v_series, result.i_series,
                              total_terms, result.mismatch)
        if not result.terms:      # singular Jacobian at the reference
            break
        # order 1 is the Newton direction of the stage's factorisation:
        # take Newton's damped step along it and re-embed from there
        entry = float(np.max(np.abs(residual(sys, V, I))))
        stepped = _damped_step(sys, V, I, result.v_series[:, 1],
                               result.i_series[:, 1], entry, MAX_BACKTRACKS)
        if stepped is None:
            break
        V, I, _ = stepped
    return FfheResult(result.V, result.I, total_terms, result.mismatch,
                      False, result.v_series, result.i_series, best[1],
                      best[0])
