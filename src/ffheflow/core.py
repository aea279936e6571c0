"""Holomorphic-embedding solver.

The original residual equations R(x) = 0 are embedded as the homotopy
R(x(a)) = (1 - a) R(x0) in the embedding parameter ``a``, with x(0) = x0 an
arbitrary (nonzero) reference state.  Matching powers of ``a`` gives one
linear system per series order, all sharing the constant coefficient matrix
J = dR/dx evaluated at x0 — the same Jacobian the Newton solver uses.  Order
1 reproduces a Newton step; higher orders add the polynomial history of the
quadratic (and, for magnitude-normalised device rows, rational) terms.
Each order's history is a set of Cauchy products over the order axis,
formed for all buses at once from forward and reversed coefficient slices.
The solution is read off at a = 1 from the partial sums, or with ``pade``
from the degree-reduced Pade approximant of ``series.pade_at_one``, by one
``series.evaluate_at_one`` call over the ``(n_bus, k)`` voltage
coefficients and one over the ``(n_currents, k)`` current coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import Mode
from .series import (evaluate_at_one, magnitude_coefficient,
                     reciprocal_coefficient)
from .system import (System, companion_currents, jacobian, lu_factor,
                     lu_solve, residual)

#: consecutive growing-mismatch orders before the series is declared divergent
DIVERGENCE_ORDERS = 5


@dataclass
class FfheResult:
    V: np.ndarray              # bus voltages at a = 1
    I: np.ndarray              # device currents at a = 1
    terms: int                 # series orders computed (excluding order 0)
    mismatch: float
    converged: bool
    v_series: np.ndarray       # coefficients, shape (n_bus, terms + 1)
    i_series: np.ndarray
    best_order: int = 0        # truncation order with the smallest mismatch


def _history(sys: System, n: int, Vs, Is, Us, comp_f, comp_m) -> np.ndarray:
    """Order-n polynomial history of the embedded equations (n >= 2).

    Every term is a Cauchy product ``sum(a[d] * b[n - d], d=1..n-1)``,
    formed as the dot of the forward slice ``a[1:n]`` with the reversed
    slice ``b[n-1:0:-1]``; the bus rows do so for all buses at once.
    """
    n_bus = sys.n_bus
    h = np.zeros(sys.size)
    fwd, rev = slice(1, n), slice(n - 1, 0, -1)
    acc = np.einsum("bd,bd->b", np.conj(Vs[:, fwd]),
                    Us[:, rev] + sys.incidence @ Is[:, rev])
    h_re, h_im = h[0:2 * n_bus:2], h[1:2 * n_bus:2]     # views into h
    h_re[:] = acc.real
    h_im[:] = acc.imag
    pv = sys.pv
    h_im[pv] = 0.5 * np.einsum("bd,bd->b", Vs[pv, fwd],
                               np.conj(Vs[pv, rev])).real
    h_re[sys.slack] = 0.0
    h_im[sys.slack] = 0.0

    for dev in sys.devices:
        row = dev.row_start
        dvs = [Vs[be.m_idx, :n] - Vs[be.i_idx, :n] for be in dev.branches]
        h[row] = sum((dv[fwd] @ np.conj(Is[be.cur_idx, rev])).real
                     for dv, be in zip(dvs, dev.branches))
        for t in dev.targets:
            row += 1
            be = dev.branches[t.branch]
            c = be.cur_idx
            dv = dvs[t.branch]
            cI = np.conj(Is[c, rev])
            if t.mode is Mode.P_FLOW:
                h[row] = (Vs[be.i_idx, fwd] @ cI).real
            elif t.mode is Mode.Q_FLOW:
                h[row] = (Vs[be.i_idx, fwd] @ cI).imag
            elif t.mode is Mode.Q_INJ:
                h[row] = (dv[fwd] @ cI).imag
            elif t.mode is Mode.V_BUS:
                vb = Vs[t.bus_idx]
                h[row] = 0.5 * (vb[fwd] @ np.conj(vb[rev])).real
            else:
                F = comp_f[c]
                hist_f = -(F[fwd] @ Is[c, rev]) / Is[c, 0]
                if t.mode is Mode.X_EQ:
                    # injected voltage times reciprocal current
                    h[row] = (dv[fwd] @ F[rev] + dv[0] * hist_f).imag
                else:
                    # injected voltage times |I|/I via both companions
                    M = comp_m[c]
                    m0 = M[0]
                    hist_m = ((Is[c, fwd] @ cI).real
                              - M[fwd] @ M[rev]) / (2.0 * m0)
                    t_hist = m0 * (dv[fwd] @ F[rev]) \
                        + M[fwd] @ np.convolve(dv, F[:n])[rev]
                    h[row] = (t_hist + dv[0] * F[0] * hist_m
                              + dv[0] * m0 * hist_f).imag
    return h


def ffhe_solve(sys: System, C: np.ndarray, D: np.ndarray, tol: float = 1e-8,
               n_max: int = 60, pade: bool = False,
               restarts: int = 0) -> FfheResult:
    """Expand the embedded system around reference state (C, D).

    Every entry of C must be nonzero; currents appearing in magnitude-
    normalised control rows must be nonzero in D.

    With ``restarts`` > 0, a series that cannot reach a = 1 is evaluated at
    the largest a < 1 that still lowers the mismatch and a fresh embedding
    is expanded from that intermediate state, up to the given number of
    times.  Term counts accumulate across stages.
    """
    if restarts:
        return _staged_solve(sys, C, D, tol, n_max, pade, restarts)
    return _single_stage(sys, C, D, tol, n_max, pade)


def _single_stage(sys: System, C, D, tol, n_max, pade) -> FfheResult:
    C = np.asarray(C, dtype=complex)
    D = np.asarray(D, dtype=complex)
    n = sys.n_bus
    ncur = sys.n_currents

    Vs = np.zeros((n, n_max + 1), dtype=complex)
    Is = np.zeros((ncur, n_max + 1), dtype=complex)
    Us = np.zeros((n, n_max + 1), dtype=complex)
    Vs[:, 0] = C
    Is[:, 0] = D
    Us[:, 0] = sys.ybus @ C

    comp = companion_currents(sys)
    comp_f = {c: np.zeros(n_max + 1, dtype=complex) for c in comp}
    comp_m = {c: np.zeros(n_max + 1) for c in comp}
    for c in comp:
        comp_f[c][0] = 1.0 / D[c]
        comp_m[c][0] = abs(D[c])

    base_res = residual(sys, C, D)
    best = np.inf
    best_order = 0
    rising = 0
    mis = float(np.max(np.abs(base_res)))
    if mis <= tol:
        return FfheResult(C, D, 0, mis, True, Vs[:, :1], Is[:, :1])
    try:
        lu = lu_factor(jacobian(sys, C, D))
    except np.linalg.LinAlgError:
        return FfheResult(C, D, 0, mis, False, Vs[:, :1], Is[:, :1])

    for order in range(1, n_max + 1):
        if order == 1:
            rhs = -base_res
        else:
            rhs = -_history(sys, order, Vs, Is, Us, comp_f, comp_m)
        x = lu_solve(lu, rhs)
        Vs[:, order] = x[0:2 * n:2] + 1j * x[1:2 * n:2]
        Is[:, order] = x[2 * n::2] + 1j * x[2 * n + 1::2]
        Us[:, order] = sys.ybus @ Vs[:, order]
        for c in comp:
            comp_f[c][order] = reciprocal_coefficient(
                comp_f[c], Is[c], order)
            comp_m[c][order] = magnitude_coefficient(
                comp_m[c], Is[c], order)

        V = evaluate_at_one(Vs[:, :order + 1], pade)
        I = evaluate_at_one(Is[:, :order + 1], pade)
        if np.isfinite(V).all() and np.isfinite(I).all():
            mis = float(np.max(np.abs(residual(sys, V, I))))
        else:       # a Pade approximant with a pole at a = 1
            mis = np.inf
        if mis <= tol:
            return FfheResult(V, I, order, mis, True,
                              Vs[:, :order + 1], Is[:, :order + 1], order)
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

    return FfheResult(V, I, order, mis, False,
                      Vs[:, :order + 1], Is[:, :order + 1], best_order)


def _staged_solve(sys: System, C, D, tol, n_max, pade, restarts) -> FfheResult:
    from .newton import _nudge_zero_currents

    V, I = np.asarray(C, dtype=complex), np.asarray(D, dtype=complex)
    total_terms = 0
    result = None
    for _ in range(restarts + 1):
        I = _nudge_zero_currents(sys, I.copy())
        result = _single_stage(sys, V, I, tol, n_max, pade)
        total_terms += result.terms
        if result.converged:
            return FfheResult(result.V, result.I, total_terms, result.mismatch,
                              True, result.v_series, result.i_series)
        if not result.terms:      # singular Jacobian at the reference
            break
        # walk back along the homotopy path to a point the series still
        # represents well, then re-embed from there; orders past the best
        # mismatch carry no information, so truncate before evaluating
        entry = float(np.max(np.abs(residual(sys, V, I))))
        n_tr = max(result.best_order, 1)
        best_state = None
        best_mis = 0.9 * entry
        for trunc in {n_tr, max(1, n_tr // 2)}:
            vs = result.v_series[:, :trunc + 1]
            is_ = result.i_series[:, :trunc + 1]
            for a in (1.0, 0.9, 0.75, 0.5, 0.3, 0.15, 0.05):
                powers = a ** np.arange(trunc + 1)
                Va = vs @ powers
                Ia = is_ @ powers
                mis_a = float(np.max(np.abs(residual(sys, Va, Ia))))
                if np.isfinite(mis_a) and mis_a < best_mis:
                    best_state = (Va, Ia)
                    best_mis = mis_a
        if best_state is None:
            break
        V, I = best_state
    return FfheResult(result.V, result.I, total_terms, result.mismatch,
                      False, result.v_series, result.i_series)
