"""Holomorphic-embedding solver.

The original residual equations R(x) = 0 are embedded as the homotopy
R(x(a)) = (1 - a) R(x0) in the embedding parameter ``a``, with x(0) = x0 an
arbitrary (nonzero) reference state.  Matching powers of ``a`` gives one
linear system per series order, all sharing the constant coefficient matrix
J = dR/dx evaluated at x0 — the same Jacobian the Newton solver uses.  Order
1 reproduces a Newton step; higher orders add the polynomial history of the
quadratic (and, for magnitude-normalised device rows, rational) terms.
The coefficients of the state ``z = [V; I]`` are one array, beside those
of the bus currents ``[Y C] z``; each order's history is a set of Cauchy
products over the order axis, formed from forward and reversed coefficient
slices for all buses at once, and for the device rows as one array
expression per shape of ``System.rows`` (``system.DeviceRows``), whatever
the number of devices.  The solution is read off at a = 1 from
the partial sums, or with ``pade`` from the degree-reduced Pade approximant
of ``series.pade_at_one``, by one ``series.evaluate_at_one`` call per order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .newton import _nudge_zero_currents
from .series import (evaluate_at_one, magnitude_coefficient,
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


def _cauchy(a, b):
    """Per row k, ``a[k] @ b[k]``, summed as the 1-D ``@`` sums it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _history(sys: System, n: int, Zs, Ws, Fs, Ms, Ts) -> np.ndarray:
    """Order-n polynomial history of the embedded equations (n >= 2).

    ``Zs``, ``Ws``, ``Fs`` and ``Ms`` are the coefficients of z, ``[Y C] z``
    and the reciprocal and magnitude series of ``sys.rows.companions``;
    ``Ts`` those of each companion row's injected voltage times F.
    Every term is a Cauchy product ``sum(a[d] * b[n - d], d=1..n-1)``, the
    dot of ``a[1:n]`` with ``b[n-1:0:-1]``, for all buses at once and for
    all device rows of one shape at once.
    """
    n_bus = sys.n_bus
    Vs = Zs[:n_bus]
    h = np.zeros(sys.size)
    fwd, rev = slice(1, n), slice(n - 1, 0, -1)
    acc = np.einsum("bd,bd->b", np.conj(Vs[:, fwd]), Ws[:, rev])
    h_re, h_im = h[0:2 * n_bus:2], h[1:2 * n_bus:2]     # views into h
    h_re[:] = acc.real
    h_im[:] = acc.imag
    pv = sys.pv
    h_im[pv] = 0.5 * np.einsum("bd,bd->b", Vs[pv, fwd],
                               np.conj(Vs[pv, rev])).real
    h_re[sys.slack] = 0.0
    h_im[sys.slack] = 0.0

    rows = sys.rows
    if rows.row.size:
        U, C = Zs[rows.a, :n], Zs[rows.c, :n]
        U[:rows.b.size] -= Zs[rows.b, :n]
        prod = _cauchy(U[:, fwd], np.conj(C[:, rev]))
        val = np.where(rows.im, prod.imag, prod.real)
        if rows.z.size:
            # companion rows: dv times the reciprocal current F (X_EQ), or
            # |I|/I via F and M (V_SE); products written out as in residual
            dv, I, F, M = U[rows.z], C[rows.z], Fs[:, :n], Ms[:, :n]
            d0, f0, m0 = dv[:, 0], F[:, 0], M[:, 0]
            hist_f = -_cauchy(F[:, fwd], I[:, rev]) / I[:, 0]
            dvf = _cauchy(dv[:, fwd], F[:, rev])
            x_eq = dvf.imag + (d0.real * hist_f.imag + d0.imag * hist_f.real)
            hist_m = (_cauchy(I[:, fwd], np.conj(I[:, rev])).real
                      - _cauchy(M[:, fwd], M[:, rev])) / (2.0 * m0)
            t_hist = m0 * dvf.imag + _cauchy(M[:, fwd], Ts[:, rev]).imag
            v_se = (t_hist + (d0.real * f0.imag + d0.imag * f0.real) * hist_m
                    + ((d0.real * m0) * hist_f.imag
                       + (d0.imag * m0) * hist_f.real))
            val[rows.z] = np.where(rows.pow[rows.z] == 2, x_eq, v_se)
        dev = np.bincount(rows.row, val, minlength=rows.setpoint.size)
        vb = Vs[rows.v_bus, :n]
        dev[rows.v_row] = 0.5 * _cauchy(vb[:, fwd], np.conj(vb[:, rev])).real
        h[2 * n_bus:] = dev
    return h


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

    comp = sys.rows.companions
    Fs = np.zeros((comp.size, n_max + 1), dtype=complex)
    Ms = np.zeros((comp.size, n_max + 1))
    Fs[:, 0] = 1.0 / D[comp]
    Ms[:, 0] = np.hypot(D.real, D.imag)[comp]
    Ts = np.zeros_like(Fs)          # orders >= 1 of dv F, dv = V_m - V_i
    dm, di = sys.rows.a[sys.rows.z], sys.rows.b[sys.rows.z]

    base_res = residual(sys, C, D)
    best = np.inf
    best_order = 0
    rising = 0
    mis = float(np.max(np.abs(base_res)))
    if mis <= tol:
        return FfheResult(C, D, 0, mis, True, Vs[:, :1], Is[:, :1], 0, mis)
    try:
        lu = lu_factor(jacobian(sys, C, D))
    except np.linalg.LinAlgError:
        return FfheResult(C, D, 0, mis, False, Vs[:, :1], Is[:, :1], 0, mis)

    for order in range(1, n_max + 1):
        if order == 1:
            rhs = -base_res
        else:
            rhs = -_history(sys, order, Zs, Ws, Fs, Ms, Ts)
        Zs[:, order] = lu_solve(lu, rhs).view(complex)
        Ws[:, order] = sys.yc @ Zs[:, order]
        for k, c in enumerate(comp):
            Fs[k, order] = reciprocal_coefficient(Fs[k], Is[c], order)
            Ms[k, order] = magnitude_coefficient(Ms[k], Is[c], order)
            # np.convolve's dot: the reversed F contiguous, as it copies it
            Ts[k, order] = ((Zs[dm[k], :order + 1] - Zs[di[k], :order + 1])
                            @ Fs[k, order::-1].copy())

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

    Every entry of C must be nonzero; currents appearing in magnitude-
    normalised control rows must be nonzero in D.

    A series that cannot reach a = 1 is evaluated at the largest a < 1 that
    still lowers the mismatch and a fresh embedding is expanded from that
    intermediate state, up to ``SERIES_RESTARTS`` times.  Term counts
    accumulate across stages.
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
        # walk back along the homotopy path to a point the series still
        # represents well, then re-embed from there; orders past the best
        # mismatch carry no information, so truncate before evaluating
        entry = float(np.max(np.abs(residual(sys, V, I))))
        n_tr = max(result.best_term, 1)
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
                      False, result.v_series, result.i_series, best[1],
                      best[0])
