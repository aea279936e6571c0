"""Per-bus reference residual, Jacobian and series history, and the scalar
Cauchy product and companion recurrences, kept as test oracles.

These are the scalar kernels the vectorised ``ffheflow.system.residual``,
``ffheflow.system.jacobian`` and ``ffheflow.core._history`` replaced: one
Python loop over buses (and, for the history, over orders), with a dense
Jacobian accumulated entry by entry.  The reciprocal and magnitude
recurrences are the one-series forms that ``ffheflow.series`` replaced by
row-wise ones, with the guards that those dropped.  They read only the spliced network,
whose dense Y-bus they build afresh, and a :class:`System`'s devices with
their branch entries (``zip(sys.devices, sys.structure.branches)``).  They
count each device's residual rows themselves and look up a V_BUS target's
bus by its external id, so they check the vectorised kernels independently
of the ``[Y C]`` operator, the device-row table and the index arrays and
slices those use.
"""

from __future__ import annotations

import numpy as np

from ffheflow.devices import Mode
from ffheflow.network import BusKind, build_admittance_matrix

#: leading coefficient below which the oracle's reciprocal and magnitude
#: recurrences refuse to divide
EPS_ZERO = 1e-9


class SeriesOrderError(ValueError):
    """A coefficient beyond the available order was requested."""


class SingularSeriesError(ZeroDivisionError):
    """Leading coefficient too small for a reciprocal/magnitude recurrence."""


def convolve(a, b, n: int) -> complex:
    """Cauchy-product coefficient ``sum(a[d] * b[n-d], d=0..n)``."""
    if len(a) <= n or len(b) <= n:
        raise SeriesOrderError(
            f"order {n} requested, have {len(a) - 1} and {len(b) - 1}")
    return sum(a[d] * b[n - d] for d in range(n + 1))


def reciprocal_coefficient(f, i_series, n: int) -> complex:
    """Order-n coefficient of the reciprocal of ``i_series``.

    ``f`` holds the reciprocal coefficients through order n-1; the returned
    value makes the Cauchy product of the two series vanish at order n.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if len(f) < n or len(i_series) <= n:
        raise SeriesOrderError(f"insufficient coefficients for order {n}")
    lead = i_series[0]
    if abs(lead) <= EPS_ZERO:
        raise SingularSeriesError("reciprocal of a series with ~zero leading "
                                  "coefficient (zero current guess?)")
    return -sum(f[d] * i_series[n - d] for d in range(n)) / lead


def magnitude_coefficient(m, i_series, n: int) -> float:
    """Order-n coefficient of the magnitude series of ``i_series``.

    Defined by the Cauchy-square identity |I|(a) * |I|(a) = I(a) * conj-I(a),
    where conj-I has coefficient-wise conjugated entries.  ``m`` holds the
    magnitude coefficients through order n-1 (m[0] = |i_series[0]|).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if len(m) < n or len(i_series) <= n:
        raise SeriesOrderError(f"insufficient coefficients for order {n}")
    lead = abs(i_series[0])
    if lead <= EPS_ZERO:
        raise SingularSeriesError("magnitude series of a series with ~zero "
                                  "leading coefficient")
    cross = sum(i_series[d] * np.conj(i_series[n - d]) for d in range(n + 1))
    self_sq = sum(m[d] * m[n - d] for d in range(1, n))
    return float((cross.real - self_sq) / (2.0 * lead))


def _bus_currents(sys):
    """Per bus: list of (current index, sign) of the device branches."""
    out = [[] for _ in range(sys.n_bus)]
    for branches in sys.structure.branches:
        for be in branches:
            out[be.i_idx].append((be.cur_idx, +1.0))
            out[be.m_idx].append((be.cur_idx, -1.0))
    return out


def _device_current_sum(bus_currents, I, b) -> complex:
    return sum(s * I[c] for c, s in bus_currents[b])


def _device_blocks(sys):
    """(device, its branch entries, its first residual row) per device: the
    rows follow the bus rows, two per branch of each earlier device."""
    row = 2 * sys.n_bus
    for dev, branches in zip(sys.devices, sys.structure.branches):
        yield dev, branches, row
        row += 2 * len(dev.branches)


def _target_bus(sys, dev, t) -> int:
    """Internal index of a V_BUS target's bus."""
    return sys.net.index_of[dev.target_bus(t)]


def _dense_ybus(sys) -> np.ndarray:
    return build_admittance_matrix(sys.structure.net).toarray()


def residual(sys, V, I) -> np.ndarray:
    """Real residual vector of the original (unembedded) equations."""
    net = sys.net
    bus_currents = _bus_currents(sys)
    r = np.zeros(sys.size)
    yv = _dense_ybus(sys) @ V
    for b, bus in enumerate(net.buses):
        if bus.kind is BusKind.SLACK:
            r[2 * b] = V[b].real - bus.v_setpoint * np.cos(bus.angle_setpoint)
            r[2 * b + 1] = V[b].imag - bus.v_setpoint * np.sin(bus.angle_setpoint)
            continue
        f = np.conj(V[b]) * yv[b] + \
            np.conj(V[b]) * _device_current_sum(bus_currents, I, b)
        if bus.kind is BusKind.PV:
            r[2 * b] = f.real - sys.s_inj[b].real
            r[2 * b + 1] = 0.5 * (abs(V[b]) ** 2 - bus.v_setpoint ** 2)
        else:
            f -= np.conj(sys.s_inj[b])
            r[2 * b] = f.real
            r[2 * b + 1] = f.imag

    for dev, branches, row in _device_blocks(sys):
        dv = {k: V[be.m_idx] - V[be.i_idx] for k, be in enumerate(branches)}
        r[row] = sum((dv[k] * np.conj(I[be.cur_idx])).real
                     for k, be in enumerate(branches))
        for t in dev.targets:
            row += 1
            be = branches[t.branch]
            cur = I[be.cur_idx]
            if t.mode is Mode.P_FLOW:
                r[row] = (V[be.i_idx] * np.conj(cur)).real - t.setpoint
            elif t.mode is Mode.Q_FLOW:
                r[row] = (V[be.i_idx] * np.conj(cur)).imag - t.setpoint
            elif t.mode is Mode.Q_INJ:
                r[row] = (dv[t.branch] * np.conj(cur)).imag - t.setpoint
            elif t.mode is Mode.V_BUS:
                r[row] = 0.5 * (abs(V[_target_bus(sys, dev, t)]) ** 2
                                - t.setpoint ** 2)
            elif t.mode is Mode.V_SE:
                q = (dv[t.branch] * np.conj(cur)).imag
                r[row] = q / abs(cur) - t.setpoint
            else:  # X_EQ
                q = (dv[t.branch] * np.conj(cur)).imag
                r[row] = q / abs(cur) ** 2 - t.setpoint
    return r


class _Assembler:
    """Accumulates d f = a * du + b * d(conj u) terms into a real matrix."""

    def __init__(self, size: int):
        self.J = np.zeros((size, size))

    def add_complex(self, row: int, col: int, a: complex, b: complex = 0j):
        """Both components of a complex residual at row pair (row, row+1)."""
        J = self.J
        J[row, col] += a.real + b.real
        J[row, col + 1] += -a.imag + b.imag
        J[row + 1, col] += a.imag + b.imag
        J[row + 1, col + 1] += a.real - b.real

    def add_re(self, row: int, col: int, a: complex, b: complex = 0j):
        self.J[row, col] += a.real + b.real
        self.J[row, col + 1] += -a.imag + b.imag

    def add_im(self, row: int, col: int, a: complex, b: complex = 0j):
        self.J[row, col] += a.imag + b.imag
        self.J[row, col + 1] += a.real - b.real


def jacobian(sys, V, I) -> np.ndarray:
    """Dense analytic Jacobian of :func:`residual` at (V, I)."""
    net = sys.net
    n = net.n_bus
    Y = _dense_ybus(sys)
    bus_currents = _bus_currents(sys)
    asm = _Assembler(sys.size)
    yv = Y @ V
    ccol = lambda c: 2 * n + 2 * c

    for b, bus in enumerate(net.buses):
        row = 2 * b
        if bus.kind is BusKind.SLACK:
            asm.J[row, row] = 1.0
            asm.J[row + 1, row + 1] = 1.0
            continue
        cb = np.conj(V[b])
        diag_b = yv[b] + _device_current_sum(bus_currents, I, b)
        cols = np.nonzero(Y[b])[0]
        if bus.kind is BusKind.PV:
            for k in cols:
                asm.add_re(row, 2 * k, cb * Y[b, k])
            asm.add_re(row, 2 * b, 0j, diag_b)
            for c, s in bus_currents[b]:
                asm.add_re(row, ccol(c), s * cb)
            asm.add_re(row + 1, 2 * b, 0.5 * cb, 0.5 * V[b])
        else:
            for k in cols:
                asm.add_complex(row, 2 * k, cb * Y[b, k])
            asm.add_complex(row, 2 * b, 0j, diag_b)
            for c, s in bus_currents[b]:
                asm.add_complex(row, ccol(c), s * cb)

    for dev, branches, row in _device_blocks(sys):
        for be in branches:
            cI = np.conj(I[be.cur_idx])
            dv = V[be.m_idx] - V[be.i_idx]
            asm.add_re(row, 2 * be.m_idx, cI)
            asm.add_re(row, 2 * be.i_idx, -cI)
            asm.add_re(row, ccol(be.cur_idx), 0j, dv)
        for t in dev.targets:
            row += 1
            be = branches[t.branch]
            cur = I[be.cur_idx]
            cI = np.conj(cur)
            dv = V[be.m_idx] - V[be.i_idx]
            if t.mode is Mode.P_FLOW:
                asm.add_re(row, 2 * be.i_idx, cI)
                asm.add_re(row, ccol(be.cur_idx), 0j, V[be.i_idx])
            elif t.mode is Mode.Q_FLOW:
                asm.add_im(row, 2 * be.i_idx, cI)
                asm.add_im(row, ccol(be.cur_idx), 0j, V[be.i_idx])
            elif t.mode is Mode.Q_INJ:
                asm.add_im(row, 2 * be.m_idx, cI)
                asm.add_im(row, 2 * be.i_idx, -cI)
                asm.add_im(row, ccol(be.cur_idx), 0j, dv)
            elif t.mode is Mode.V_BUS:
                tb = _target_bus(sys, dev, t)
                asm.add_re(row, 2 * tb, 0.5 * np.conj(V[tb]), 0.5 * V[tb])
            elif t.mode is Mode.V_SE:
                mag = abs(cur)
                q = (dv * cI).imag
                asm.add_im(row, 2 * be.m_idx, cI / mag)
                asm.add_im(row, 2 * be.i_idx, -cI / mag)
                asm.add_im(row, ccol(be.cur_idx), 0j, dv / mag)
                asm.add_re(row, ccol(be.cur_idx),
                           -q * cI / (2 * mag ** 3),
                           -q * cur / (2 * mag ** 3))
            else:  # X_EQ
                mag2 = abs(cur) ** 2
                q = (dv * cI).imag
                asm.add_im(row, 2 * be.m_idx, cI / mag2)
                asm.add_im(row, 2 * be.i_idx, -cI / mag2)
                asm.add_im(row, ccol(be.cur_idx), 0j, dv / mag2)
                asm.add_re(row, ccol(be.cur_idx),
                           -q * cI / mag2 ** 2,
                           -q * cur / mag2 ** 2)
    return asm.J


def history(sys, n: int, Vs, Is, comp_f, comp_m):
    """Order-n polynomial history of the embedded equations (n >= 2), and
    per row the sum of its summands' magnitudes.

    That sum, times a few units of rounding per summand, bounds the
    rounding error of any evaluation of the row, however it orders its
    sums; a row's value may be far smaller after cancellation.
    """
    net = sys.net
    Y = _dense_ybus(sys)
    Us, AUs = Y @ Vs, np.abs(Y) @ np.abs(Vs)
    bus_currents = _bus_currents(sys)
    h = np.zeros(sys.size)
    mag = np.zeros(sys.size)

    def cauchy(a, b, A=None, B=None):
        """sum(a[d] * b[n-d], d=1..n-1) and the sum of its summands'
        magnitudes, with A and B bounding |a| and |b| (default: those)."""
        A = np.abs(a) if A is None else A
        B = np.abs(b) if B is None else B
        return (sum(a[d] * b[n - d] for d in range(1, n)),
                sum(A[d] * B[n - d] for d in range(1, n)))

    for b, bus in enumerate(net.buses):
        if bus.kind is BusKind.SLACK:
            continue
        W = Us[b] + np.array([_device_current_sum(bus_currents, Is[:, k], b)
                              for k in range(Is.shape[1])])
        AW = AUs[b] + sum(np.abs(Is[c]) for c, _ in bus_currents[b])
        acc, m = cauchy(np.conj(Vs[b]), W, B=AW)
        h[2 * b] = acc.real
        mag[2 * b] = mag[2 * b + 1] = m
        if bus.kind is BusKind.PV:
            acc, m = cauchy(Vs[b], np.conj(Vs[b]))
            h[2 * b + 1] = 0.5 * acc.real
            mag[2 * b + 1] = 0.5 * m
        else:
            h[2 * b + 1] = acc.imag

    for dev, branches, row in _device_blocks(sys):
        for be in branches:
            dv = Vs[be.m_idx] - Vs[be.i_idx]
            adv = np.abs(Vs[be.m_idx]) + np.abs(Vs[be.i_idx])
            acc, m = cauchy(dv, np.conj(Is[be.cur_idx]), adv)
            h[row] += acc.real
            mag[row] += m
        for t in dev.targets:
            row += 1
            be = branches[t.branch]
            c = be.cur_idx
            cI = np.conj(Is[c])
            dv = Vs[be.m_idx] - Vs[be.i_idx]
            adv = np.abs(Vs[be.m_idx]) + np.abs(Vs[be.i_idx])
            if t.mode is Mode.P_FLOW:
                acc, mag[row] = cauchy(Vs[be.i_idx], cI)
                h[row] = acc.real
            elif t.mode is Mode.Q_FLOW:
                acc, mag[row] = cauchy(Vs[be.i_idx], cI)
                h[row] = acc.imag
            elif t.mode is Mode.Q_INJ:
                acc, mag[row] = cauchy(dv, cI, adv)
                h[row] = acc.imag
            elif t.mode is Mode.V_BUS:
                vb = Vs[_target_bus(sys, dev, t)]
                acc, m = cauchy(vb, np.conj(vb))
                h[row], mag[row] = 0.5 * acc.real, 0.5 * m
            else:
                F = comp_f[c]
                D = Is[c, 0]
                acc, m = cauchy(F, Is[c])
                hist_f, hist_f_mag = -acc / D, m / abs(D)
                if t.mode is Mode.X_EQ:
                    # injected voltage times reciprocal current
                    acc, m = cauchy(dv, F, adv)
                    acc += dv[0] * hist_f
                    m += adv[0] * hist_f_mag
                else:
                    # injected voltage times |I|/I via both companions
                    M = comp_m[c]
                    m0 = M[0]
                    ii, ii_mag = cauchy(Is[c], cI)
                    mm, mm_mag = cauchy(M, M)
                    hist_m = (ii.real - mm) / (2.0 * m0)
                    hist_m_mag = (ii_mag + mm_mag) / (2.0 * abs(m0))
                    acc, m = cauchy(dv, F, adv)
                    acc, m = m0 * acc, abs(m0) * m
                    for b_ in range(1, n):
                        ls = range(n - b_ + 1)
                        acc += M[b_] * sum(dv[l] * F[n - b_ - l] for l in ls)
                        m += abs(M[b_]) * sum(adv[l] * abs(F[n - b_ - l])
                                              for l in ls)
                    acc += dv[0] * F[0] * hist_m + dv[0] * m0 * hist_f
                    m += adv[0] * (abs(F[0]) * hist_m_mag
                                   + abs(m0) * hist_f_mag)
                h[row], mag[row] = acc.imag, m
    return h, mag
