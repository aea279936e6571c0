"""Per-bus reference residual, Jacobian and series history, kept as a test
oracle.

These are the scalar kernels the vectorised ``ffheflow.system.residual``,
``ffheflow.system.jacobian`` and ``ffheflow.core._history`` replaced: one
Python loop over buses (and, for the history, over orders), with a dense
Jacobian accumulated entry by entry.  They read only the spliced network,
the Y-bus, the device-current incidence and the device entries of a
:class:`System`, so they check the vectorised kernels independently of the
index arrays and slices those use.
"""

from __future__ import annotations

import numpy as np

from ffheflow.devices import Mode
from ffheflow.network import BusKind


def _bus_currents(sys):
    """Per bus: list of (current index, sign) of the device branches."""
    out = [[] for _ in range(sys.n_bus)]
    for dev in sys.devices:
        for be in dev.branches:
            out[be.i_idx].append((be.cur_idx, +1.0))
            out[be.m_idx].append((be.cur_idx, -1.0))
    return out


def _device_current_sum(bus_currents, I, b) -> complex:
    return sum(s * I[c] for c, s in bus_currents[b])


def residual(sys, V, I) -> np.ndarray:
    """Real residual vector of the original (unembedded) equations."""
    net = sys.net
    bus_currents = _bus_currents(sys)
    r = np.zeros(sys.size)
    yv = sys.ybus.toarray() @ V
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

    for dev in sys.devices:
        row = dev.row_start
        dv = {k: V[be.m_idx] - V[be.i_idx] for k, be in enumerate(dev.branches)}
        r[row] = sum((dv[k] * np.conj(I[be.cur_idx])).real
                     for k, be in enumerate(dev.branches))
        for t in dev.targets:
            row += 1
            be = dev.branches[t.branch]
            cur = I[be.cur_idx]
            if t.mode is Mode.P_FLOW:
                r[row] = (V[be.i_idx] * np.conj(cur)).real - t.setpoint
            elif t.mode is Mode.Q_FLOW:
                r[row] = (V[be.i_idx] * np.conj(cur)).imag - t.setpoint
            elif t.mode is Mode.Q_INJ:
                r[row] = (dv[t.branch] * np.conj(cur)).imag - t.setpoint
            elif t.mode is Mode.V_BUS:
                r[row] = 0.5 * (abs(V[t.bus_idx]) ** 2 - t.setpoint ** 2)
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
    Y = sys.ybus.toarray()
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

    for dev in sys.devices:
        row = dev.row_start
        for be in dev.branches:
            cI = np.conj(I[be.cur_idx])
            dv = V[be.m_idx] - V[be.i_idx]
            asm.add_re(row, 2 * be.m_idx, cI)
            asm.add_re(row, 2 * be.i_idx, -cI)
            asm.add_re(row, ccol(be.cur_idx), 0j, dv)
        for t in dev.targets:
            row += 1
            be = dev.branches[t.branch]
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
                vb = V[t.bus_idx]
                asm.add_re(row, 2 * t.bus_idx, 0.5 * np.conj(vb), 0.5 * vb)
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


def history(sys: System, n: int, Vs, Is, Us, comp_f, comp_m) -> np.ndarray:
    """Order-n polynomial history of the embedded equations (n >= 2)."""
    net = sys.net
    h = np.zeros(sys.size)
    CIs = sys.incidence @ Is[:, :n]     # device currents summed per bus
    for b, bus in enumerate(net.buses):
        if bus.kind is BusKind.SLACK:
            continue
        acc = 0j
        for d in range(1, n):
            acc += np.conj(Vs[b, d]) * (Us[b, n - d] + CIs[b, n - d])
        if bus.kind is BusKind.PV:
            h[2 * b] = acc.real
            h[2 * b + 1] = 0.5 * sum(
                (Vs[b, d] * np.conj(Vs[b, n - d])).real for d in range(1, n))
        else:
            h[2 * b] = acc.real
            h[2 * b + 1] = acc.imag

    for dev in sys.devices:
        row = dev.row_start
        acc = 0.0
        for be in dev.branches:
            dv = Vs[be.m_idx] - Vs[be.i_idx]
            acc += sum((dv[d] * np.conj(Is[be.cur_idx, n - d])).real
                       for d in range(1, n))
        h[row] = acc
        for t in dev.targets:
            row += 1
            be = dev.branches[t.branch]
            c = be.cur_idx
            dv = Vs[be.m_idx] - Vs[be.i_idx]
            if t.mode is Mode.P_FLOW:
                h[row] = sum((Vs[be.i_idx, d] * np.conj(Is[c, n - d])).real
                             for d in range(1, n))
            elif t.mode is Mode.Q_FLOW:
                h[row] = sum((Vs[be.i_idx, d] * np.conj(Is[c, n - d])).imag
                             for d in range(1, n))
            elif t.mode is Mode.Q_INJ:
                h[row] = sum((dv[d] * np.conj(Is[c, n - d])).imag
                             for d in range(1, n))
            elif t.mode is Mode.V_BUS:
                h[row] = 0.5 * sum(
                    (Vs[t.bus_idx, d] * np.conj(Vs[t.bus_idx, n - d])).real
                    for d in range(1, n))
            else:
                F = comp_f[c]
                D = Is[c, 0]
                hist_f = -sum(F[d] * Is[c, n - d] for d in range(1, n)) / D
                if t.mode is Mode.X_EQ:
                    # injected voltage times reciprocal current
                    acc = sum(dv[a] * F[n - a] for a in range(1, n))
                    acc += dv[0] * hist_f
                    h[row] = acc.imag
                else:
                    # injected voltage times |I|/I via both companions
                    M = comp_m[c]
                    m0 = M[0]
                    hist_m = (sum(Is[c, d] * np.conj(Is[c, n - d])
                                  for d in range(1, n)).real
                              - sum(M[d] * M[n - d]
                                    for d in range(1, n))) / (2.0 * m0)
                    t_hist = m0 * sum(dv[a] * F[n - a] for a in range(1, n))
                    for b_ in range(1, n):
                        g = sum(dv[l] * F[n - b_ - l] for l in range(n - b_ + 1))
                        t_hist += M[b_] * g
                    acc = t_hist + dv[0] * F[0] * hist_m + dv[0] * m0 * hist_f
                    h[row] = acc.imag
    return h
