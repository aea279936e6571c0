"""Assembled solve structure shared by the direct and series solvers.

One set of residual equations describes the network with its series devices;
the Newton solver iterates on their Jacobian, and the series solver reuses the
same Jacobian evaluated at the reference state as its constant coefficient
matrix.  Unknown layout: bus b occupies real columns ``2b, 2b+1`` (re, im),
device-branch current c occupies ``2*n_bus + 2c, ... + 1``.  Row layout: two
rows per bus, then per device one power-exchange row followed by its control
rows.

The bus rows are complex-matrix expressions over index arrays that
:func:`build_system` computes once: the injections
``S = diag(conj V) (Y V + C I)``, with ``C`` the sparse +-1 incidence of
device currents on buses, and their derivatives after Zimmerman ("AC Power
Flows, Generalized OPF Costs and their Derivatives using Complex Matrix
Notation", MATPOWER TN2, 2010).  The Jacobian is a ``scipy.sparse`` CSC
matrix, factorised by SuperLU (:func:`lu_factor`) for Newton steps and
series orders alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .devices import COMPANION_MODES, DeviceConfigError, Mode
from .network import (BusKind, Network, TopologyError,
                      build_admittance_matrix, insert_series_device)


@dataclass(frozen=True)
class BranchEntry:
    """One converter branch of a spliced device, in internal indices."""

    i_idx: int          # sending bus
    m_idx: int          # auxiliary bus behind the series source
    cur_idx: int        # device-current number (column pair 2N + 2c)
    j_ext: int          # external id of the receiving bus, for reporting


@dataclass(frozen=True)
class ResolvedTarget:
    mode: Mode
    setpoint: float
    branch: int         # index into the device's BranchEntry list
    bus_idx: int        # internal bus index, V_BUS only


@dataclass(frozen=True)
class DeviceEntry:
    device_id: str
    branches: tuple     # BranchEntry per converter branch
    targets: tuple      # ResolvedTarget, one per control row
    row_start: int      # first residual row (the power-exchange row)
    current_guesses: tuple
    v_se_limits: tuple


@dataclass(frozen=True)
class System:
    net: Network        # spliced network, device sending buses converted to PQ
    ybus: sparse.csr_matrix
    s_inj: np.ndarray   # complex scheduled injection per bus (PV: real part)
    devices: tuple      # DeviceEntry
    slack: np.ndarray   # bus masks: the slack bus,
    pv: np.ndarray      # voltage-regulating buses,
    pq: np.ndarray      # and the rest (PQ and auxiliary buses)
    v_set: np.ndarray   # slack: complex setpoint; PV: magnitude; else 0
    incidence: sparse.coo_matrix  # n_bus x n_currents: +1 at i, -1 at m
    y_rows: np.ndarray  # COO pattern of ybus, in CSR order
    y_cols: np.ndarray

    @property
    def n_bus(self) -> int:
        return self.net.n_bus

    @property
    def n_currents(self) -> int:
        return self.incidence.shape[1]

    @property
    def size(self) -> int:
        return 2 * (self.n_bus + self.n_currents)


def build_system(base_net: Network, devices=(), *, admittance_sum: bool = False,
                 frozen_q: dict | None = None,
                 demote_sending: bool = True) -> System:
    """Splice ``devices`` into ``base_net`` and assemble the solve structure.

    With ``demote_sending`` (the default) a PV sending bus loses its voltage
    regulation to the device and becomes a fixed-injection bus; its reactive
    output is taken from ``frozen_q`` (ext id -> p.u.) when given, else from
    the gen table.  A slack sending bus is an error.
    """
    frozen_q = frozen_q or {}
    net = base_net
    topos = []
    for dev in devices:
        net, topo = insert_series_device(
            net, dev.device_id, dev.branches, dev.z_se_list,
            admittance_sum=admittance_sum)
        topos.append(topo)

    buses = list(net.buses)
    for topo in topos:
        si = net.index_of[topo.sending_bus]
        b = buses[si]
        if b.kind is BusKind.SLACK:
            raise TopologyError(
                f"device {topo.device_id}: sending bus {b.ext_id} is the slack")
        if b.kind is BusKind.PV and demote_sending:
            buses[si] = replace(
                b, kind=BusKind.PQ,
                q_gen=frozen_q.get(b.ext_id, b.q_gen))
    net = Network(buses=tuple(buses), branches=net.branches,
                  base_mva=net.base_mva, name=net.name)

    ybus = build_admittance_matrix(net)
    idx = net.index_of
    s_inj = np.array([complex(b.p_gen - b.p_load, b.q_gen - b.q_load)
                      for b in net.buses])

    inc_rows, inc_cols, inc_signs = [], [], []
    entries = []
    row = 2 * net.n_bus
    cur = 0
    for dev, topo in zip(devices, topos):
        bentries = []
        for (i, j), m in zip(topo.original_branches, topo.aux_buses):
            be = BranchEntry(i_idx=idx[i], m_idx=idx[m], cur_idx=cur, j_ext=j)
            inc_rows += (be.i_idx, be.m_idx)
            inc_cols += (cur, cur)
            inc_signs += (1.0, -1.0)
            bentries.append(be)
            cur += 1
        rtargets = []
        for t in dev.targets:
            if t.mode is Mode.V_BUS:
                bus_ext = t.bus if t.bus is not None else topo.sending_bus
                if bus_ext not in idx:
                    raise DeviceConfigError(
                        f"{dev.device_id}: unknown target bus {bus_ext}")
                bus_idx = idx[bus_ext]
                if net.buses[bus_idx].kind in (BusKind.PV, BusKind.SLACK):
                    raise DeviceConfigError(
                        f"{dev.device_id}: bus {bus_ext} magnitude is already "
                        "regulated")
            else:
                bus_idx = -1
            rtargets.append(ResolvedTarget(
                mode=t.mode, setpoint=t.setpoint, branch=t.branch,
                bus_idx=bus_idx))
        entries.append(DeviceEntry(
            device_id=dev.device_id,
            branches=tuple(bentries),
            targets=tuple(rtargets),
            row_start=row,
            current_guesses=tuple(dev.current_guesses),
            v_se_limits=tuple(dev.v_se_limits)))
        row += 1 + len(rtargets)

    slack = np.array([b.kind is BusKind.SLACK for b in net.buses])
    pv = np.array([b.kind is BusKind.PV for b in net.buses])
    v_set = np.zeros(net.n_bus, dtype=complex)
    for b, bus in enumerate(net.buses):
        if bus.kind is BusKind.SLACK:
            v_set[b] = complex(bus.v_setpoint * np.cos(bus.angle_setpoint),
                               bus.v_setpoint * np.sin(bus.angle_setpoint))
        elif bus.kind is BusKind.PV:
            v_set[b] = bus.v_setpoint
    incidence = sparse.coo_matrix((inc_signs, (inc_rows, inc_cols)),
                                  shape=(net.n_bus, cur))
    return System(net=net, ybus=ybus, s_inj=s_inj, devices=tuple(entries),
                  slack=slack, pv=pv, pq=~(slack | pv), v_set=v_set,
                  incidence=incidence,
                  y_rows=np.repeat(np.arange(net.n_bus), np.diff(ybus.indptr)),
                  y_cols=ybus.indices)


def companion_currents(sys: System) -> list:
    """Current indices whose control rows (``COMPANION_MODES``) need the
    reciprocal and magnitude companion series, in order of first use."""
    return list(dict.fromkeys(
        dev.branches[t.branch].cur_idx
        for dev in sys.devices for t in dev.targets
        if t.mode in COMPANION_MODES))


def pack_state(V: np.ndarray, I: np.ndarray) -> np.ndarray:
    x = np.empty(2 * (V.size + I.size))
    x[0:2 * V.size:2] = V.real
    x[1:2 * V.size:2] = V.imag
    x[2 * V.size::2] = I.real
    x[2 * V.size + 1::2] = I.imag
    return x


def unpack_state(x: np.ndarray, n_bus: int):
    V = x[0:2 * n_bus:2] + 1j * x[1:2 * n_bus:2]
    I = x[2 * n_bus::2] + 1j * x[2 * n_bus + 1::2]
    return V, I




def residual(sys: System, V: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Real residual vector of the original (unembedded) equations."""
    n = sys.n_bus
    r = np.empty(sys.size)
    f = np.conj(V) * (sys.ybus @ V + sys.incidence @ I) - np.conj(sys.s_inj)
    r_re, r_im = r[0:2 * n:2], r[1:2 * n:2]     # views into r
    r_re[:] = f.real
    r_im[:] = f.imag
    pv, slack = sys.pv, sys.slack
    r_im[pv] = 0.5 * (np.abs(V[pv]) ** 2 - sys.v_set[pv].real ** 2)
    r_re[slack] = V[slack].real - sys.v_set[slack].real
    r_im[slack] = V[slack].imag - sys.v_set[slack].imag

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


def jacobian(sys: System, V: np.ndarray, I: np.ndarray) -> sparse.csc_matrix:
    """Analytic Jacobian of :func:`residual` at (V, I), as a CSC matrix.

    A complex row f with d f = a du + b d(conj u) contributes
    ``[[Re(a+b), Im(b-a)], [Im(a+b), Re(a-b)]]`` to the (re, im) rows and
    the (re, im) columns of u.  For the bus injections
    ``f = diag(conj V) (Y V + C I)``, a = diag(conj V) [Y  C] on the Y-bus
    and incidence patterns, and b = diag(Y V + C I) on the diagonal.
    """
    n = sys.n_bus
    inc = sys.incidence
    cV = np.conj(V)
    # complex-variable triplets: Y-bus pattern, then currents (column n + c)
    t_rows = np.concatenate([sys.y_rows, inc.row])
    t_cols = np.concatenate([sys.y_cols, n + inc.col])
    a = cV[t_rows] * np.concatenate([sys.ybus.data, inc.data])
    b = np.zeros_like(a)
    diag = np.flatnonzero(t_rows == t_cols)
    b[diag] = (sys.ybus @ V + inc @ I)[t_rows[diag]]
    p, q = a + b, a - b
    re = ~sys.slack[t_rows]           # real rows: every bus but the slack
    im = sys.pq[t_rows]               # imaginary rows: PQ and auxiliary only
    pv = np.flatnonzero(sys.pv)
    slack = np.flatnonzero(sys.slack)
    rows = [2 * t_rows[re], 2 * t_rows[re],
            2 * t_rows[im] + 1, 2 * t_rows[im] + 1,
            2 * pv + 1, 2 * pv + 1, 2 * slack, 2 * slack + 1]
    cols = [2 * t_cols[re], 2 * t_cols[re] + 1,
            2 * t_cols[im], 2 * t_cols[im] + 1,
            2 * pv, 2 * pv + 1, 2 * slack, 2 * slack + 1]
    vals = [p[re].real, -q[re].imag, p[im].imag, q[im].real,
            V[pv].real, V[pv].imag, np.ones(slack.size), np.ones(slack.size)]
    dev_rows, dev_cols, dev_vals = _device_entries(sys, V, I)
    return sparse.csc_matrix(
        (np.concatenate(vals + [dev_vals]),
         (np.concatenate(rows + [dev_rows]),
          np.concatenate(cols + [dev_cols]))),
        shape=(sys.size, sys.size))


def _device_entries(sys: System, V, I):
    """(rows, cols, values) of the Jacobian's device rows."""
    rows, cols, vals = [], [], []

    def add_re(row, col, a, b=0j):
        rows.extend((row, row))
        cols.extend((col, col + 1))
        vals.extend((a.real + b.real, -a.imag + b.imag))

    def add_im(row, col, a, b=0j):
        rows.extend((row, row))
        cols.extend((col, col + 1))
        vals.extend((a.imag + b.imag, a.real - b.real))

    ccol = lambda c: 2 * sys.n_bus + 2 * c
    for dev in sys.devices:
        row = dev.row_start
        for be in dev.branches:
            cI = np.conj(I[be.cur_idx])
            dv = V[be.m_idx] - V[be.i_idx]
            add_re(row, 2 * be.m_idx, cI)
            add_re(row, 2 * be.i_idx, -cI)
            add_re(row, ccol(be.cur_idx), 0j, dv)
        for t in dev.targets:
            row += 1
            be = dev.branches[t.branch]
            cur = I[be.cur_idx]
            cI = np.conj(cur)
            dv = V[be.m_idx] - V[be.i_idx]
            if t.mode is Mode.P_FLOW:
                add_re(row, 2 * be.i_idx, cI)
                add_re(row, ccol(be.cur_idx), 0j, V[be.i_idx])
            elif t.mode is Mode.Q_FLOW:
                add_im(row, 2 * be.i_idx, cI)
                add_im(row, ccol(be.cur_idx), 0j, V[be.i_idx])
            elif t.mode is Mode.Q_INJ:
                add_im(row, 2 * be.m_idx, cI)
                add_im(row, 2 * be.i_idx, -cI)
                add_im(row, ccol(be.cur_idx), 0j, dv)
            elif t.mode is Mode.V_BUS:
                vb = V[t.bus_idx]
                add_re(row, 2 * t.bus_idx, 0.5 * np.conj(vb), 0.5 * vb)
            elif t.mode is Mode.V_SE:
                mag = abs(cur)
                q = (dv * cI).imag
                add_im(row, 2 * be.m_idx, cI / mag)
                add_im(row, 2 * be.i_idx, -cI / mag)
                add_im(row, ccol(be.cur_idx), 0j, dv / mag)
                add_re(row, ccol(be.cur_idx),
                       -q * cI / (2 * mag ** 3), -q * cur / (2 * mag ** 3))
            else:  # X_EQ
                mag2 = abs(cur) ** 2
                q = (dv * cI).imag
                add_im(row, 2 * be.m_idx, cI / mag2)
                add_im(row, 2 * be.i_idx, -cI / mag2)
                add_im(row, ccol(be.cur_idx), 0j, dv / mag2)
                add_re(row, ccol(be.cur_idx),
                       -q * cI / mag2 ** 2, -q * cur / mag2 ** 2)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(vals, dtype=float))


def lu_factor(J: sparse.csc_matrix):
    """SuperLU factorisation of a Jacobian from :func:`jacobian`.

    Raises ``np.linalg.LinAlgError`` when the matrix is exactly singular.
    """
    try:
        return splu(J)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(str(exc)) from None


def lu_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with a factorisation from :func:`lu_factor`."""
    return lu.solve(rhs)
