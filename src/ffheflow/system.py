"""Assembled solve structure shared by the direct and series solvers.

One set of residual equations describes the network with its series devices;
the Newton solver iterates on their Jacobian, and the series solver reuses the
same Jacobian evaluated at the reference state as its constant coefficient
matrix.  The unknowns are the complex state ``z = [V; I]``, bus voltages
then device-branch currents, and the real unknown vector is its float view
(:func:`pack_state`): bus b occupies real columns ``2b, 2b+1`` (re, im),
device-branch current c occupies ``2*n_bus + 2c, ... + 1``.  Row layout: two
rows per bus, then per device one power-exchange row followed by its control
rows.

Assembly is split by what changes.  A :class:`Structure` holds what the
case and the device placement (each device's id, branches and coupling
impedances) fix: the spliced network, the bus-current operator ``[Y C]``,
the device rows' branch entries and the per-bus arrays.  It is memoised per
(case, placement) in a small bounded cache, and its arrays are read-only.
A :class:`System`, made by :func:`build_system`, is one outer pass's view
of it: the bus masks after the constant-Q pins, the scheduled injections
and setpoints, the resolved device targets and, built on first use, the
Jacobian's fixed CSC pattern.  So a generator-limit or relaxation pass
neither re-splices the devices nor rebuilds the Y-bus, and every Newton
step, series stage and ``compare`` solve on one System refills one pattern,
as in the fixed-structure Jacobian of MATPOWER and pandapower.

The bus rows are complex-matrix expressions over those index arrays: the
injections ``S = diag(conj V) [Y C] z``, with ``C`` the sparse +-1
incidence of device currents on buses, and their derivatives after
Zimmerman ("AC Power Flows, Generalized OPF Costs and their Derivatives
using Complex Matrix Notation", MATPOWER TN2, 2010).  The Jacobian is a
``scipy.sparse`` CSC matrix, factorised by SuperLU (:func:`lu_factor`) for
Newton steps and series orders alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

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


@dataclass(frozen=True, eq=False)
class Structure:
    """What a case and a device placement fix, shared by every pass.

    The placement is each device's id, branches and coupling impedances.
    Built by :func:`_structure`, which memoises it; its arrays are
    read-only.
    """

    net: Network        # spliced network, with the case's bus kinds
    yc: sparse.csr_matrix   # [Y C], n_bus x (n_bus + n_currents): the Y-bus,
                            # then the incidence (+1 at i, -1 at m)
    devices: tuple      # DeviceEntry, with no targets or current guesses
    slack: np.ndarray   # the slack bus
    pv: np.ndarray      # regulating buses that no device displaces
    s_inj: np.ndarray   # complex scheduled injection at gen-table Q
    v_set: np.ndarray   # slack: complex setpoint; regulating: magnitude
    t_rows: np.ndarray  # row of each stored entry of ``yc``, the bus rows'
                        # complex-variable Jacobian triplets
    t_diag: np.ndarray  # the triplets on the diagonal, one per bus in order


@dataclass(frozen=True, eq=False)
class System:
    """One pass's view of a :class:`Structure`: bus kinds after the
    constant-Q pins, scheduled injections, setpoints and device targets."""

    structure: Structure
    frozen_q: dict      # ext id -> pinned Q of the PV buses made constant-Q
    s_inj: np.ndarray   # complex scheduled injection per bus (PV: real part)
    devices: tuple      # DeviceEntry
    pv: np.ndarray      # voltage-regulating buses,
    pq: np.ndarray      # and the rest but the slack (PQ and auxiliary buses)
    v_set: np.ndarray   # slack: complex setpoint; PV: magnitude; else 0

    @property
    def slack(self) -> np.ndarray:
        return self.structure.slack

    @property
    def yc(self) -> sparse.csr_matrix:
        return self.structure.yc

    @property
    def n_bus(self) -> int:
        return self.structure.net.n_bus

    @property
    def n_currents(self) -> int:
        return self.yc.shape[1] - self.n_bus

    @property
    def size(self) -> int:
        return 2 * (self.n_bus + self.n_currents)

    @cached_property
    def net(self) -> Network:
        """The spliced network with this pass's bus kinds and pinned Q,
        built on first use (``structure.net`` has the same buses, branches
        and ids)."""
        base = self.structure.net
        return replace(base, buses=tuple(
            replace(b, kind=BusKind.PQ,
                    q_gen=self.frozen_q.get(b.ext_id, b.q_gen))
            if b.kind is BusKind.PV and not pv else b
            for b, pv in zip(base.buses, self.pv)))

    @cached_property
    def pattern(self) -> "JacobianPattern":
        return _jacobian_pattern(self)


def build_system(base_net: Network, devices=(), *,
                 frozen_q: dict | None = None) -> System:
    """Assemble one pass's solve structure for ``devices`` in ``base_net``.

    The splice and ``[Y C]`` depend only on the case and the device
    placement (ids, branches, coupling impedances), so they come from a
    memoised :class:`Structure`; a pass adds only the bus kinds, the
    injections and the device targets.

    ``frozen_q`` (ext id -> p.u.) holds the constant-Q buses: every PV bus
    listed there becomes a fixed-injection bus with that reactive output.
    A PV sending bus loses its voltage regulation to the device and becomes
    a fixed-injection bus too, at its gen-table output unless listed.  A
    slack sending bus, a repeated device id or a voltage target on a bus
    that is already regulated is an error.
    """
    frozen_q = dict(frozen_q or {})
    st = _structure(base_net, tuple(
        (dev.device_id, tuple(map(tuple, dev.branches)), tuple(dev.z_se))
        for dev in devices))
    idx = st.net.index_of
    pv = st.pv.copy()
    s_inj = st.s_inj.copy()
    for ext, q in frozen_q.items():
        b = idx.get(ext)
        if b is not None and st.net.buses[b].kind is BusKind.PV:
            pv[b] = False
            s_inj[b] = complex(s_inj[b].real, q - st.net.buses[b].q_load)
    regulated = pv | st.slack

    entries = []
    for dev, placed in zip(devices, st.devices):
        rtargets = []
        for t in dev.targets:
            if t.mode is Mode.V_BUS:
                bus_ext = t.bus if t.bus is not None else dev.branches[0][0]
                if bus_ext not in idx:
                    raise DeviceConfigError(
                        f"{dev.device_id}: unknown target bus {bus_ext}")
                bus_idx = idx[bus_ext]
                if regulated[bus_idx]:
                    raise DeviceConfigError(
                        f"{dev.device_id}: bus {bus_ext} magnitude is already "
                        "regulated")
            else:
                bus_idx = -1
            rtargets.append(ResolvedTarget(
                mode=t.mode, setpoint=t.setpoint, branch=t.branch,
                bus_idx=bus_idx))
        entries.append(replace(placed, targets=tuple(rtargets),
                               current_guesses=tuple(dev.current_guess)))

    return System(structure=st, frozen_q=frozen_q, s_inj=s_inj,
                  devices=tuple(entries), pv=pv, pq=~regulated,
                  v_set=np.where(regulated, st.v_set, 0))


@lru_cache(maxsize=8)
def _structure(base_net: Network, placement: tuple) -> Structure:
    """Splice the placed devices, given as (id, branches, z_se) triples,
    into ``base_net`` and build what every pass shares."""
    net = base_net
    topos = []
    for device_id, branches, z_se in placement:
        if any(topo.device_id == device_id for topo in topos):
            raise DeviceConfigError(f"device id {device_id!r} is repeated")
        net, topo = insert_series_device(net, device_id, branches, z_se)
        topos.append(topo)
    for topo in topos:
        b = net.bus(topo.sending_bus)
        if b.kind is BusKind.SLACK:
            raise TopologyError(
                f"device {topo.device_id}: sending bus {b.ext_id} is the slack")

    idx = net.index_of
    n = net.n_bus
    inc_rows = []
    entries = []
    row = 2 * n
    cur = 0
    for topo in topos:
        bentries = []
        for (i, j), m in zip(topo.original_branches, topo.aux_buses):
            be = BranchEntry(i_idx=idx[i], m_idx=idx[m], cur_idx=cur, j_ext=j)
            inc_rows += (be.i_idx, be.m_idx)
            bentries.append(be)
            cur += 1
        entries.append(DeviceEntry(
            device_id=topo.device_id, branches=tuple(bentries), targets=(),
            row_start=row, current_guesses=()))
        row += 2 * len(bentries)    # the exchange row and 2n - 1 targets
    incidence = sparse.csr_matrix(
        (np.tile([1.0, -1.0], cur),
         (np.array(inc_rows, dtype=np.intp), np.repeat(np.arange(cur), 2))),
        shape=(n, cur))
    yc = sparse.hstack([build_admittance_matrix(net), incidence],
                       format="csr")
    yc.sort_indices()

    displaced = {idx[topo.sending_bus] for topo in topos}
    slack = np.array([b.kind is BusKind.SLACK for b in net.buses])
    pv = np.array([b.kind is BusKind.PV and k not in displaced
                   for k, b in enumerate(net.buses)])
    s_inj = np.array([complex(b.p_gen - b.p_load, b.q_gen - b.q_load)
                      for b in net.buses])
    v_set = np.zeros(n, dtype=complex)
    for b, bus in enumerate(net.buses):
        if bus.kind is BusKind.SLACK:
            v_set[b] = complex(bus.v_setpoint * np.cos(bus.angle_setpoint),
                               bus.v_setpoint * np.sin(bus.angle_setpoint))
        elif bus.kind is BusKind.PV:
            v_set[b] = bus.v_setpoint
    t_rows = np.repeat(np.arange(n), np.diff(yc.indptr))
    st = Structure(
        net=net, yc=yc, devices=tuple(entries), slack=slack, pv=pv,
        s_inj=s_inj, v_set=v_set, t_rows=t_rows,
        t_diag=np.flatnonzero(t_rows == yc.indices))
    for arr in (yc.data, yc.indices, yc.indptr, slack, pv, s_inj, v_set,
                t_rows, st.t_diag):
        arr.setflags(write=False)
    return st


def companion_currents(sys: System) -> list:
    """Current indices whose control rows (``COMPANION_MODES``) need the
    reciprocal and magnitude companion series, in order of first use."""
    return list(dict.fromkeys(
        dev.branches[t.branch].cur_idx
        for dev in sys.devices for t in dev.targets
        if t.mode in COMPANION_MODES))


def pack_state(V: np.ndarray, I: np.ndarray) -> np.ndarray:
    """The real unknown vector: the float view of ``z = [V; I]``."""
    return np.concatenate([V, I], dtype=complex).view(float)


def unpack_state(x: np.ndarray, n_bus: int):
    """(V, I) of a real unknown vector, as views into it."""
    z = x.view(complex)
    return z[:n_bus], z[n_bus:]


def residual(sys: System, V: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Real residual vector of the original (unembedded) equations."""
    n = sys.n_bus
    r = np.empty(sys.size)
    f = np.conj(V) * (sys.yc @ np.concatenate([V, I])) - np.conj(sys.s_inj)
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


@dataclass(frozen=True, eq=False)
class JacobianPattern:
    """Fixed CSC pattern of one :class:`System`'s Jacobian.

    :func:`jacobian` computes its values as one vector in a fixed triplet
    order; ``scatter`` maps each value to its slot in the CSC ``data``,
    where duplicates are summed in triplet order.

    Device rows are complex terms ``a du + b d(conj u)`` of three shapes:
    exchange-like rows (each branch's power exchange, and the Q_INJ, V_SE
    and X_EQ targets) have terms at V_m, V_i and I, divided by
    ``|I| ** x_pow``, and V_SE and X_EQ rows one more at I for the
    divisor's own derivative; flow rows (P_FLOW, Q_FLOW) have terms at V_i
    and I; V_BUS rows one term at the bus.
    """

    re: np.ndarray      # bus triplets with a real row (every bus but slack)
    im: np.ndarray      # bus triplets with an imaginary row (PQ, auxiliary)
    pv: np.ndarray      # PV bus indices
    n_slack: int
    x_i: np.ndarray     # exchange-like rows: the branch's buses and current,
    x_m: np.ndarray
    x_c: np.ndarray
    x_pow: np.ndarray   # and the divisor's power: 0, 1 (V_SE) or 2 (X_EQ)
    z_x: np.ndarray     # V_SE and X_EQ rows among them,
    z_pow: np.ndarray   # their divisor derivative's denominator
    z_mul: np.ndarray   # 2 |I|^3 (V_SE) or |I|^4 (X_EQ) as mul * scale^pow
    f_i: np.ndarray     # flow rows: sending bus and current
    f_c: np.ndarray
    v_bus: np.ndarray   # V_BUS rows: the bus
    d_im: np.ndarray    # per device term: its row is an imaginary part
    scatter: np.ndarray  # triplet -> slot in data
    indices: np.ndarray
    indptr: np.ndarray


def _jacobian_pattern(sys: System) -> JacobianPattern:
    n, size = sys.n_bus, sys.size
    x, f, v = [], [], []    # per row shape: (row, imaginary?, indices...)
    for dev in sys.devices:
        for be in dev.branches:
            x.append((dev.row_start, 0, be.i_idx, be.m_idx, be.cur_idx, 0))
        for row, t in enumerate(dev.targets, dev.row_start + 1):
            be = dev.branches[t.branch]
            if t.mode in (Mode.P_FLOW, Mode.Q_FLOW):
                f.append((row, t.mode is Mode.Q_FLOW, be.i_idx, be.cur_idx))
            elif t.mode is Mode.V_BUS:
                v.append((row, 0, t.bus_idx))
            else:
                x.append((row, 1, be.i_idx, be.m_idx, be.cur_idx,
                          (Mode.Q_INJ, Mode.V_SE, Mode.X_EQ).index(t.mode)))
    x_row, x_im, x_i, x_m, x_c, x_pow = _columns(x, 6)
    f_row, f_im, f_i, f_c = _columns(f, 4)
    v_row, v_im, v_bus = _columns(v, 3)
    z_x = np.flatnonzero(x_pow)
    c_col = n + x_c         # complex column of a device current
    d_rows = np.concatenate([x_row, x_row, x_row, f_row, f_row, v_row,
                             x_row[z_x]])
    d_cols = np.concatenate([x_m, x_i, c_col, f_i, n + f_c, v_bus, c_col[z_x]])
    d_im = np.concatenate([x_im, x_im, x_im, f_im, f_im, v_im,
                           np.zeros(z_x.size, dtype=int)]) == 1

    tr, tc = sys.structure.t_rows, sys.yc.indices
    re = np.flatnonzero(~sys.slack[tr])
    im = np.flatnonzero(sys.pq[tr])
    pv = np.flatnonzero(sys.pv)
    slack = np.flatnonzero(sys.slack)
    rows = np.concatenate([
        2 * tr[re], 2 * tr[re], 2 * tr[im] + 1, 2 * tr[im] + 1,
        2 * pv + 1, 2 * pv + 1, 2 * slack, 2 * slack + 1, d_rows, d_rows])
    cols = np.concatenate([
        2 * tc[re], 2 * tc[re] + 1, 2 * tc[im], 2 * tc[im] + 1,
        2 * pv, 2 * pv + 1, 2 * slack, 2 * slack + 1,
        2 * d_cols, 2 * d_cols + 1])
    slots, scatter = np.unique(cols * size + rows, return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(slots // size, minlength=size), out=indptr[1:])
    v_se = x_pow[z_x] == 1
    return JacobianPattern(
        re=re, im=im, pv=pv, n_slack=slack.size, x_i=x_i, x_m=x_m, x_c=x_c,
        x_pow=x_pow, z_x=z_x, z_pow=np.where(v_se, 3, 2),
        z_mul=np.where(v_se, 2.0, 1.0), f_i=f_i, f_c=f_c, v_bus=v_bus,
        d_im=d_im, scatter=scatter, indices=(slots % size).astype(np.int32),
        indptr=indptr)


def _columns(records: list, k: int):
    """The k fields of ``records`` (tuples of ints) as k int arrays."""
    return np.array(records, dtype=int).reshape(len(records), k).T


def jacobian(sys: System, V: np.ndarray, I: np.ndarray) -> sparse.csc_matrix:
    """Analytic Jacobian of :func:`residual` at (V, I), as a CSC matrix.

    A complex row f with d f = a du + b d(conj u) contributes
    ``[[Re(a+b), Im(b-a)], [Im(a+b), Re(a-b)]]`` to the (re, im) rows and
    the (re, im) columns of u.  For the bus injections
    ``f = diag(conj V) [Y C] z``, a = diag(conj V) [Y C] on the pattern of
    ``[Y C]``, and b = diag([Y C] z) on the diagonal.  The values fill the
    system's fixed :class:`JacobianPattern`.
    """
    st, pat = sys.structure, sys.pattern
    a = np.conj(V)[st.t_rows] * st.yc.data
    b = np.zeros_like(a)
    b[st.t_diag] = st.yc @ np.concatenate([V, I])
    p, q = a + b, a - b
    re, im, pv = pat.re, pat.im, pat.pv
    da, db = _device_terms(pat, V, I)
    dp, dq = da + db, da - db
    vals = np.concatenate([
        p[re].real, -q[re].imag, p[im].imag, q[im].real,
        V[pv].real, V[pv].imag, np.ones(2 * pat.n_slack),
        np.where(pat.d_im, dp.imag, dp.real),
        np.where(pat.d_im, dq.real, -dq.imag)])
    data = np.bincount(pat.scatter, weights=vals, minlength=pat.indices.size)
    return sparse.csc_matrix((data, pat.indices, pat.indptr),
                             shape=(sys.size, sys.size))


def _device_terms(pat: JacobianPattern, V, I):
    """(a, b) of the device rows' complex terms, in the pattern's order.

    ``np.hypot``, ``np.float_power`` and the written-out product round
    like the scalar ``abs``, ``**`` and ``*`` of :func:`residual`.
    """
    cI = np.conj(I)
    scale = np.float_power(np.hypot(I.real, I.imag)[pat.x_c], pat.x_pow)
    dv = V[pat.x_m] - V[pat.x_i]
    cIx = cI[pat.x_c] / scale
    zx, zf = np.zeros(pat.x_c.size), np.zeros(pat.f_c.size)
    vb = V[pat.v_bus]
    # the divisor's derivative, with q = Im(dv conj I)
    dz, cz = dv[pat.z_x], cI[pat.x_c[pat.z_x]]
    q = dz.real * cz.imag + dz.imag * cz.real
    den = np.float_power(scale[pat.z_x], pat.z_pow) * pat.z_mul
    a = np.concatenate([cIx, -cIx, zx, cI[pat.f_c], zf, 0.5 * np.conj(vb),
                        -q * cz / den])
    b = np.concatenate([zx, zx, dv / scale, zf, V[pat.f_i], 0.5 * vb,
                        -q * np.conj(cz) / den])
    return a, b


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
