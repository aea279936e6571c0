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

Each control mode is described once, in :data:`ffheflow.devices.MODE_ROWS`,
as one of three row shapes: exchange-like rows, Re or Im of
``(V_m - V_i) conj(I) / |I|**p`` with p = 0, 1 or 2 (each branch's share of
its device's power exchange, and the Q_INJ, V_SE and X_EQ targets); flow
rows, Re or Im of ``V_i conj(I)`` (P_FLOW, Q_FLOW); and V_BUS rows,
``(|V_b|**2 - s**2) / 2``.  A
:class:`DeviceRows` table holds every device row's indices and divisor
power by shape, and each System its rows' setpoints; :func:`residual`,
:func:`jacobian` and the series history read them with one array
expression per shape instead of a loop over devices and targets.

Assembly is split by what changes.  A :class:`Structure` holds what the
case and the device placement (each device's branches and coupling
impedances) fix: the spliced network, the bus-current operator ``[Y C]``,
each device's :class:`BranchEntry` tuple (its branches in internal bus and
current indices) and the per-bus arrays.  It is memoised per (case,
placement) in a small bounded cache, and its arrays are read-only.  A
:class:`System`, made by :func:`build_system`, is one outer pass's view of
it: the bus masks after the constant-Q pins, the scheduled injections and
setpoints, and the :class:`~ffheflow.devices.SeriesDevice` objects the pass
solves (relaxed targets included).  No pass re-splices the devices or
rebuilds the Y-bus, and the device-row table, memoised on the structure
and the target layout, is rebuilt only when a relaxation changes that.

What the kernels read on every call is computed once per pass, not per
call, since on vectors of a few hundred rows most of a kernel's cost is
the fixed cost of each numpy call.  A System holds its sizes
(``n_bus``, ``n_currents``, ``size``), its PV buses as an index array
with their imaginary residual rows and squared setpoint magnitudes, and
``conj(s_inj)``; the Structure holds the slack buses with their
(re, im) row pairs and setpoints.  All of them are read-only.
:func:`residual` writes the bus rows through a complex view of its
output and the slack rows as one complex difference; the floating-point
operations and their order are those of the plain expressions, so the
answers are bitwise the same.

The Jacobian's fixed CSC :class:`JacobianPattern` depends only on the
structure, the device rows and the PV mask, and is memoised on those in a
third bounded cache: the passes and studies that share them share one
pattern, and every Newton Jacobian, series stage and ``compare`` solve
refills it, as in the fixed-structure Jacobian of MATPOWER and pandapower.  The pattern also holds SuperLU's column order,
computed once when the pattern is built.  Every factorisation of the
pattern applies it to the rows as well as the columns, so SuperLU
factorises ``P J P^T`` and reuses the symbolic ordering instead of
recomputing it per Jacobian, as KLU does across refactorisations (Davis
and Palamadai Natarajan, "Algorithm 907: KLU", ACM TOMS 2010).  It also
holds the index gathers that read the bus rows' values out of one complex
array, and two CSC matrices with zero values, J's and the permuted one
that SuperLU factorises: :func:`jacobian` and :func:`lu_factor` each make
a shallow copy of one and give it its values, so neither runs scipy's
constructor checks of index arrays that never change.

The bus rows are complex-matrix expressions over those index arrays: the
injections ``S = diag(conj V) [Y C] z``, with ``C`` the sparse +-1
incidence of device currents on buses, and their derivatives after
Zimmerman ("AC Power Flows, Generalized OPF Costs and their Derivatives
using Complex Matrix Notation", MATPOWER TN2, 2010).  The Jacobian is a
``scipy.sparse`` CSC matrix, factorised by SuperLU in its pattern's
symmetric order (:func:`lu_factor`) for Newton steps and series orders
alike.  As in KLU, it keeps each diagonal pivot unless it is below
:data:`DIAG_PIVOT_THRESH` of its column's largest entry, so the factors
keep the order's fill.  They hold a few entries per column, too few for
SuperLU's panels and relaxed supernodes (Demmel et al., "A supernodal
approach to sparse partial pivoting", SIMAX 1999) to repay their set-up,
so :func:`lu_factor` factorises column by column without them, as KLU
does for circuit matrices.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .devices import MODE_ROWS, DeviceConfigError, Mode
from .network import (BusKind, Network, TopologyError,
                      build_admittance_matrix, insert_series_device)

#: SuperLU keeps a column's diagonal pivot unless it is below this fraction
#: of the column's largest entry: KLU's default partial-pivoting tolerance
#: (Davis and Palamadai Natarajan, "Algorithm 907: KLU", ACM TOMS 2010)
DIAG_PIVOT_THRESH = 1e-3


@dataclass(frozen=True)
class BranchEntry:
    """One converter branch of a spliced device, in internal indices."""

    i_idx: int          # sending bus
    m_idx: int          # auxiliary bus behind the series source
    cur_idx: int        # device-current number (column pair 2N + 2c)
    j_ext: int          # external id of the receiving bus, for reporting


@dataclass(frozen=True, eq=False)
class Structure:
    """What a case and a device placement fix, shared by every pass.

    The placement is each device's branches and coupling impedances.
    Built by :func:`_structure`, which memoises it; its arrays are
    read-only.
    """

    net: Network        # spliced network, with the case's bus kinds
    yc: sparse.csr_matrix   # [Y C], n_bus x (n_bus + n_currents): the Y-bus,
                            # then the incidence (+1 at i, -1 at m)
    branches: tuple     # per device, its BranchEntry per converter branch
    slack: np.ndarray   # the slack bus
    pv: np.ndarray      # regulating buses that no device displaces
    s_inj: np.ndarray   # complex scheduled injection at gen-table Q
    v_set: np.ndarray   # slack: complex setpoint; regulating: magnitude
    slack_idx: np.ndarray   # the slack buses, their (re, im) residual row
    slack_rows: np.ndarray  # pairs and their complex setpoints
    slack_v: np.ndarray
    t_rows: np.ndarray  # row of each stored entry of ``yc``, the bus rows'
                        # complex-variable Jacobian triplets
    t_diag: np.ndarray  # the triplets on the diagonal, one per bus in order
    q_load: np.ndarray  # per bus: reactive load, and the generators'
    q_min: np.ndarray   # reactive limits (-inf, inf where none)
    q_max: np.ndarray


@dataclass(frozen=True, eq=False)
class System:
    """One pass's view of a :class:`Structure`: bus kinds after the
    constant-Q pins, scheduled injections, setpoints and the devices.

    ``devices[k]`` is placed by ``structure.branches[k]``.  Its sizes, its
    device rows' setpoints and the index arrays the kernels read on every
    call are computed once, here; the arrays are read-only."""

    structure: Structure
    frozen_q: dict      # ext id -> pinned Q of the PV buses made constant-Q
    s_inj: np.ndarray   # complex scheduled injection per bus (PV: real part)
    devices: tuple      # SeriesDevice, with this pass's targets
    pv: np.ndarray      # voltage-regulating buses (the rest but the
                        # slack are PQ and auxiliary buses)
    v_set: np.ndarray   # slack: complex setpoint; PV: magnitude; else 0
    n_bus: int = field(init=False)
    n_currents: int = field(init=False)
    size: int = field(init=False)       # real unknowns, and residual rows
    pv_idx: np.ndarray = field(init=False)      # PV buses, their imaginary
    pv_rows: np.ndarray = field(init=False)     # rows and squared setpoint
    pv_v2: np.ndarray = field(init=False)       # magnitudes
    s_conj: np.ndarray = field(init=False)      # conj(s_inj)
    setpoint: np.ndarray = field(init=False)    # per device row

    def __post_init__(self):
        st = self.structure
        n_bus = st.net.n_bus
        n_currents = st.yc.shape[1] - n_bus
        pv = np.flatnonzero(self.pv)
        pv_rows, pv_v2 = 2 * pv + 1, self.v_set[pv].real ** 2
        s_conj = np.conj(self.s_inj)
        setpoint = np.zeros(2 * n_currents)
        for dev, branches in zip(self.devices, st.branches):
            for k, t in enumerate(dev.targets, 2 * branches[0].cur_idx + 1):
                setpoint[k] = 0.5 * t.setpoint ** 2 \
                    if t.mode is Mode.V_BUS else t.setpoint
        for arr in (pv, pv_rows, pv_v2, s_conj, setpoint):
            arr.setflags(write=False)
        for name, val in (("n_bus", n_bus), ("n_currents", n_currents),
                          ("size", 2 * (n_bus + n_currents)), ("pv_idx", pv),
                          ("pv_rows", pv_rows), ("pv_v2", pv_v2),
                          ("s_conj", s_conj), ("setpoint", setpoint)):
            object.__setattr__(self, name, val)

    @property
    def slack(self) -> np.ndarray:
        return self.structure.slack

    @property
    def yc(self) -> sparse.csr_matrix:
        return self.structure.yc

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
    def rows(self) -> "DeviceRows":
        return _device_rows(self.structure, tuple(
            tuple((t.mode, t.branch, dev.target_bus(t)) for t in dev.targets)
            for dev in self.devices))

    @cached_property
    def pattern(self) -> "JacobianPattern":
        """The Jacobian's pattern, shared through a bounded memo by every
        System with this structure, PV mask and device rows."""
        return _jacobian_pattern(self.structure, self.rows, self.pv.tobytes())


def build_system(base_net: Network, devices=(), *,
                 frozen_q: dict | None = None) -> System:
    """Assemble one pass's solve structure for ``devices`` in ``base_net``.

    The splice and ``[Y C]`` depend only on the case and the device
    placement (branches, coupling impedances), so they come from a
    memoised :class:`Structure`; a pass adds only the bus kinds, the
    injections and the devices with their targets.

    ``frozen_q`` (ext id -> p.u.) holds the constant-Q buses: every PV bus
    listed there becomes a fixed-injection bus with that reactive output;
    an entry for a bus the case lacks, or for one that is not PV, is a
    ``ValueError``.
    A PV sending bus loses its voltage regulation to the device and becomes
    a fixed-injection bus too, at its gen-table output unless listed.  A
    slack sending bus, or a voltage target on an unknown bus or on one that
    is already regulated or held by another voltage target, is an error.
    """
    frozen_q = dict(frozen_q or {})
    st = _structure(base_net, tuple(
        (tuple(map(tuple, dev.branches)), tuple(dev.z_se)) for dev in devices))
    idx = st.net.index_of
    pv = st.pv.copy()
    s_inj = st.s_inj.copy()
    for ext, q in frozen_q.items():
        b = idx.get(ext)
        if b is None or st.net.buses[b].kind is not BusKind.PV:
            raise ValueError(f"frozen_q: bus {ext} is not a PV bus of the "
                             "case")
        pv[b] = False
        s_inj[b] = complex(s_inj[b].real, q - st.net.buses[b].q_load)
    regulated = pv | st.slack

    held = {}       # bus ext id -> the device whose V_BUS target holds it
    for dev in devices:
        sending = dev.branches[0][0]
        if st.slack[idx[sending]]:
            raise TopologyError(f"device {dev.device_id}: sending bus "
                                f"{sending} is the slack")
        for bus_ext in (dev.target_bus(t) for t in dev.targets
                        if t.mode is Mode.V_BUS):
            if bus_ext not in idx:
                raise DeviceConfigError(
                    f"{dev.device_id}: unknown target bus {bus_ext}")
            if regulated[idx[bus_ext]]:
                raise DeviceConfigError(
                    f"{dev.device_id}: bus {bus_ext} magnitude is already "
                    "regulated")
            if bus_ext in held:
                raise DeviceConfigError(
                    f"{dev.device_id}: bus {bus_ext} magnitude is already "
                    f"held by a v_bus target of {held[bus_ext]}")
            held[bus_ext] = dev.device_id

    return System(structure=st, frozen_q=frozen_q, s_inj=s_inj,
                  devices=tuple(devices), pv=pv,
                  v_set=np.where(regulated, st.v_set, 0))


@lru_cache(maxsize=8)
def _structure(base_net: Network, placement: tuple) -> Structure:
    """Splice the placed devices, given as (branches, z_se) pairs, into
    ``base_net`` and build what every pass shares."""
    net = base_net
    aux_ids = []
    for branches, z_se in placement:
        net, aux = insert_series_device(net, branches, z_se)
        aux_ids.append(aux)
    idx = net.index_of
    n = net.n_bus
    entries = []
    cur = 0
    for (branches, _), aux in zip(placement, aux_ids):
        entries.append(tuple(
            BranchEntry(i_idx=idx[i], m_idx=idx[m], cur_idx=c, j_ext=j)
            for c, ((i, j), m) in enumerate(zip(branches, aux), cur)))
        cur += len(branches)
    inc_rows = [k for bentries in entries for be in bentries
                for k in (be.i_idx, be.m_idx)]
    incidence = sparse.csr_matrix(
        (np.tile([1.0, -1.0], cur),
         (np.array(inc_rows, dtype=np.intp), np.repeat(np.arange(cur), 2))),
        shape=(n, cur))
    yc = sparse.hstack([build_admittance_matrix(net), incidence],
                       format="csr")
    yc.sort_indices()

    displaced = {bentries[0].i_idx for bentries in entries}
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
    q_load, q_min, q_max = (np.array([getattr(b, f) for b in net.buses])
                            for f in ("q_load", "q_min", "q_max"))
    slack_idx = np.flatnonzero(slack)
    st = Structure(
        net=net, yc=yc, branches=tuple(entries), slack=slack, pv=pv,
        s_inj=s_inj, v_set=v_set, slack_idx=slack_idx,
        slack_rows=np.stack([2 * slack_idx, 2 * slack_idx + 1], 1).ravel(),
        slack_v=v_set[slack_idx], t_rows=t_rows,
        t_diag=np.flatnonzero(t_rows == yc.indices),
        q_load=q_load, q_min=q_min, q_max=q_max)
    for arr in (yc.data, yc.indices, yc.indptr, slack, pv, s_inj, v_set,
                slack_idx, st.slack_rows, st.slack_v, t_rows, st.t_diag,
                q_load, q_min, q_max):
        arr.setflags(write=False)
    return st


def pack_state(V: np.ndarray, I: np.ndarray) -> np.ndarray:
    """The real unknown vector: the float view of ``z = [V; I]``."""
    return np.concatenate([V, I], dtype=complex).view(float)


def unpack_state(x: np.ndarray, n_bus: int):
    """(V, I) of a real unknown vector, as views into it."""
    z = x.view(complex)
    return z[:n_bus], z[n_bus:]


@dataclass(frozen=True, eq=False)
class DeviceRows:
    """The device rows of a target layout, by shape, as index arrays.

    Row k of the device block is residual row ``2 n_bus + k``, less its
    setpoint.  Product rows are Re or Im of ``u conj(I) / |I|**p``, with I
    a branch current: first the exchange-like rows, ``u = V_m - V_i``, then
    the flow rows, ``u = V_i``.  V_BUS rows are ``|V_b|**2 / 2``.
    :data:`~ffheflow.devices.MODE_ROWS` gives each target's shape; each
    branch adds one exchange-like row, its share of its device's real power
    exchange, at the device's first row: ``2 * cur_idx`` of its first
    branch, as each earlier device has two rows per branch.  Companion rows
    (p > 0: V_SE, X_EQ) also need the reciprocal and magnitude series of
    their current in the history.  Shared, so read-only (:func:`_device_rows`).
    """

    row: np.ndarray     # product rows: device-block row (shares repeat it)
    im: np.ndarray      # the row is the imaginary part
    a: np.ndarray       # state index of V_m (exchange-like) or V_i (flow)
    b: np.ndarray       # state index of V_i, exchange-like rows only
    c: np.ndarray       # state index of the current
    pow: np.ndarray     # divisor power p
    z: np.ndarray       # the companion rows among them,
    companions: np.ndarray  # their current numbers,
    vse: np.ndarray     # and the V_SE ones (p = 1) among the companions
    v_row: np.ndarray   # V_BUS rows: device-block row and bus
    v_bus: np.ndarray


@lru_cache(maxsize=32)
def _device_rows(st: Structure, layout: tuple) -> DeviceRows:
    """The device rows on ``st`` of ``layout``: per device, each target's
    mode, branch and ``target_bus``."""
    n = st.net.n_bus
    recs = {"exchange": [], "flow": [], "v_bus": []}
    for targets, branches in zip(layout, st.branches):
        k = 2 * branches[0].cur_idx
        recs["exchange"] += [(k, 0, 0, n + be.cur_idx, be.m_idx, be.i_idx, 0)
                             for be in branches]
        for k, (mode, branch, bus) in enumerate(targets, k + 1):
            shape, im, p = MODE_ROWS[mode]
            be = branches[branch]
            a = be.m_idx if shape == "exchange" else be.i_idx
            b = st.net.index_of[bus] if shape == "v_bus" else 0
            recs[shape].append((k, im, p, n + be.cur_idx, a, be.i_idx, b))
    x, f, v = (np.array(r, dtype=np.intp).reshape(-1, 7).T
               for r in recs.values())
    row, im, p, c, a = np.concatenate([x[:5], f[:5]], axis=1)
    z = np.flatnonzero(p)
    rows = DeviceRows(row=row, im=im == 1, a=a, b=x[5], c=c, pow=p, z=z,
                      companions=c[z] - n, vse=np.flatnonzero(p[z] == 1),
                      v_row=v[0], v_bus=v[6])
    for arr in vars(rows).values():
        arr.setflags(write=False)
    return rows


def residual(sys: System, V: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Real residual vector of the original (unembedded) equations."""
    st, n2 = sys.structure, 2 * sys.n_bus
    r = np.empty(sys.size)
    z = np.concatenate([V, I])
    f = r[:n2].view(complex)        # the bus rows, as (re, im) pairs of r
    np.conjugate(V, out=f)
    f *= st.yc @ z
    f -= sys.s_conj
    pv = sys.pv_idx
    r[sys.pv_rows] = 0.5 * (np.abs(V[pv]) ** 2 - sys.pv_v2)
    r[st.slack_rows] = (V[st.slack_idx] - st.slack_v).view(float)

    rows = sys.rows
    if rows.row.size:
        u, c = z[rows.a], z[rows.c]
        u[:rows.b.size] -= z[rows.b]
        ur, ui, cr, ci = u.real, u.imag, c.real, c.imag
        prod = np.where(rows.im, ui * cr - ur * ci, ur * cr + ui * ci)
        if rows.z.size:
            prod /= np.float_power(np.hypot(cr, ci), rows.pow)
        dev = np.bincount(rows.row, prod, minlength=sys.setpoint.size)
        if rows.v_row.size:
            vb = V[rows.v_bus]
            mag = np.hypot(vb.real, vb.imag)
            dev[rows.v_row] = 0.5 * np.float_power(mag, 2)
        np.subtract(dev, sys.setpoint, out=r[n2:])
    return r


@dataclass(frozen=True, eq=False)
class JacobianPattern:
    """Fixed CSC pattern of a Jacobian, and SuperLU's order for it.

    :func:`jacobian` computes its values as one vector in a fixed triplet
    order; ``scatter`` maps each value to its slot in the CSC ``data``,
    where duplicates are summed in triplet order.

    The device rows (:class:`DeviceRows`) are complex terms
    ``a du + b d(conj u)``: a product row has terms at u's buses and at I,
    divided by ``|I|**p``, and a companion row one more at I for the
    divisor's own derivative; a V_BUS row has one term at its bus.

    SuperLU's column order (COLAMD, then the elimination tree's postorder)
    depends on the pattern alone, so it is computed once, here, and
    :func:`lu_factor` hands SuperLU each Jacobian as ``P J P^T``, whose
    diagonal, the pivots SuperLU prefers, is J's.  ``perm_c`` is SuperLU's
    own: row and column j of J go to position ``perm_c[j]``.  ``csc`` and
    ``lu_csc`` hold the index arrays of J and of ``P J P^T``;
    :func:`jacobian` and :func:`lu_factor` give shallow copies of them
    their values (:func:`_csc`).  Built by :func:`_jacobian_pattern`, which
    memoises it; its arrays are read-only.
    """

    bus_take: np.ndarray    # the bus triplets' values in the float view of
                            # [a + b; a - b]: Re(a+b), Im(a-b) of the
                            # n_re triplets with a real row (every bus but
                            # the slack), then Im(a+b), Re(a-b) of those
    n_re: int               # with an imaginary row (PQ, auxiliary)
    pv_take: np.ndarray     # Re, then Im of the PV voltages in z's float view
    d_im: np.ndarray    # per device term: its row is an imaginary part
    scatter: np.ndarray  # triplet -> slot in data
    csc: sparse.csc_matrix  # the pattern, with zero values
    perm_c: np.ndarray  # SuperLU's column order, for rows and columns:
    order: np.ndarray   # J's index at each position (``perm_c``'s inverse),
    take: np.ndarray    # the slots of ``data`` in P J P^T's order,
    lu_csc: sparse.csc_matrix   # and P J P^T's pattern, zero-valued


@lru_cache(maxsize=32)
def _jacobian_pattern(st: Structure, rows: DeviceRows,
                      pv_mask: bytes) -> JacobianPattern:
    """The pattern of a System on ``st`` with ``rows`` and the PV mask
    ``pv_mask``, as bytes so that equal masks share it."""
    pv_mask = np.frombuffer(pv_mask, dtype=bool)
    row, b, c, z = rows.row, rows.b, rows.c, rows.z
    n, size = st.net.n_bus, 2 * st.yc.shape[1]
    nx = b.size
    d_rows = 2 * n + np.concatenate([row, row[:nx], row, rows.v_row, row[z]])
    d_cols = np.concatenate([rows.a, b, c, rows.v_bus, c[z]])
    d_im = np.concatenate([rows.im, rows.im[:nx], rows.im,
                           np.zeros(rows.v_row.size + z.size, dtype=bool)])

    tr, tc = st.t_rows, st.yc.indices
    re = np.flatnonzero(~st.slack[tr])
    im = np.flatnonzero(~(pv_mask | st.slack)[tr])    # PQ and auxiliary
    pv = np.flatnonzero(pv_mask)
    slack = st.slack_idx
    all_rows = np.concatenate([
        2 * tr[re], 2 * tr[re], 2 * tr[im] + 1, 2 * tr[im] + 1,
        2 * pv + 1, 2 * pv + 1, 2 * slack, 2 * slack + 1, d_rows, d_rows])
    all_cols = np.concatenate([
        2 * tc[re], 2 * tc[re] + 1, 2 * tc[im], 2 * tc[im] + 1,
        2 * pv, 2 * pv + 1, 2 * slack, 2 * slack + 1,
        2 * d_cols, 2 * d_cols + 1])
    slots, scatter = np.unique(all_cols * size + all_rows, return_inverse=True)
    indices = (slots % size).astype(np.int32)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(slots // size, minlength=size), out=indptr[1:])

    perm_c = _column_order(indices, indptr)
    order = np.argsort(perm_c)      # J's index at each position
    lu_indptr = np.zeros_like(indptr)
    np.cumsum(np.diff(indptr)[order], out=lu_indptr[1:])
    # J's stored entries sorted by their column's, then their row's position
    lu_rows = perm_c[indices]
    take = np.argsort(perm_c[slots // size].astype(np.intp) * size
                      + lu_rows).astype(np.int32)
    nnz = tr.size
    bus_take = np.concatenate([2 * re, 2 * (nnz + re) + 1, 2 * im + 1,
                               2 * (nnz + im)])
    pv_take = np.concatenate([2 * pv, 2 * pv + 1])
    lu_indices, zeros = lu_rows[take], np.zeros(indices.size)
    for arr in (bus_take, pv_take, d_im, scatter, indices, indptr, perm_c,
                order, take, lu_indices, lu_indptr, zeros):
        arr.setflags(write=False)
    return JacobianPattern(
        bus_take=bus_take, n_re=re.size, pv_take=pv_take, d_im=d_im,
        scatter=scatter, csc=_template(zeros, indices, indptr),
        perm_c=perm_c, order=order, take=take,
        lu_csc=_template(zeros, lu_indices, lu_indptr))


def _template(zeros, indices, indptr) -> sparse.csc_matrix:
    """A square CSC matrix on the given (canonical) index arrays, with the
    values ``zeros``: the matrix that :func:`_csc` copies."""
    size = indptr.size - 1
    out = sparse.csc_matrix((zeros, indices, indptr), shape=(size, size))
    out.sum_duplicates()    # finds them canonical and records it, so that
    return out              # splu's own call is a no-op on every copy


def _column_order(indices, indptr) -> np.ndarray:
    """SuperLU's default column order for a CSC pattern: COLAMD, then the
    elimination tree's postorder, both of which read only the pattern.  So
    it is taken from ``splu`` of the pattern filled with random values,
    which are nonsingular unless the pattern is structurally singular.  A
    pattern whose every Jacobian is singular keeps its natural order.
    :func:`lu_factor` orders J's rows by it too; ``MMD_AT_PLUS_A``, an
    order for ``J + J^T``, gives less fill but was no faster on case118
    (``notes/decisions.md``, "SuperLU options")."""
    size = indptr.size - 1
    values = np.random.default_rng(0).uniform(1.0, 2.0, indices.size)
    try:
        lu = splu(sparse.csc_matrix((values, indices, indptr),
                                    shape=(size, size)))
    except RuntimeError:
        return np.arange(size, dtype=np.int32)
    return lu.perm_c.copy()     # a view would keep the factor alive


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
    z = np.concatenate([V, I])
    a = np.conj(V)[st.t_rows] * st.yc.data
    pq = np.concatenate([a, a])         # a + b, then a - b
    w = st.yc @ z
    p, q = pq[:a.size], pq[a.size:]
    p[st.t_diag] += w
    q[st.t_diag] -= w
    # the values in triplet order: bus, PV, slack, then device triplets
    vals = np.empty(pat.scatter.size)
    nb, n_re, m = pat.bus_take.size, pat.n_re, pat.d_im.size
    pv_end, dev = nb + pat.pv_take.size, vals.size - 2 * m
    np.take(pq.view(float), pat.bus_take, out=vals[:nb])
    np.negative(vals[n_re:2 * n_re], out=vals[n_re:2 * n_re])
    np.take(z.view(float), pat.pv_take, out=vals[nb:pv_end])
    vals[pv_end:dev] = 1.0
    if m:
        da, db = _device_terms(sys.rows, z)
        dp, dq = da + db, da - db
        vals[dev:dev + m] = np.where(pat.d_im, dp.imag, dp.real)
        vals[dev + m:] = np.where(pat.d_im, dq.real, -dq.imag)
    data = np.bincount(pat.scatter, weights=vals, minlength=pat.take.size)
    return _csc(pat.csc, data)


def _device_terms(rows: DeviceRows, z):
    """(a, b) of the device rows' complex terms at z, in pattern order.

    As in :func:`residual`, written-out products, ``np.hypot`` and
    ``np.float_power`` round like the scalar ``*``, ``abs`` and ``**``.
    """
    nx = rows.b.size
    u, c = z[rows.a], z[rows.c]
    u[:nx] -= z[rows.b]
    cI = np.conj(c)
    scale = np.float_power(np.hypot(c.real, c.imag), rows.pow)
    cIs = cI / scale
    zp = np.zeros(rows.row.size + nx)
    vb = 0.5 * z[rows.v_bus]
    a = [cIs, -cIs[:nx], zp[:c.size], np.conj(vb)]
    b = [zp, u / scale, vb]
    if rows.z.size:
        # the divisor's derivative: q = Im(u conj I) over 2|I|^3 or |I|^4
        dz, cz, pz = u[rows.z], cI[rows.z], rows.pow[rows.z]
        q = dz.real * cz.imag + dz.imag * cz.real
        den = np.float_power(scale[rows.z], 4 - pz) * (2 / pz)
        a.append(-q * cz / den)
        b.append(-q * np.conj(cz) / den)
    return np.concatenate(a), np.concatenate(b)


def _csc(template: sparse.csc_matrix, data: np.ndarray) -> sparse.csc_matrix:
    """A CSC matrix with ``template``'s (read-only) index arrays and
    ``data`` as its values.  It is a shallow copy of the template, so it
    also takes over the template's canonical-format flags and skips the
    constructor's checks of the index arrays."""
    out = copy.copy(template)
    out.data = data
    return out


def lu_factor(J: sparse.csc_matrix, pattern: JacobianPattern):
    """SuperLU factorisation of a Jacobian from :func:`jacobian` with the
    given ``pattern``, as a handle for :func:`lu_solve`.

    SuperLU factorises ``P J P^T``, J's rows and columns both in the
    pattern's order, with ``permc_spec="NATURAL"`` so that the ordering is
    not recomputed per Jacobian, and keeps a diagonal pivot down to
    :data:`DIAG_PIVOT_THRESH` of its column's largest entry (KLU's
    threshold partial pivoting).  It runs column by column
    (``panel_size=1``) with no relaxed supernodes (``relax=1``), which the
    factors are too sparse to repay.  On case118 the symmetric order and
    the threshold cut ``splu``'s time by two fifths and the fill by a
    fifth (``notes/decisions.md``, "SuperLU options").
    Raises ``np.linalg.LinAlgError`` when the matrix is exactly singular.
    """
    try:
        return (splu(_csc(pattern.lu_csc, J.data[pattern.take]),
                     permc_spec="NATURAL", diag_pivot_thresh=DIAG_PIVOT_THRESH,
                     panel_size=1, relax=1),
                pattern)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(str(exc)) from None


def lu_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with a factorisation from :func:`lu_factor`: the right-hand
    side is gathered into the pattern's order, and the permuted system's
    solution put back in J's order."""
    factor, pattern = lu
    return factor.solve(rhs[pattern.order])[pattern.perm_c]
