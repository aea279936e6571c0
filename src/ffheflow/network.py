"""Network model: case ingestion, admittance matrix, series-device splicing.

Buses are stored with their external (case file) ids but indexed internally
by dense position.  Auxiliary buses created for series devices are appended
after all original buses, so original internal indices stay stable.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse


class ParseError(ValueError):
    """Malformed case or device-config text."""


class TopologyError(ValueError):
    """Structurally invalid network (slack count, missing branch, ...)."""


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"
    AUXILIARY = "aux"


@dataclass(frozen=True)
class Bus:
    ext_id: int
    kind: BusKind
    p_load: float = 0.0       # p.u. on system base
    q_load: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0        # from the gen table; PV buses solve their own Q
    v_setpoint: float = 1.0   # slack / PV only
    angle_setpoint: float = 0.0   # slack only, radians
    shunt_g: float = 0.0
    shunt_b: float = 0.0
    q_min: float = -np.inf    # aggregate generator reactive capability
    q_max: float = np.inf


@dataclass(frozen=True)
class Branch:
    from_bus: int             # external ids
    to_bus: int
    resistance: float
    reactance: float
    charging_b: float = 0.0
    tap: complex = 1.0 + 0.0j

    @property
    def series_impedance(self) -> complex:
        return complex(self.resistance, self.reactance)


@dataclass(frozen=True)
class Network:
    """A case, compared and hashed by content.  Being frozen, it computes
    its hash and :attr:`index_of` once, on first use."""

    buses: tuple
    branches: tuple
    base_mva: float
    name: str = ""

    def __post_init__(self):
        slacks = [b for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) != 1:
            raise TopologyError(
                f"expected exactly one slack bus, found {len(slacks)}")

    def __hash__(self) -> int:
        return self._content_hash

    @cached_property
    def _content_hash(self) -> int:
        return hash((self.buses, self.branches, self.base_mva, self.name))

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @cached_property
    def index_of(self) -> dict:
        """External bus id -> internal index.  Shared; do not modify."""
        return {b.ext_id: i for i, b in enumerate(self.buses)}

    def bus(self, ext_id: int) -> Bus:
        return self.buses[self.index_of[ext_id]]

    def find_branch(self, i: int, j: int) -> int:
        """Index of the first in-service branch between external ids i and j."""
        for idx, br in enumerate(self.branches):
            if (br.from_bus, br.to_bus) in ((i, j), (j, i)):
                return idx
        raise TopologyError(f"no branch between buses {i} and {j}")


_MATRIX_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)
_SCALAR_RE = re.compile(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;")

_BUS_KIND = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}


def _read_table(name: str, body: str) -> list:
    rows = []
    for lineno, line in enumerate(body.strip().splitlines(), start=1):
        line = line.split("%")[0].strip().rstrip(";")
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"table {name!r}, row {lineno}: {exc}") from None
    return rows


def parse_case(text: str, name: str = "") -> Network:
    """Parse a MATPOWER-style case body into a per-unit :class:`Network`.

    A bus of type 2 (PV) with no in-service generator is read as PQ, as
    MATPOWER's ``bustypes`` does.

    Memoised on ``(text, name)`` (the 8 most recent): equal text and name
    give the same :class:`Network` instance, so studies of a re-read case
    hit the study memos by identity.  The result is shared; do not modify
    it.  A parse error is raised on every call, not memoised.
    """
    return _parse_case(text, name)


@lru_cache(maxsize=8)
def _parse_case(text: str, name: str) -> Network:
    m = _SCALAR_RE.search(text)
    if m is None:
        raise ParseError("missing mpc.baseMVA")
    base = float(m.group(1))

    tables = {name_: _read_table(name_, body)
              for name_, body in _MATRIX_RE.findall(text)}
    for required in ("bus", "gen", "branch"):
        if required not in tables:
            raise ParseError(f"missing mpc.{required} table")

    gen_p: dict = {}
    gen_q: dict = {}
    gen_v: dict = {}
    gen_qmin: dict = {}
    gen_qmax: dict = {}
    for row in tables["gen"]:
        if len(row) < 8:
            raise ParseError("gen row too short")
        if row[7] <= 0:       # out of service
            continue
        bus = int(row[0])
        gen_p[bus] = gen_p.get(bus, 0.0) + row[1] / base
        gen_q[bus] = gen_q.get(bus, 0.0) + row[2] / base
        gen_qmax[bus] = gen_qmax.get(bus, 0.0) + row[3] / base
        gen_qmin[bus] = gen_qmin.get(bus, 0.0) + row[4] / base
        gen_v.setdefault(bus, row[5])

    buses = []
    for row in tables["bus"]:
        if len(row) < 9:
            raise ParseError("bus row too short")
        ext_id, btype = int(row[0]), int(row[1])
        if btype == 4:        # isolated, not supported
            raise TopologyError(f"bus {ext_id} is isolated")
        if btype not in _BUS_KIND:
            raise ParseError(f"bus {ext_id}: unknown type {btype}")
        kind = _BUS_KIND[btype]
        if kind is BusKind.PV and ext_id not in gen_v:
            kind = BusKind.PQ
        vset = gen_v.get(ext_id, row[7] if len(row) > 7 else 1.0)
        buses.append(Bus(
            ext_id=ext_id,
            kind=kind,
            p_load=row[2] / base,
            q_load=row[3] / base,
            p_gen=gen_p.get(ext_id, 0.0),
            q_gen=gen_q.get(ext_id, 0.0),
            v_setpoint=vset,
            angle_setpoint=np.deg2rad(row[8]) if kind is BusKind.SLACK else 0.0,
            shunt_g=row[4] / base,
            shunt_b=row[5] / base,
            q_min=gen_qmin.get(ext_id, -np.inf),
            q_max=gen_qmax.get(ext_id, np.inf),
        ))

    seen = set()
    for b in buses:
        if b.ext_id in seen:
            raise ParseError(f"duplicate bus id {b.ext_id}")
        seen.add(b.ext_id)

    branches = []
    for row in tables["branch"]:
        if len(row) < 4:
            raise ParseError("branch row too short")
        status = row[10] if len(row) > 10 else 1.0
        if status <= 0:
            continue
        i, j = int(row[0]), int(row[1])
        if i == j:
            raise ParseError(f"branch {i}-{j}: self loop")
        if i not in seen or j not in seen:
            raise ParseError(f"branch {i}-{j}: unknown bus")
        r, x = row[2], row[3]
        if r == 0.0 and x == 0.0:
            raise ParseError(f"branch {i}-{j}: zero series impedance")
        ratio = row[8] if len(row) > 8 and row[8] != 0.0 else 1.0
        shift = np.deg2rad(row[9]) if len(row) > 9 else 0.0
        branches.append(Branch(
            from_bus=i, to_bus=j,
            resistance=r, reactance=x,
            charging_b=row[4] if len(row) > 4 else 0.0,
            tap=ratio * np.exp(1j * shift),
        ))

    return Network(buses=tuple(buses), branches=tuple(branches),
                   base_mva=base, name=name)


def build_admittance_matrix(net: Network) -> sparse.csr_matrix:
    """Sparse (CSR) bus admittance matrix in p.u. (internal index order).

    Every diagonal entry is stored, an explicit zero where a bus has neither
    branches nor shunt, so the diagonal is part of the sparsity pattern.
    """
    n = net.n_bus
    idx = net.index_of
    f = np.array([idx[br.from_bus] for br in net.branches], dtype=np.intp)
    t = np.array([idx[br.to_bus] for br in net.branches], dtype=np.intp)
    z = np.array([br.series_impedance for br in net.branches], dtype=complex)
    bad = np.flatnonzero(z == 0)
    if bad.size:
        br = net.branches[bad[0]]
        raise TopologyError(
            f"branch {br.from_bus}-{br.to_bus}: zero series impedance")
    ys = 1.0 / z
    bc = 0.5j * np.array([br.charging_b for br in net.branches])
    tap = np.array([br.tap for br in net.branches], dtype=complex)
    shunt = np.array([complex(b.shunt_g, b.shunt_b) for b in net.buses])
    diag = np.arange(n)
    rows = np.concatenate([f, t, f, t, diag])
    cols = np.concatenate([f, t, t, f, diag])
    vals = np.concatenate([(ys + bc) / (tap * np.conj(tap)), ys + bc,
                           -ys / np.conj(tap), -ys / tap, shunt])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def insert_series_device(net: Network, branch_ends, z_se):
    """Splice a series device into one or more branches of ``net``.

    ``branch_ends`` is a list of (i, j) external-id pairs sharing the sending
    bus i; ``z_se`` one coupling impedance per branch.  Each branch i-j is
    taken out of the admittance matrix and replaced by an auxiliary bus m and
    a branch m-j whose impedance is the line's in series with the coupling
    transformer's.  An off-nominal tap stays on its side: a branch listed
    j->i with tap t becomes m->j with tap 1/t and impedance z |t|^2, which
    presents the same admittances between i and j.  Line charging stays at
    the original electrical ends as shunts at buses i and j, the tap side's
    half scaled by 1/|t|^2.

    Returns ``(new_net, aux_ids)``: the external ids of the auxiliary buses,
    one per branch in order, appended after every bus of ``net``.
    """
    branch_ends = [tuple(be) for be in branch_ends]
    z_se = [complex(z) for z in z_se]
    if len(z_se) != len(branch_ends):
        raise ValueError("one coupling impedance per branch required")
    sending = branch_ends[0][0]
    if any(be[0] != sending for be in branch_ends):
        raise TopologyError("all device branches must share the sending bus")
    if net.bus(sending).kind is BusKind.AUXILIARY:
        raise TopologyError(f"device stacking on bus {sending}")

    buses = list(net.buses)
    branches = list(net.branches)
    next_id = max(b.ext_id for b in buses) + 1
    aux_ids = []

    for (i, j), z_c in zip(branch_ends, z_se):
        bidx = net.find_branch(i, j)
        br = branches[bidx]
        if br is None:
            raise TopologyError(f"device stacking on branch {i}-{j}")
        branches[bidx] = None
        tap, z_line = br.tap, br.series_impedance
        half_b = {i: br.charging_b / 2.0, j: br.charging_b / 2.0}
        if tap != 1.0:
            half_b[br.from_bus] /= abs(tap) ** 2
            if br.from_bus != i:       # listed j->i: the tap is on the j side
                tap, z_line = 1.0 / tap, z_line * abs(tap) ** 2
        z_new = z_line + z_c
        aux = next_id
        next_id += 1
        aux_ids.append(aux)
        buses.append(Bus(ext_id=aux, kind=BusKind.AUXILIARY))
        # half-charging of the removed branch goes back to its physical ends
        for end in (i, j):
            k = net.index_of[end]
            buses[k] = replace(buses[k], shunt_b=buses[k].shunt_b + half_b[end])
        branches.append(Branch(
            from_bus=aux, to_bus=j,
            resistance=z_new.real, reactance=z_new.imag,
            charging_b=0.0, tap=tap))

    new_net = Network(
        buses=tuple(buses),
        branches=tuple(b for b in branches if b is not None),
        base_mva=net.base_mva, name=net.name)
    return new_net, tuple(aux_ids)
