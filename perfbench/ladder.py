"""Seeded ladder network: tiled copies of case118 joined by tie lines.

A rough version of the synthetic-grid construction of Birchfield et al.,
"Grid structural characteristics as validation criteria for synthetic
networks" (IEEE TPWRS 2017): copy k of case118 gets bus ids
``k * ID_STRIDE + id``; copies k and k + 1 are joined by two tie lines (the
rungs of the ladder).  Only copy 0 keeps its slack; the slack bus of every
other copy becomes a voltage-regulating generator with its gen-table
dispatch, so the tiled case stays close to balanced.  Each copy carries one
SSSC whose target the seed draws from the 12 single-converter acceptance
targets.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from scenarios import SSSC_TARGETS, device_records

TILES = 8
#: buses of the base case (case118)
BASE_BUSES = 118
ID_STRIDE = 1000
#: (bus in copy k, bus in copy k + 1) for each tie line
TIE_BUSES = ((33, 33), (97, 97))
TIE_R, TIE_X = 0.005, 0.05


class LadderError(RuntimeError):
    """The tiled network fails a structural or convergence check."""


def tile_case(ff, base):
    """:data:`TILES` copies of ``base`` joined by tie lines, as one Network.

    ``ff`` is the imported ``ffheflow`` package.
    """
    Branch, BusKind = ff.Branch, ff.BusKind
    buses, branches = [], []
    for k in range(TILES):
        off = k * ID_STRIDE
        for b in base.buses:
            kind = b.kind
            if kind is BusKind.SLACK and k > 0:
                kind = BusKind.PV
            buses.append(replace(b, ext_id=b.ext_id + off, kind=kind))
        for br in base.branches:
            branches.append(replace(br, from_bus=br.from_bus + off,
                                    to_bus=br.to_bus + off))
        if k + 1 < TILES:
            for a, b in TIE_BUSES:
                branches.append(Branch(from_bus=a + off,
                                       to_bus=b + off + ID_STRIDE,
                                       resistance=TIE_R, reactance=TIE_X))
    return ff.Network(buses=tuple(buses), branches=tuple(branches),
                      base_mva=base.base_mva, name=f"ladder{TILES}x{base.name}")


def draw_targets(seed: int) -> list:
    """SSSC acceptance-target labels, one per copy, drawn by ``seed``."""
    return random.Random(seed).sample(sorted(SSSC_TARGETS), TILES)


def ladder_devices(ff, labels) -> tuple:
    """One SSSC per copy, on that copy's branch for the drawn target."""
    records = []
    for k, label in enumerate(labels):
        records += device_records(label, offset=k * ID_STRIDE, suffix=str(k))
    return tuple(ff.load_devices(json.dumps(records)))


def check_ladder(ff, net) -> None:
    """Raise :class:`LadderError` unless ``net`` is a valid ladder.

    Checks: ``TILES * BASE_BUSES`` buses, exactly one slack, every bus
    reachable from the slack, and the device-free case converging under
    Newton.
    """
    if net.n_bus != TILES * BASE_BUSES:
        raise LadderError(f"{net.n_bus} buses, expected "
                          f"{TILES * BASE_BUSES}")
    slacks = [b.ext_id for b in net.buses if b.kind is ff.BusKind.SLACK]
    if len(slacks) != 1:
        raise LadderError(f"expected one slack bus, found {slacks}")
    adj = {b.ext_id: [] for b in net.buses}
    for br in net.branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    seen = {slacks[0]}
    stack = [slacks[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != net.n_bus:
        raise LadderError(f"{net.n_bus - len(seen)} buses unreachable "
                          "from the slack")
    try:
        ff.run_study(net, (), ff.StudyOptions(method="nr"))
    except (ff.ConvergenceError, ff.StudyError) as exc:
        raise LadderError(f"device-free ladder does not converge: "
                          f"{exc}") from exc
