"""Shared fixtures: the bundled 118-bus case and random small systems."""

from __future__ import annotations

import numpy as np
import pytest

from ffheflow import cli, load_bundled_case, network, report, system
from ffheflow.devices import ControlTarget, Mode, SsscDevice, branch_outputs
from ffheflow.network import Branch, Bus, BusKind, Network
from ffheflow.newton import nr_solve
from ffheflow.system import build_system


@pytest.fixture(scope="session")
def case118():
    return load_bundled_case()


def clear_memos():
    """Empty the memos: the parsed cases, the device-free pre-solve, the
    per-placement structure, the device rows and the Jacobian patterns.
    Stop the batch workers too, so that the next batch forks new ones from
    this process, with its patches and without another test's memos."""
    cli.shutdown_workers()
    network._parse_case.cache_clear()
    report._base_solution.cache_clear()
    system._structure.cache_clear()
    system._device_rows.cache_clear()
    system._jacobian_pattern.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """Start every test with empty memos, so no test sees what another
    left."""
    clear_memos()


def random_network(rng: np.random.Generator, n_bus: int | None = None,
                   allow_pv: bool = True) -> Network:
    """A small random connected network with one slack bus."""
    n = n_bus or int(rng.integers(2, 7))
    buses = []
    for b in range(1, n + 1):
        if b == 1:
            buses.append(Bus(ext_id=1, kind=BusKind.SLACK,
                             v_setpoint=1.0 + 0.05 * rng.uniform(-1, 1)))
        elif allow_pv and n > 2 and b == 2 and rng.uniform() < 0.4:
            buses.append(Bus(ext_id=b, kind=BusKind.PV,
                             p_gen=float(rng.uniform(0.0, 0.4)),
                             p_load=float(rng.uniform(0.0, 0.2)),
                             v_setpoint=1.0 + 0.05 * rng.uniform(-1, 1)))
        else:
            buses.append(Bus(ext_id=b, kind=BusKind.PQ,
                             p_load=float(rng.uniform(-0.2, 0.3)),
                             q_load=float(rng.uniform(-0.1, 0.15)),
                             shunt_b=float(rng.uniform(0.0, 0.05))))
    branches = []
    for b in range(2, n + 1):   # spanning tree: attach to a lower-id bus
        other = int(rng.integers(1, b))
        branches.append(_random_branch(rng, other, b))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        branches.append(_random_branch(rng, int(i), int(j)))
    return Network(buses=tuple(buses), branches=tuple(branches),
                   base_mva=100.0, name="random")


def _random_branch(rng, i, j) -> Branch:
    tap = 1.0 + 0.0j
    if rng.uniform() < 0.2:
        tap = float(rng.uniform(0.9, 1.1)) * \
            np.exp(1j * rng.uniform(-0.05, 0.05))
    return Branch(from_bus=i, to_bus=j,
                  resistance=float(rng.uniform(0.005, 0.05)),
                  reactance=float(rng.uniform(0.03, 0.25)),
                  charging_b=float(rng.uniform(0.0, 0.04)),
                  tap=tap)


def random_sssc_study(rng: np.random.Generator, max_tries: int = 40):
    """A random solvable small network with one SSSC in a random mode.

    The setpoint is a mild perturbation of the uncontrolled value of the
    targeted quantity, so the controlled problem stays well posed.  Returns
    ``(network, device)``.
    """
    for _ in range(max_tries):
        net = random_network(rng, allow_pv=False)
        if net.n_bus < 3:
            continue
        try:
            base = nr_solve(build_system(net))
        except Exception:
            continue
        # candidate branches whose ends are both non-slack
        cands = [br for br in net.branches
                 if net.bus(br.from_bus).kind is BusKind.PQ
                 and net.bus(br.to_bus).kind is BusKind.PQ]
        if not cands:
            continue
        br = cands[int(rng.integers(len(cands)))]
        ends = (br.from_bus, br.to_bus)
        if rng.uniform() < 0.5:
            ends = ends[::-1]
        mode = list(Mode)[int(rng.integers(len(Mode)))]
        dev = SsscDevice("rnd", ends, ControlTarget(mode, 0.0))
        sp = _natural_setpoint(net, dev, base.V, mode, rng)
        if sp is None:
            continue
        dev = SsscDevice("rnd", ends, ControlTarget(mode, sp))
        try:
            sysd = build_system(net, (dev,))
            nr_solve(sysd)
        except Exception:
            continue
        return net, dev
    raise RuntimeError("could not draw a solvable random device study")


def _natural_setpoint(net, dev, base_V, mode, rng):
    i, j = dev.branches[0]
    vi = base_V[net.index_of[i]]
    br = net.branches[net.find_branch(i, j)]
    z = br.series_impedance + dev.z_se[0]
    cur = (vi - base_V[net.index_of[j]]) / z
    if abs(cur) < 0.05:
        return None
    s_line = vi * np.conj(cur)
    bump = 1.0 + 0.2 * rng.uniform(-1, 1)
    if mode is Mode.P_FLOW:
        return float(s_line.real * bump)
    if mode is Mode.Q_FLOW:
        return float(s_line.imag * bump)
    if mode is Mode.Q_INJ:
        return float(rng.uniform(0.02, 0.1))
    if mode is Mode.V_BUS:
        return float(abs(vi) * (1.0 + 0.02 * rng.uniform(-1, 1)))
    if mode is Mode.V_SE:
        return float(rng.uniform(0.02, 0.1))
    if mode is Mode.X_EQ:
        return float(rng.uniform(0.05, 0.2) * (1 if rng.uniform() < 0.5
                                               else -1))
    return None
