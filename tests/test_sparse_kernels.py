"""Vectorised residual, sparse Jacobian and series history against the
per-bus oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from ffheflow.core import _history
from ffheflow.devices import ControlTarget, IpfcDevice, Mode, SsscDevice
from ffheflow.network import BusKind
from ffheflow.newton import flat_start
from ffheflow.series import magnitude_coefficient, reciprocal_coefficient
from ffheflow.system import build_system, companion_currents, jacobian, \
    lu_factor, lu_solve, residual
from scalar_kernels import history as oracle_history
from scalar_kernels import jacobian as oracle_jacobian
from scalar_kernels import residual as oracle_residual
from test_acceptance import ALL_LABELS, make_devices

TOL = 1e-12


def _setpoint(rng, mode):
    return float(rng.uniform(0.95, 1.05) if mode is Mode.V_BUS
                 else rng.uniform(-0.3, 0.3))


def _random_devices(rng, net, mode):
    """An IPFC (where some non-slack bus has two neighbours) and an SSSC on
    other branches, each with a ``mode`` target."""
    pairs, seen = [], set()
    for br in net.branches:
        if frozenset((br.from_bus, br.to_bus)) in seen:
            continue
        seen.add(frozenset((br.from_bus, br.to_bus)))
        i, j = br.from_bus, br.to_bus
        if net.bus(i).kind is BusKind.SLACK or \
                (net.bus(j).kind is not BusKind.SLACK and rng.uniform() < 0.5):
            i, j = j, i
        pairs.append((i, j))
    devices = []
    hubs = sorted({i for i, _ in pairs
                   if sum(p[0] == i for p in pairs) >= 2})
    if hubs:
        hub = hubs[int(rng.integers(len(hubs)))]
        branches = tuple(p for p in pairs if p[0] == hub)[:2]
        others = [m for m in Mode if m is not mode]
        m1, m2 = rng.choice(len(others), size=2, replace=False)
        targets = (ControlTarget(mode, _setpoint(rng, mode), branch=0),
                   ControlTarget(others[m1], _setpoint(rng, others[m1]),
                                 branch=1),
                   ControlTarget(others[m2], _setpoint(rng, others[m2]),
                                 branch=int(rng.integers(2))))
        devices.append(IpfcDevice("ipfc", branches, targets))
        pairs = [p for p in pairs if p not in branches]
    if pairs:
        ends = pairs[int(rng.integers(len(pairs)))]
        devices.append(SsscDevice(
            "sssc", ends, ControlTarget(mode, _setpoint(rng, mode))))
    return tuple(devices)


def _perturbed_state(rng, sys):
    V, _ = flat_start(sys)
    V = V * (1 + 0.05 * rng.normal(size=V.size)) \
        * np.exp(0.1j * rng.normal(size=V.size))
    I = rng.uniform(0.1, 1.0, size=sys.n_currents) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, size=sys.n_currents))
    return V, I


def _assert_matches_oracle(sys, V, I):
    assert np.max(np.abs(residual(sys, V, I)
                         - oracle_residual(sys, V, I))) <= TOL
    J = jacobian(sys, V, I)
    assert J.format == "csc"
    assert np.max(np.abs(J.toarray() - oracle_jacobian(sys, V, I))) <= TOL


@pytest.mark.parametrize("mode", list(Mode))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_networks_match_oracle(mode, seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_bus=int(rng.integers(3, 8)))
    sys = build_system(net, _random_devices(rng, net, mode))
    _assert_matches_oracle(sys, *_perturbed_state(rng, sys))


@pytest.mark.parametrize("mode", list(Mode))
def test_case118_sssc_and_ipfc_match_oracle(case118, mode):
    sp = 1.0 if mode is Mode.V_BUS else 0.1
    devices = (
        SsscDevice("s", (101, 102), ControlTarget(mode, sp)),
        IpfcDevice("i", ((49, 50), (49, 51)),
                   (ControlTarget(mode, sp, branch=0),
                    ControlTarget(Mode.P_FLOW, 0.7, branch=1),
                    ControlTarget(Mode.Q_FLOW, 0.1, branch=1))))
    sys = build_system(case118, devices)
    _assert_matches_oracle(sys, *_perturbed_state(np.random.default_rng(1),
                                                  sys))


def test_factorisation_solves_the_jacobian(case118):
    sys = build_system(case118)
    V, I = _perturbed_state(np.random.default_rng(2), sys)
    J = jacobian(sys, V, I)
    r = residual(sys, V, I)
    x = lu_solve(lu_factor(J), r)
    assert np.max(np.abs(J @ x - r)) < 1e-10


def test_singular_jacobian_raises_linalg_error():
    net = random_network(np.random.default_rng(0), n_bus=3)
    sys = build_system(net)
    V = np.zeros(sys.n_bus, dtype=complex)    # every PQ row vanishes
    with pytest.raises(np.linalg.LinAlgError):
        lu_factor(jacobian(sys, V, np.zeros(0, complex)))


# ------------------------------------------------------------ series history

HISTORY_ORDERS = range(2, 13)


def _series_state(rng, sys, n):
    """Random coefficients through order n, with nonzero leading terms near
    a perturbed flat start, ``Us = Y Vs``, and the reciprocal and magnitude
    companions from their recurrences.  Order n is filled too: the order-n
    history must not read it."""
    V0, I0 = _perturbed_state(rng, sys)
    decay = rng.uniform(0.2, 0.6) ** np.arange(n + 1)

    def draw(rows):
        return 0.3 * decay * (rng.normal(size=(rows, n + 1))
                              + 1j * rng.normal(size=(rows, n + 1)))

    Vs, Is = draw(sys.n_bus), draw(sys.n_currents)
    Vs[:, 0], Is[:, 0] = V0, I0
    Us = np.asarray(sys.ybus @ Vs)
    comp_f, comp_m = {}, {}
    for c in companion_currents(sys):
        f = np.zeros(n + 1, dtype=complex)
        m = np.zeros(n + 1)
        f[0], m[0] = 1.0 / Is[c, 0], abs(Is[c, 0])
        for k in range(1, n + 1):
            f[k] = reciprocal_coefficient(f, Is[c], k)
            m[k] = magnitude_coefficient(m, Is[c], k)
        comp_f[c], comp_m[c] = f, m
    return Vs, Is, Us, comp_f, comp_m


def _assert_history_matches_oracle(rng, sys):
    for n in HISTORY_ORDERS:
        state = _series_state(rng, sys, n)
        h = _history(sys, n, *state)
        ref = oracle_history(sys, n, *state)
        assert np.max(np.abs(h - ref)) <= TOL * np.max(np.abs(ref)), n


@pytest.mark.parametrize("mode", list(Mode))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_network_history_matches_oracle(mode, seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_bus=int(rng.integers(3, 8)))
    sys = build_system(net, _random_devices(rng, net, mode))
    _assert_history_matches_oracle(rng, sys)


@pytest.mark.parametrize("label", [lb for lb in ALL_LABELS if lb != "base"])
def test_case118_history_matches_oracle(case118, label):
    sys = build_system(case118, make_devices(label))
    _assert_history_matches_oracle(np.random.default_rng(3), sys)
