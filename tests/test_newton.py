"""System assembly, analytic Jacobian, and Newton-solver tests."""

import numpy as np
import pytest

from conftest import random_network, random_sssc_study
from ffheflow.devices import ControlTarget, Mode, SsscDevice
from ffheflow.network import Branch, Bus, BusKind, Network, TopologyError
from ffheflow.newton import (ConvergenceError, _nudge_zero_currents,
                             flat_start, nr_solve, warm_start)
from ffheflow.system import (build_system, jacobian, pack_state, residual,
                             unpack_state)


def two_bus(p_load=0.5, q_load=0.2, r=0.01, x=0.1):
    return Network(
        buses=(Bus(1, BusKind.SLACK, v_setpoint=1.0),
               Bus(2, BusKind.PQ, p_load=p_load, q_load=q_load)),
        branches=(Branch(1, 2, r, x),),
        base_mva=100.0)


def fd_jacobian(sys, V, I, h=1e-7):
    """Central finite-difference Jacobian of the residual."""
    x0 = pack_state(np.asarray(V, complex), np.asarray(I, complex))
    J = np.zeros((sys.size, sys.size))
    for k in range(sys.size):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += h
        xm[k] -= h
        Vp, Ip = unpack_state(xp, sys.n_bus)
        Vm, Im = unpack_state(xm, sys.n_bus)
        J[:, k] = (residual(sys, Vp, Ip) - residual(sys, Vm, Im)) / (2 * h)
    return J


class TestSystemAssembly:
    def test_dimensions(self, case118):
        sys = build_system(case118)
        assert sys.size == 2 * 118
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        sysd = build_system(case118, (dev,))
        assert sysd.n_bus == 119
        assert sysd.n_currents == 1
        assert sysd.size == 2 * 120

    def test_sending_pv_demoted_with_frozen_q(self, case118):
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        sysd = build_system(case118, (dev,), frozen_q={49: 1.1565})
        b49 = sysd.net.bus(49)
        assert b49.kind is BusKind.PQ
        assert b49.q_gen == pytest.approx(1.1565)

    def test_slack_sending_bus_rejected(self):
        net = two_bus()
        dev = SsscDevice("s", (1, 2), ControlTarget(Mode.P_FLOW, 0.1))
        with pytest.raises(TopologyError, match="slack"):
            build_system(net, (dev,))

    def test_regulated_voltage_target_rejected(self, case118):
        # bus 66 holds a regulating generator; pinning its magnitude with a
        # device as well would over-determine it
        dev = SsscDevice("s", (49, 50),
                         ControlTarget(Mode.V_BUS, 1.0, bus=66))
        with pytest.raises(Exception, match="regulated"):
            build_system(case118, (dev,))

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(0)
        V = rng.normal(size=5) + 1j * rng.normal(size=5)
        I = rng.normal(size=2) + 1j * rng.normal(size=2)
        V2, I2 = unpack_state(pack_state(V, I), 5)
        assert np.allclose(V, V2)
        assert np.allclose(I, I2)

    def test_residual_zero_at_closed_form_two_bus(self):
        # lossless two-bus case solved by hand from the quadratic
        net = two_bus(p_load=0.3, q_load=0.0, r=0.0, x=0.1)
        sys = build_system(net)
        # with V1 = 1: conj(S2) jx = |V2|^2 - conj(V2), so Im V2 = -P x and
        # Re V2 solves e^2 - e + (P x)^2 = 0
        x = 0.1
        p = 0.3
        e = (1 + np.sqrt(1 - 4 * (p * x) ** 2)) / 2
        v2 = e - 1j * p * x
        r = residual(sys, np.array([1.0, v2]), np.zeros(0, complex))
        assert np.max(np.abs(r)) < 1e-12
        res = nr_solve(sys)
        assert abs(res.V[1] - v2) < 1e-8


class TestJacobian:
    def test_matches_fd_base_case(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, n_bus=5)
        sys = build_system(net)
        V, I = flat_start(sys)
        V = V * (1 + 0.02 * (rng.normal(size=V.size)
                             + 1j * rng.normal(size=V.size)))
        J = jacobian(sys, V, I).toarray()
        assert np.max(np.abs(J - fd_jacobian(sys, V, I))) < 1e-5

    @pytest.mark.parametrize("mode,sp", [
        (Mode.P_FLOW, 0.3), (Mode.Q_FLOW, 0.1), (Mode.Q_INJ, 0.05),
        (Mode.V_BUS, 1.0), (Mode.V_SE, 0.1), (Mode.X_EQ, 0.15)])
    def test_matches_fd_each_device_mode(self, case118, mode, sp):
        dev = SsscDevice("s", (101, 102), ControlTarget(mode, sp))
        sys = build_system(case118, (dev,))
        rng = np.random.default_rng(5)
        V, I = flat_start(sys)
        V = V * (1 + 0.01 * (rng.normal(size=V.size)
                             + 1j * rng.normal(size=V.size)))
        I[:] = 0.4 - 0.1j
        J = jacobian(sys, V, I).toarray()
        assert np.max(np.abs(J - fd_jacobian(sys, V, I))) < 1e-5

    def test_slack_rows_identity(self, case118):
        sys = build_system(case118)
        V, I = flat_start(sys)
        J = jacobian(sys, V, I).toarray()
        b = sys.net.index_of[69]          # the bundled case's slack
        assert sys.net.buses[b].kind is BusKind.SLACK
        row = np.zeros(sys.size)
        row[2 * b] = 1.0
        assert np.allclose(J[2 * b], row)


class TestNewton:
    def test_converges_base_case(self, case118):
        sys = build_system(case118)
        res = nr_solve(sys)
        assert res.converged
        assert res.mismatch <= 1e-8
        # slack pinned, magnitudes physical
        assert abs(res.V[sys.net.index_of[69]]) == \
            pytest.approx(sys.net.bus(69).v_setpoint)
        assert np.all(np.abs(res.V) > 0.8)

    def test_converges_with_device(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        sys = build_system(case118, (dev,))
        res = nr_solve(sys)
        assert res.converged
        be = sys.devices[0].branches[0]
        s = res.V[be.i_idx] * np.conj(res.I[be.cur_idx])
        assert s.real == pytest.approx(0.9, abs=1e-8)

    def test_infeasible_raises(self):
        sys = build_system(two_bus(p_load=50.0))   # far beyond loadability
        with pytest.raises(ConvergenceError):
            nr_solve(sys, max_iters=15)

    def test_warm_start_reduces_mismatch(self, case118):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        m0 = np.max(np.abs(residual(sys, V0, I0)))
        V, I, steps = warm_start(sys, iterations=3)
        assert np.max(np.abs(residual(sys, V, I))) < m0 * 1e-2
        assert steps == 3

    def test_warm_start_counts_steps_taken(self, case118):
        # a start that already meets the tolerance takes no step
        sys = build_system(case118)
        nr = nr_solve(sys, tol=1e-10)
        V, I, steps = warm_start(sys, iterations=3, tol=1e-8,
                                 V0=nr.V, I0=nr.I)
        assert steps == 0
        np.testing.assert_array_equal(V, nr.V)

    def test_warm_start_needs_one_iteration(self, case118):
        with pytest.raises(ValueError):
            warm_start(build_system(case118), iterations=0)

    def test_nudge_preserves_phase(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        sys = build_system(case118, (dev,))
        I = np.array([1e-6 * np.exp(1j * 0.7)])
        out = _nudge_zero_currents(sys, I.copy())
        assert abs(out[0]) == pytest.approx(1e-3)
        assert np.angle(out[0]) == pytest.approx(0.7)
        out0 = _nudge_zero_currents(sys, np.array([0j]))
        assert out0[0] == 1e-3

    def test_nudge_skips_polynomial_modes(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        sys = build_system(case118, (dev,))
        out = _nudge_zero_currents(sys, np.array([0j]))
        assert out[0] == 0j


def test_random_device_jacobians_match_fd():
    rng = np.random.default_rng(42)
    for _ in range(5):
        net, dev = random_sssc_study(rng)
        sys = build_system(net, (dev,))
        V, I = flat_start(sys)
        V = V * (1 + 0.01 * (rng.normal(size=V.size)
                             + 1j * rng.normal(size=V.size)))
        I[:] = 0.3 + 0.2j
        J = jacobian(sys, V, I).toarray()
        assert np.max(np.abs(J - fd_jacobian(sys, V, I))) < 1e-5
