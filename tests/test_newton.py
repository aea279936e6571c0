"""System assembly, analytic Jacobian, and Newton-solver tests."""

import re
import warnings

import numpy as np
import pytest

from conftest import random_network, random_sssc_study
from ffheflow import newton
from ffheflow.devices import ControlTarget, Mode, SeriesDevice, SsscDevice
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

    def test_cached_bus_arrays_are_read_only(self, case118):
        sys = build_system(case118, (SsscDevice(
            "s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9)),),
            frozen_q={12: -0.2})
        pv = np.flatnonzero(sys.pv)
        assert np.array_equal(sys.pv_idx, pv)
        assert np.array_equal(sys.pv_rows, 2 * pv + 1)
        assert sys.pv_v2.tobytes() == (sys.v_set[pv].real ** 2).tobytes()
        st = sys.structure
        assert np.array_equal(st.slack_rows,
                              [2 * st.slack_idx[0], 2 * st.slack_idx[0] + 1])
        assert st.slack_v.tobytes() == sys.v_set[st.slack_idx].tobytes()
        for arr in (sys.pv_idx, sys.pv_rows, sys.pv_v2, st.slack_idx,
                    st.slack_rows, st.slack_v):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

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


@pytest.fixture
def factorisations(monkeypatch):
    """Counts the Newton loop's factorisations in element 0."""
    count = [0]
    lu_factor = newton.lu_factor

    def counted(J, pattern):
        count[0] += 1
        return lu_factor(J, pattern)

    monkeypatch.setattr(newton, "lu_factor", counted)
    return count


class TestNewton:
    def test_converges_base_case(self, case118):
        sys = build_system(case118)
        res = nr_solve(sys)
        assert res.mismatch <= 1e-8
        # slack pinned, magnitudes physical
        assert abs(res.V[sys.net.index_of[69]]) == \
            pytest.approx(sys.net.bus(69).v_setpoint)
        assert np.all(np.abs(res.V) > 0.8)

    def test_converges_with_device(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        sys = build_system(case118, (dev,))
        res = nr_solve(sys)
        be = sys.structure.branches[0][0]
        s = res.V[be.i_idx] * np.conj(res.I[be.cur_idx])
        assert s.real == pytest.approx(0.9, abs=1e-8)

    def test_infeasible_raises(self):
        sys = build_system(two_bus(p_load=50.0))   # far beyond loadability
        with pytest.raises(ConvergenceError):
            nr_solve(sys)

    @pytest.mark.parametrize("extra", [0, 5])
    def test_warm_start_matches_newton(self, case118, extra):
        # both run one damped-Newton loop: given at least Newton's step
        # count, the warm start stops where Newton converges
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        sys = build_system(case118, (dev,))
        nr = nr_solve(sys)
        warm = warm_start(sys, iterations=nr.iterations + extra)
        assert warm.iterations == nr.iterations
        np.testing.assert_array_equal(warm.V, nr.V)
        np.testing.assert_array_equal(warm.I, nr.I)

    def test_warm_start_stops_where_newton_stalls(self):
        sys = build_system(two_bus(p_load=50.0))
        with pytest.raises(ConvergenceError, match="stalled") as err:
            nr_solve(sys)
        stalled_at = int(re.search(r"iteration (\d+)", str(err.value))[1])
        assert warm_start(sys, iterations=100).iterations == stalled_at

    def test_singular_jacobian_is_named(self, case118):
        # at V = 0 the Jacobian is singular: that is not a stalled step
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        with pytest.raises(ConvergenceError,
                           match=r"^singular Jacobian at iteration 0 "
                                 r"\(mismatch 6\.070e\+00\)$"):
            nr_solve(sys, np.zeros_like(V0), I0)

    def test_each_cause_keeps_its_message(self, case118, monkeypatch):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        with pytest.raises(ConvergenceError,
                           match="^iteration produced non-finite mismatch$"):
            nr_solve(sys, np.full_like(V0, np.nan), I0)
        monkeypatch.setattr(newton, "MAX_ITERS", 1)
        with pytest.raises(ConvergenceError,
                           match=r"^no convergence in 1 iterations "
                                 r"\(mismatch \d\.\d{3}e[+-]\d\d\)$"):
            nr_solve(sys)
        stopped = warm_start(sys, iterations=1)
        assert (stopped.converged, stopped.cause) == (False, newton.CAPPED)
        monkeypatch.undo()
        assert nr_solve(sys).cause == ""

    def test_warm_start_reduces_mismatch(self, case118):
        sys = build_system(case118)
        V0, I0 = flat_start(sys)
        m0 = np.max(np.abs(residual(sys, V0, I0)))
        warm = warm_start(sys, iterations=3)
        assert np.max(np.abs(residual(sys, warm.V, warm.I))) < m0 * 1e-2
        assert warm.iterations == 3

    def test_warm_start_counts_steps_taken(self, case118):
        # a start that already meets the tolerance takes no step
        sys = build_system(case118)
        nr = nr_solve(sys, tol=1e-10)
        warm = warm_start(sys, iterations=3, tol=1e-8, V0=nr.V, I0=nr.I)
        assert warm.iterations == 0
        np.testing.assert_array_equal(warm.V, nr.V)

    def test_warm_start_needs_one_iteration(self, case118):
        with pytest.raises(ValueError):
            warm_start(build_system(case118), iterations=0)

    def test_half_given_start_rejected(self, case118):
        # a start with only V0 or only I0 is not silently a flat start
        sys = build_system(case118)
        nr = nr_solve(sys, tol=1e-10)
        for given in ({"V0": nr.V}, {"I0": nr.I}):
            with pytest.raises(ValueError, match="both V0 and I0"):
                nr_solve(sys, **given)
            with pytest.raises(ValueError, match="both V0 and I0"):
                warm_start(sys, **given)

    def test_chord_steps_save_factorisations(self, case118, factorisations):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        res = nr_solve(build_system(case118, (dev,)), tol=1e-8)
        assert res.mismatch <= 1e-8
        assert factorisations[0] < res.iterations

    def test_chord_steps_contract(self, case118, factorisations):
        # warm starts of 1, 2, ... steps replay one loop: step k reused a
        # held factorisation when it factorised nothing itself
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        sys = build_system(case118, (dev,))
        steps = nr_solve(sys).iterations
        mis = [np.max(np.abs(residual(sys, *flat_start(sys))))]
        count = [0]
        for k in range(1, steps + 1):
            factorisations[0] = 0
            warm = warm_start(sys, iterations=k)
            mis.append(np.max(np.abs(residual(sys, warm.V, warm.I))))
            count.append(factorisations[0])
        chord = [k for k in range(1, steps + 1) if count[k] == count[k - 1]]
        assert chord
        for k in chord:
            assert mis[k] <= newton.CONTRACTION * mis[k - 1]

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

    @pytest.mark.parametrize("devices", [
        (SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1)),),
        (SeriesDevice("i", ((49, 50), (49, 51)),
                      (ControlTarget(Mode.V_SE, 0.02, branch=0),
                       ControlTarget(Mode.X_EQ, 0.05, branch=1),
                       ControlTarget(Mode.Q_FLOW, 0.03, branch=1))),)],
        ids=["sssc-v_se", "ipfc"])
    def test_nudge_returns_its_input_when_no_current_is_small(
            self, case118, devices):
        sys = build_system(case118, devices)
        assert sys.rows.companions.size == sys.n_currents
        I = np.full(sys.n_currents, 0.3 - 0.2j)
        before = I.copy()
        assert _nudge_zero_currents(sys, I) is I
        assert I.tobytes() == before.tobytes()
        # a small current is nudged in a copy; the input is left alone
        I[-1] = 1e-6j
        out = _nudge_zero_currents(sys, I)
        assert out is not I and I[-1] == 1e-6j
        assert out[-1] == pytest.approx(1e-3j)
        assert out[:-1].tobytes() == I[:-1].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_damped_step_halves_past_a_non_finite_trial(
            self, case118, monkeypatch, bad):
        # a trial point whose residual is not finite fails the ``< bound``
        # test quietly, and the next length is tried
        sys = build_system(case118)
        V, I = flat_start(sys)
        dV = np.full(sys.n_bus, 0.01 + 0.01j)
        trials, results = [], []

        def fake_residual(sys_, Vn, In):
            trials.append(Vn)
            results.append(np.full(sys_.size, 1e-3))
            if len(trials) == 1:
                results[0][7] = bad
            return results[-1]

        monkeypatch.setattr(newton, "residual", fake_residual)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = newton._damped_step(sys, V, I, dV, I[:0], 1.0, 3)
        assert len(trials) == 2
        Vn, _, rn, mis = out
        assert Vn.tobytes() == (V + 0.5 * dV).tobytes()
        assert rn is results[1] and mis == 1e-3


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
