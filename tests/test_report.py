"""Study orchestration tests: limits, warm starts, metrics."""

import numpy as np
import pytest

from ffheflow import load_bundled_case
from ffheflow.devices import ControlTarget, IpfcDevice, Mode, SsscDevice
from ffheflow.report import (StudyError, StudyOptions, _base_solution,
                             error_improvement_pct, run_study,
                             runtime_improvement_pct)


@pytest.fixture(scope="module")
def base_nr(case118):
    return run_study(case118, (), StudyOptions(method="nr"))


class TestOptions:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            StudyOptions(method="gauss-seidel")

    def test_bad_numbers(self):
        with pytest.raises(ValueError):
            StudyOptions(tol=0.0)
        with pytest.raises(ValueError):
            StudyOptions(max_terms=0)
        with pytest.raises(ValueError):
            StudyOptions(warm_iters=0)


class TestBaseStudy:
    def test_converges_and_reports(self, base_nr):
        assert base_nr.converged
        assert base_nr.mismatch <= 1e-8
        assert base_nr.device_outputs == {}
        assert "nr" in base_nr.stats

    def test_reactive_limit_clamping(self, base_nr, case118):
        # every clamped generator sits exactly on one of its limits and
        # was a regulating generator in the input case
        assert base_nr.clamped_generators
        for ext, q in base_nr.clamped_generators.items():
            bus = case118.bus(ext)
            assert q in (bus.q_min, bus.q_max)
        # the clamped buses are solved as constant-Q: their magnitude no
        # longer matches the setpoint
        for ext in base_nr.clamped_generators:
            assert abs(abs(base_nr.voltage(ext))
                       - case118.bus(ext).v_setpoint) > 1e-6

    def test_limits_can_be_disabled(self, case118):
        rep = run_study(case118, (), StudyOptions(
            method="nr", enforce_q_limits=False))
        assert rep.clamped_generators == {}

    def test_unclamped_pv_magnitudes_hold(self, base_nr, case118):
        from ffheflow.network import BusKind
        for bus in case118.buses:
            if bus.kind is BusKind.PV and \
                    bus.ext_id not in base_nr.clamped_generators:
                assert abs(base_nr.voltage(bus.ext_id)) == \
                    pytest.approx(bus.v_setpoint, abs=1e-7)

    def test_branch_flow_power_balance(self, base_nr, case118):
        # flows out of the slack bus equal its net injection
        slack = 69
        total = 0j
        seen = set()
        for br in case118.branches:
            if slack in (br.from_bus, br.to_bus):
                other = br.to_bus if br.from_bus == slack else br.from_bus
                if (slack, other) in seen:
                    continue
                seen.add((slack, other))
                total += base_nr.branch_flow(slack, other)
        v = base_nr.voltage(slack)
        bus = case118.bus(slack)
        inj = v * np.conj((base_nr.system.ybus @ base_nr.V)[
            case118.index_of[slack]])
        shunt = complex(bus.shunt_g, -bus.shunt_b) * abs(v) ** 2
        assert total == pytest.approx(inj - shunt, abs=1e-8)

    def test_methods_agree(self, case118, base_nr):
        warm = run_study(case118, (), StudyOptions(method="nr-warm-ffhe"))
        assert np.max(np.abs(warm.V - base_nr.V)) < 1e-6


class TestDeviceStudy:
    def test_sssc_setpoint_attained(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        assert rep.converged
        (out,) = rep.device_outputs["s"]
        assert out.s_line.real == pytest.approx(0.9, abs=1e-8)
        assert rep.branch_flow(101, 102) == pytest.approx(out.s_line)

    def test_sending_pv_frozen(self, case118):
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        assert 49 in rep.frozen_q
        # frozen at the device-free solved reactive output
        assert rep.frozen_q[49] == pytest.approx(1.1565, abs=1e-3)

    def test_vse_limit_relaxation(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9),
                         v_se_max=0.3)
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        assert rep.relaxed_branches == (("s", 0),)
        (out,) = rep.device_outputs["s"]
        assert abs(out.v_se) == pytest.approx(0.3, abs=1e-6)
        assert out.s_line.real < 0.9    # target given up

    def test_ipfc_power_exchange_balance(self, case118):
        dev = IpfcDevice(
            "i", ((49, 50), (49, 51)),
            (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
             ControlTarget(Mode.P_FLOW, 0.75, branch=1),
             ControlTarget(Mode.Q_FLOW, 0.03, branch=1)))
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        o0, o1 = rep.device_outputs["i"]
        assert o0.s_se.real + o1.s_se.real == pytest.approx(0.0, abs=1e-9)
        assert o0.s_line.real == pytest.approx(0.75, abs=1e-8)
        assert o1.s_line.imag == pytest.approx(0.03, abs=1e-8)

    def test_infeasible_raises_study_error(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 50.0))
        with pytest.raises(StudyError):
            run_study(case118, (dev,), StudyOptions(method="nr"))

    def test_deterministic_output(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        opts = StudyOptions(method="nr-warm-ffhe")
        r1 = run_study(case118, (dev,), opts)
        r2 = run_study(case118, (dev,), opts)
        assert np.array_equal(r1.V, r2.V)
        assert np.array_equal(r1.I, r2.I)

    def test_compare_method_attaches_stats(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        rep = run_study(case118, (dev,), StudyOptions(method="compare"))
        assert {"nr", "nr-warm-ffhe"} <= set(rep.stats)
        assert rep.comparison["voltage_gap"] < 1e-6
        assert np.isfinite(rep.comparison["delta_e_pct"])
        assert np.isfinite(rep.comparison["delta_t_pct"])


class TestBaseSolutionMemo:
    """Device studies share the device-free pre-solve of their case."""

    DEV = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
    NR = StudyOptions(method="nr")

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _base_solution.cache_clear()

    def test_warm_memo_gives_identical_study(self, case118):
        cold = run_study(case118, (self.DEV,), self.NR)
        assert _base_solution.cache_info().misses == 1
        warm = run_study(case118, (self.DEV,), self.NR)
        assert _base_solution.cache_info().hits == 1
        assert cold.frozen_q and cold.clamped_generators
        assert np.array_equal(cold.V, warm.V)
        assert np.array_equal(cold.I, warm.I)
        assert cold.frozen_q == warm.frozen_q
        assert cold.clamped_generators == warm.clamped_generators

    def test_reparsed_case_hits(self, case118):
        copy = load_bundled_case()
        assert copy is not case118
        run_study(case118, (self.DEV,), self.NR)
        run_study(copy, (self.DEV,), self.NR)
        assert _base_solution.cache_info().hits == 1

    def test_series_options_share_the_newton_presolve(self, case118):
        run_study(case118, (self.DEV,), self.NR)
        run_study(case118, (self.DEV,),
                  StudyOptions(method="nr-warm-ffhe", warm_iters=2))
        assert _base_solution.cache_info().hits == 1

    @pytest.mark.parametrize("change", [{"tol": 1e-9},
                                        {"enforce_q_limits": False}])
    def test_other_newton_options_miss(self, case118, change):
        run_study(case118, (self.DEV,), self.NR)
        run_study(case118, (self.DEV,), StudyOptions(method="nr", **change))
        info = _base_solution.cache_info()
        assert (info.hits, info.misses) == (0, 2)

    def test_cached_arrays_are_read_only(self, case118):
        run_study(case118, (self.DEV,), self.NR)
        base = _base_solution(case118, self.NR)
        assert _base_solution.cache_info().hits == 1
        for arr in (base.V, base.I):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            base.V[0] = 0.0

    def test_device_free_study_is_fresh(self, case118):
        base = _base_solution(case118, self.NR)
        rep = run_study(case118, (), self.NR)
        assert rep is not base
        assert rep.V.flags.writeable
        assert not np.shares_memory(rep.V, base.V)
        assert np.array_equal(rep.V, base.V)
        assert _base_solution.cache_info().hits == 0


class TestMetrics:
    def test_error_improvement_log_formula(self):
        # one extra decade of accuracy over a 1e-8 baseline is 25 %
        assert error_improvement_pct(1e-10, 1e-8) == pytest.approx(25.0)
        assert error_improvement_pct(1e-8, 1e-8) == 0.0

    def test_error_improvement_floor(self):
        assert np.isfinite(error_improvement_pct(0.0, 1e-8))

    def test_runtime_improvement(self):
        assert runtime_improvement_pct(1.0, 0.92) == pytest.approx(8.0)
        assert runtime_improvement_pct(0.0, 1.0) == 0.0
        assert runtime_improvement_pct(1.0, 2.0) == pytest.approx(-100.0)
