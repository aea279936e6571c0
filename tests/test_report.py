"""Study orchestration tests: limits, warm starts, metrics."""

import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ffheflow
from conftest import random_sssc_study
from ffheflow import core, report
from ffheflow.devices import (ControlTarget, DeviceConfigError, Mode,
                              SeriesDevice, SsscDevice)
from ffheflow.network import Branch, Bus, BusKind, Network, TopologyError
from ffheflow.newton import ConvergenceError, flat_start
from ffheflow.report import (StudyError, StudyOptions, _base_solution,
                             _check_devices, _device_start, _passes,
                             error_improvement_pct, run_study,
                             runtime_improvement_pct)
from ffheflow.system import build_system, residual
from test_newton import two_bus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import ladder  # noqa: E402


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
        with pytest.raises(ValueError, match="tol must be"):
            StudyOptions(tol=float("nan"))
        with pytest.raises(ValueError):
            StudyOptions(max_terms=0)
        with pytest.raises(ValueError):
            StudyOptions(warm_iters=0)

    @pytest.mark.parametrize("key, bad", [
        ("pade", "false"), ("pade", 1), ("max_terms", 7.9),
        ("max_terms", True), ("warm_iters", "3"), ("warm_iters", 2.0),
        ("tol", "1e-8"), ("tol", False), ("tol", None)])
    def test_field_of_another_type(self, key, bad):
        # checked where the options are made, not only in a --batch entry
        with pytest.raises(ValueError, match=f"^{key} must be (a number|an "
                           f"integer|true or false), not "
                           f"{re.escape(repr(bad))}$"):
            StudyOptions(method="ffhe", **{key: bad})

    def test_fields_of_the_right_type(self):
        opts = StudyOptions(tol=1, max_terms=np.int64(30), warm_iters=2,
                            pade=True)
        assert (opts.tol, opts.max_terms, opts.pade) == (1, 30, True)


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

    def test_q_violations_match_each_generator_limit(self, case118):
        """On an unclamped solve every regulating generator outside its
        capability maps to the limit it crosses (by more than 1e-9), in bus
        order, and no other bus is listed."""
        sys_ = build_system(case118)
        res = report.nr_solve(sys_)
        viol = report._q_violations(sys_, res.V, res.I)
        pv = np.flatnonzero(sys_.pv)
        q = report.generator_reactive_output(sys_, res.V, res.I, pv)
        expected = {}
        for b, qg in zip(pv, q):
            bus = case118.buses[b]
            if qg > bus.q_max + 1e-9:
                expected[bus.ext_id] = bus.q_max
            elif qg < bus.q_min - 1e-9:
                expected[bus.ext_id] = bus.q_min
        assert {q for q in expected.values() if q > 0} and \
            {q for q in expected.values() if q < 0}    # both sides occur
        assert list(viol.items()) == list(expected.items())
        assert all(type(k) is int and type(v) is float
                   for k, v in viol.items())

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
        z = np.concatenate([base_nr.V, base_nr.I])
        inj = v * np.conj((base_nr.system.yc @ z)[case118.index_of[slack]])
        shunt = complex(bus.shunt_g, -bus.shunt_b) * abs(v) ** 2
        assert total == pytest.approx(inj - shunt, abs=1e-8)

    def test_methods_agree(self, case118, base_nr):
        warm = run_study(case118, (), StudyOptions(method="nr-warm-ffhe"))
        assert np.max(np.abs(warm.V - base_nr.V)) < 1e-6

    def test_divergence_raises_study_error(self):
        with pytest.raises(StudyError, match="^study did not converge: "):
            run_study(two_bus(p_load=50.0), (), StudyOptions(method="nr"))


class TestConstantQ:
    """``build_system``'s one rule: a PV bus listed in ``frozen_q`` becomes a
    fixed-injection bus at that reactive output."""

    def test_listed_pv_bus_becomes_pq(self, case118):
        ext, q = 19, -0.08
        assert case118.bus(ext).kind is BusKind.PV
        sys_ = build_system(case118, (), frozen_q={ext: q})
        bus = sys_.net.bus(ext)
        assert bus.kind is BusKind.PQ
        assert bus.q_gen == q
        assert not sys_.pv[case118.index_of[ext]]
        assert sys_.s_inj[case118.index_of[ext]].imag == \
            pytest.approx(q - bus.q_load)
        # every other bus keeps its kind
        plain = build_system(case118)
        assert sys_.pv.sum() == plain.pv.sum() - 1

    def test_unlisted_pv_sending_bus_keeps_its_gen_table_q(self, case118):
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        bus = build_system(case118, (dev,)).net.bus(49)
        assert bus.kind is BusKind.PQ
        assert bus.q_gen == case118.bus(49).q_gen


class TestDeviceStudy:
    def test_sssc_setpoint_attained(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        assert rep.converged
        (out,) = rep.device_outputs["s"]
        assert out.s_line.real == pytest.approx(0.9, abs=1e-8)
        assert rep.branch_flow(101, 102) == pytest.approx(out.s_line)

    def test_receiving_end_flow_closes_the_branch_balance(self, case118):
        # what enters the device branch at both ends and from the series
        # source is its loss in the line and the coupling impedance, up to
        # the current balance at the auxiliary bus: the solve tolerance
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        (out,) = rep.device_outputs["s"]
        z = case118.branches[case118.find_branch(49, 50)].series_impedance
        loss = abs(out.i_se) ** 2 * (z + dev.z_se[0])
        total = rep.branch_flow(49, 50) + rep.branch_flow(50, 49) + out.s_se
        assert abs(total - loss) < StudyOptions().tol

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
        dev = SeriesDevice(
            "i", ((49, 50), (49, 51)),
            (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
             ControlTarget(Mode.P_FLOW, 0.75, branch=1),
             ControlTarget(Mode.Q_FLOW, 0.03, branch=1)))
        # the exchange row is solved to tol, and Newton may stop just
        # below it: solve two decades under the 1e-9 asserted here
        rep = run_study(case118, (dev,), StudyOptions(method="nr", tol=1e-10))
        o0, o1 = rep.device_outputs["i"]
        assert o0.s_se.real + o1.s_se.real == pytest.approx(0.0, abs=1e-9)
        assert o0.s_line.real == pytest.approx(0.75, abs=1e-8)
        assert o1.s_line.imag == pytest.approx(0.03, abs=1e-8)

    def test_repeated_device_id_rejected(self, case118):
        # with one id for both, the second device's outputs would hide the
        # first one's injected-voltage limit violation
        devs = (SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9),
                           v_se_max=0.3),
                SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75)))
        with pytest.raises(DeviceConfigError, match="'s' is repeated"):
            run_study(case118, devs, StudyOptions(method="nr"))
        assert _base_solution.cache_info().misses == 0

    @pytest.mark.parametrize("branch", [(999, 50), (49, 999)])
    def test_unknown_bus_rejected_before_any_solve(self, case118, branch):
        dev = SsscDevice("s", branch, ControlTarget(Mode.P_FLOW, 0.5))
        with pytest.raises(DeviceConfigError,
                           match="^device s: unknown bus 999$"):
            run_study(case118, (dev,), StudyOptions(method="nr"))
        assert _base_solution.cache_info().misses == 0

    @pytest.mark.parametrize("devs, error, message", [
        ((SsscDevice("s", (101, 102),
                     ControlTarget(Mode.V_BUS, 1.0, bus=999)),),
         DeviceConfigError, "s: unknown target bus 999"),
        ((SsscDevice("s", (69, 70), ControlTarget(Mode.P_FLOW, 0.5)),),
         TopologyError, "device s: sending bus 69 is the slack"),
        ((SsscDevice("s", (101, 102),
                     ControlTarget(Mode.V_BUS, 1.0, bus=100)),),
         DeviceConfigError, "s: bus 100 magnitude is already regulated"),
        ((SeriesDevice("i", ((49, 50), (49, 50)),
                       (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
                        ControlTarget(Mode.P_FLOW, 0.75, branch=1),
                        ControlTarget(Mode.Q_FLOW, 0.03, branch=1))),),
         TopologyError, "device stacking on branch 49-50"),
        ((SsscDevice("a", (49, 50), ControlTarget(Mode.P_FLOW, 0.75)),
          SsscDevice("b", (50, 49), ControlTarget(Mode.P_FLOW, -0.75))),
         DeviceConfigError, "devices 'a' and 'b' are both on branch 50-49"),
        ((SsscDevice("a", (49, 50), ControlTarget(Mode.V_BUS, 1.0, bus=50)),
          SsscDevice("b", (100, 103),
                     ControlTarget(Mode.V_BUS, 1.0, bus=50))),
         DeviceConfigError,
         "b: bus 50 magnitude is already held by a v_bus target of a"),
        ((SsscDevice("a", (49, 50), ControlTarget(Mode.V_BUS, 1.0)),
          SsscDevice("b", (49, 51), ControlTarget(Mode.V_BUS, 1.0))),
         DeviceConfigError,
         "b: bus 49 magnitude is already held by a v_bus target of a"),
        ((SeriesDevice("i", ((49, 50), (49, 51)),
                       (ControlTarget(Mode.V_BUS, 1.0, branch=0),
                        ControlTarget(Mode.V_BUS, 1.0, branch=1),
                        ControlTarget(Mode.Q_FLOW, 0.03, branch=1))),),
         DeviceConfigError,
         "i: bus 49 magnitude is already held by a v_bus target of i"),
    ], ids=["unknown-target-bus", "slack-sending-bus", "regulated-target",
            "ipfc-branch-twice", "two-devices-one-branch",
            "two-devices-one-v_bus", "two-devices-one-sending-v_bus",
            "ipfc-one-v_bus-twice"])
    def test_placement_error_before_any_solve(self, case118, devs, error,
                                              message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_study(case118, devs, StudyOptions(method="nr"))
        assert _base_solution.cache_info().misses == 0

    def test_devices_on_parallel_circuits(self, case118):
        # 49-54 has two circuits: one device on each, not a third
        a, b, c = (SsscDevice(i, (49, 54), ControlTarget(Mode.P_FLOW, 0.3))
                   for i in "abc")
        _check_devices(case118, (a, b))
        placed = build_system(case118, (a, b)).structure.branches
        assert placed[0][0].m_idx != placed[1][0].m_idx
        with pytest.raises(DeviceConfigError,
                           match="^devices 'b' and 'c' are both on branch "
                                 "49-54$"):
            _check_devices(case118, (a, b, c))

    def test_ipfc_vse_target_over_rating_raises(self, case118):
        # solves, then finds |V_se| = 0.050 on branch 1: its v_se target
        # pins only the part in quadrature with the current
        dev = SeriesDevice(
            "i", ((49, 50), (49, 51)),
            (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
             ControlTarget(Mode.V_SE, 0.02, branch=1),
             ControlTarget(Mode.Q_FLOW, 0.03, branch=1)),
            v_se_max=(None, 0.03))
        with pytest.raises(DeviceConfigError,
                           match=r"^i: branch 1 holds a v_se target but "
                                 r"\|V_se\| = 0\.0499\d+ exceeds its rating "
                                 r"0\.03$"):
            run_study(case118, (dev,), StudyOptions(method="nr"))

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

    @pytest.mark.parametrize("method", ["nr", "nr-warm-ffhe", "ffhe"])
    def test_report_mismatch_is_the_solves_own(self, case118, monkeypatch,
                                               method):
        # the accepted point's residual was evaluated by the solve; the
        # report takes that mismatch and evaluates no residual of its own
        calls = []
        monkeypatch.setattr(report, "residual",
                            lambda *a: calls.append(a) or residual(*a))
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1))
        rep = run_study(case118, (dev,), StudyOptions(method=method))
        assert calls == []
        mis = float(np.max(np.abs(residual(rep.system, rep.V, rep.I))))
        assert rep.mismatch == mis == rep.stats[method].mismatch

    def test_compare_method_attaches_stats(self, case118):
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        rep = run_study(case118, (dev,), StudyOptions(method="compare"))
        assert {"nr", "nr-warm-ffhe"} <= set(rep.stats)
        assert rep.comparison["voltage_gap"] < 1e-6
        assert np.isfinite(rep.comparison["delta_e_pct"])
        assert np.isfinite(rep.comparison["delta_t_pct"])

    @pytest.mark.parametrize("study", ["49-50/vse1.0", "random/24",
                                       "random/59", "random/109"])
    def test_series_converges_where_newton_does(self, case118, study):
        # studies where a series walk used to give up short of tol while
        # Newton converges: both series methods now land on Newton's
        # solution
        if study == "49-50/vse1.0":
            net = case118
            dev = SsscDevice("s", (49, 50), ControlTarget(Mode.V_SE, 1.0))
        else:
            k = int(study.split("/")[1])
            net, dev = random_sssc_study(np.random.default_rng(k))
        nr = run_study(net, (dev,), StudyOptions(method="nr"))
        for method in ("ffhe", "nr-warm-ffhe"):
            rep = run_study(net, (dev,), StudyOptions(method=method))
            assert rep.stats[method].converged, method
            assert np.max(np.abs(rep.V - nr.V)) < 1e-6, method

    def test_compare_leaves_out_a_failed_flat_series(self, monkeypatch):
        # with the series walk capped at 10 references, the flat-start
        # series raises on this draw under method="ffhe" (it needs 12),
        # and the warm-started one converges in 9
        monkeypatch.setattr(core, "MAX_ITERS", 10)
        net, dev = random_sssc_study(np.random.default_rng(24))
        rep = run_study(net, (dev,), StudyOptions(method="compare"))
        assert "ffhe" not in rep.stats
        assert rep.stats["nr-warm-ffhe"].converged
        assert rep.comparison["voltage_gap"] < 1e-6

    @pytest.mark.parametrize("mode, setpoint", [(Mode.V_SE, 0.02),
                                                (Mode.X_EQ, 0.05)])
    def test_vbus_start_keeps_the_guess_on_an_idle_line(self, mode,
                                                        setpoint):
        # a ring whose middle line 2-3 carries no current by symmetry: the
        # v_bus boost would seed that branch's v_se or x_eq current at 0,
        # below the floor, so it keeps its guess, and the other branch
        # takes the boost
        net = Network(
            buses=(Bus(1, BusKind.SLACK, v_setpoint=1.0),
                   Bus(2, BusKind.PQ, p_load=0.5, q_load=0.2),
                   Bus(3, BusKind.PQ, p_load=0.5, q_load=0.2)),
            branches=(Branch(1, 2, 0.01, 0.1), Branch(2, 3, 0.01, 0.1),
                      Branch(1, 3, 0.01, 0.1)),
            base_mva=100.0)
        dev = SeriesDevice("ipfc", ((2, 1), (2, 3)),
                           (ControlTarget(Mode.V_BUS, 1.0),
                            ControlTarget(Mode.Q_FLOW, -0.1),
                            ControlTarget(mode, setpoint, branch=1)))
        base = run_study(net, (), StudyOptions(method="nr"))
        assert base.branch_flow(2, 3) == 0
        _, I0 = _device_start(build_system(net, (dev,)), base)
        assert I0[1] == dev.current_guess[1]
        assert I0[0] == report.VOLTAGE_TARGET_BOOST * np.conj(
            base.branch_flow(2, 1) / base.V[1])
        if mode is Mode.X_EQ:
            assert run_study(net, (dev,), StudyOptions(method="nr")).converged


class TestPassLoop:
    """The outer passes: a generator outside its limits is pinned and the
    study re-solved from there; a pinned generator whose bus voltage lies on
    the wrong side of its setpoint is released; a branch over its rating is
    relaxed and the study started again from the base study's clamps."""

    @staticmethod
    def record_pins(monkeypatch):
        """Each pass's sorted pinned buses, from a wrapped build_system."""
        pins = []

        def recording(net, devices=(), *, frozen_q=None):
            if frozen_q is not None:
                pins.append(sorted(frozen_q))
            return build_system(net, devices, frozen_q=frozen_q)

        monkeypatch.setattr(report, "build_system", recording)
        return pins

    def test_relaxation_starts_again_unpinned(self, case118, base_nr,
                                              monkeypatch):
        # only the base clamps are pinned again after the relaxation: bus
        # 100, clamped under the target given up, is not
        base = set(base_nr.clamped_generators)
        assert 100 not in base
        dev = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9),
                         v_se_max=0.3)
        _base_solution(case118, StudyOptions(method="nr"))
        pins = self.record_pins(monkeypatch)
        for method in ("nr", "nr-warm-ffhe"):
            pins.clear()
            rep = run_study(case118, (dev,), StudyOptions(method=method))
            assert pins == [sorted(base), sorted(base | {100}),
                            sorted(base)], method
            assert rep.relaxed_branches == (("s", 0),)
            assert set(rep.clamped_generators) == base

    @pytest.mark.parametrize("ext, side", [(1, "q_max"), (6, "q_min")])
    def test_wrong_side_clamp_is_released(self, case118, base_nr,
                                          monkeypatch, ext, side):
        # bus 1 needs -0.03 of its [-0.05, 0.15] and bus 6 0.16 of its
        # [-0.13, 0.5]: pinned at the other limit, each drives its voltage
        # past the setpoint on the side that limit cannot hold
        base = base_nr.clamped_generators
        assert ext not in base
        pins = self.record_pins(monkeypatch)
        limit = getattr(case118.bus(ext), side)
        rep = _passes(case118, (), StudyOptions(method="nr"), flat_start,
                      {}, {**base, ext: limit})
        assert pins == [sorted({*base, ext}), sorted(base)]
        assert rep.clamped_generators == base
        assert abs(rep.voltage(ext)) == \
            pytest.approx(case118.bus(ext).v_setpoint, abs=1e-7)

    @pytest.mark.parametrize("devices", [
        (), (SsscDevice("s", (49, 50), ControlTarget(Mode.Q_FLOW, 0.0)),)],
        ids=["device-free", "sssc"])
    def test_limits_settle_at_a_loose_tol(self, case118, devices,
                                          monkeypatch):
        # at tol 1 every pass stops at its start, so the clamps and releases
        # are decided on unsolved voltages: each bus is released at most
        # once, and the first start settles
        outcomes = []

        def counting(*args):
            try:
                rep = _passes(*args)
            except (ConvergenceError, StudyError) as exc:
                outcomes.append(exc)
                raise
            outcomes.append(rep)
            return rep

        _base_solution(case118, StudyOptions(method="nr", tol=1))
        monkeypatch.setattr(report, "_passes", counting)
        pins = self.record_pins(monkeypatch)
        for method in ("nr", "nr-warm-ffhe"):
            outcomes.clear()
            pins.clear()
            rep = run_study(case118, devices, StudyOptions(method=method,
                                                           tol=1))
            assert outcomes == [rep], method
            assert len(pins) < report.MAX_PASSES

    @pytest.mark.parametrize("method", ["ffhe", "nr-warm-ffhe"])
    def test_failed_series_names_its_cause(self, case118, method):
        # at V = 0 the Jacobian is singular: the series message says so
        # after its counts
        def zero(sys_):
            return (np.zeros(sys_.n_bus, complex),
                    np.zeros(sys_.n_currents, complex))
        msg = ("series did not converge (0 terms, mismatch 6.070e+00; best "
               "6.070e+00 at term 0); singular Jacobian")
        with pytest.raises(ConvergenceError, match=f"^{re.escape(msg)}$"):
            _passes(case118, (), StudyOptions(method=method), zero, {}, {})

    @pytest.mark.parametrize("method, module", [("nr", "newton"),
                                                ("ffhe", "core")])
    def test_study_names_the_device_whose_current_vanishes(
            self, case118, monkeypatch, method, module):
        # every step's direction takes the v_se current to zero, and one
        # length is tried: the floor rejects that trial, and the study's
        # error names the device branch, from each start
        real = ffheflow.newton._damped_step

        def to_zero(sys_, V, I, dV, dI, bound, tries, r_full=None):
            return real(sys_, V, I, dV, -I, bound, 1, r_full)

        monkeypatch.setattr(getattr(ffheflow, module), "_damped_step",
                            to_zero)
        devices = (SsscDevice("s", (101, 102),
                              ControlTarget(Mode.V_SE, 0.1)),)
        with pytest.raises(StudyError) as err:
            run_study(case118, devices,
                      StudyOptions(method=method, max_terms=2))
        msg = str(err.value)
        assert msg.count("a device current vanishes") == 2
        assert msg.count(": device 's' branch 0 [") == 2

    def test_cap_on_the_passes(self, case118, monkeypatch):
        # the base case pins its generators in one pass and settles in a
        # second
        monkeypatch.setattr(report, "MAX_PASSES", 1)
        with pytest.raises(StudyError,
                           match=r"^study did not converge: limits did not "
                                 r"settle in 1 passes \(clamped: \[19, "):
            run_study(case118, (), StudyOptions(method="nr"))


class TestCandidates:
    """A device study holds each displaced regulator at one constant Q and
    tries it from the base study's clamps, then with no generator pinned."""

    @pytest.mark.parametrize("target, unlimited, pin", [
        (1.0, (), "q_min"), (1.025, (), "q_min"), (1.05, (), "q0"),
        (1.0, (49,), "q0"), (1.0, "all", "q0")],
        ids=["below", "at", "above", "below-unbounded", "no-base-clamps"])
    def test_error_names_every_failed_candidate(self, case118, monkeypatch,
                                                target, unlimited, pin):
        # a voltage target on the displaced bus 49 (setpoint 1.025) at or
        # below the setpoint pins its generator at q_min; above it, or
        # where q_min is infinite, the generator keeps its device-free
        # output.  The buses in ``unlimited`` lose their reactive limits;
        # with none left the base study clamps nothing, and the one start
        # left is tried once
        net = replace(case118, buses=tuple(
            replace(b, q_min=-np.inf, q_max=np.inf)
            if unlimited == "all" or b.ext_id in unlimited else b
            for b in case118.buses))
        bus = net.bus(49)
        assert bus.v_setpoint == 1.025
        base = _base_solution(net, StudyOptions(method="nr"))
        (q0,) = report.generator_reactive_output(
            base.system, base.V, base.I, [net.index_of[49]])
        tried = []

        def failing(net, devices, opts, start, frozen, clamps):
            tried.append(frozen[49])
            error = ConvergenceError if len(tried) % 2 else StudyError
            raise error(f"reason {len(tried)}")

        monkeypatch.setattr(report, "_passes", failing)
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.V_BUS, target))
        with pytest.raises(StudyError) as info:
            run_study(net, (dev,), StudyOptions(method="nr"))
        n_base = len(base.clamped_generators)
        starts = [f"{n_base} base clamps"] * bool(n_base) + ["unclamped"]
        assert (n_base == 0) == (unlimited == "all")
        assert tried == [{"q0": q0, "q_min": bus.q_min}[pin]] * len(starts)
        assert str(info.value) == "study did not converge: " + "; ".join(
            f"reason {n} [{start}, frozen {{49: {q:.6g}}}]"
            for n, (start, q) in enumerate(zip(starts, tried), 1))

    @pytest.mark.parametrize("target, pin", [
        (1.0, "q_min"), (1.025, "q_min"), (1.035, "q0"), (1.05, "q0")])
    def test_voltage_target_settles_at_its_pin(self, case118, base_nr,
                                               target, pin):
        # real solves: each target settles with the bus-49 generator at the
        # pin the rule picks, and the device holds |V49| at the target
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.V_BUS, target))
        rep = run_study(case118, (dev,), StudyOptions(method="nr"))
        (q0,) = report.generator_reactive_output(
            base_nr.system, base_nr.V, base_nr.I, [case118.index_of[49]])
        assert rep.frozen_q[49] == {"q0": q0,
                                    "q_min": case118.bus(49).q_min}[pin]
        assert abs(rep.voltage(49)) == pytest.approx(target, abs=1e-8)

    def test_unclamped_start_settles_where_the_clamped_one_stalls(
            self, case118, monkeypatch):
        # ladder-944 seed 2 under nr: Newton stalls from the 48 base clamps,
        # and the study settles from the start with no generator pinned
        net = ladder.tile_case(ffheflow, case118)
        devices = ladder.ladder_devices(ffheflow, ladder.draw_targets(2))
        base = _base_solution(net, StudyOptions(method="nr"))
        outcomes = []

        def counting(*args):
            try:
                rep = _passes(*args)
            except (ConvergenceError, StudyError) as exc:
                outcomes.append((len(args[-1]), exc))
                raise
            outcomes.append((len(args[-1]), rep))
            return rep

        monkeypatch.setattr(report, "_passes", counting)
        rep = run_study(net, devices, StudyOptions(method="nr"))
        (n_clamped, stalled), (n_unclamped, settled) = outcomes
        assert n_clamped == len(base.clamped_generators) == 48
        assert isinstance(stalled, ConvergenceError)
        assert str(stalled).startswith("stalled at iteration")
        assert (n_unclamped, settled) == (0, rep)


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
        copy = replace(case118)
        assert copy is not case118
        run_study(case118, (self.DEV,), self.NR)
        run_study(copy, (self.DEV,), self.NR)
        assert _base_solution.cache_info().hits == 1

    def test_series_options_share_the_newton_presolve(self, case118):
        run_study(case118, (self.DEV,), self.NR)
        run_study(case118, (self.DEV,),
                  StudyOptions(method="nr-warm-ffhe", warm_iters=2))
        assert _base_solution.cache_info().hits == 1

    @pytest.mark.parametrize("change", [{"tol": 1e-9}])
    def test_other_newton_options_miss(self, case118, change):
        run_study(case118, (self.DEV,), self.NR)
        run_study(case118, (self.DEV,), StudyOptions(method="nr", **change))
        info = _base_solution.cache_info()
        assert (info.hits, info.misses) == (0, 2)

    def test_study_leaves_the_base_clamps_alone(self, case118):
        # 49-50/q0 clamps bus 56 besides the base clamps it starts from
        base = _base_solution(case118, self.NR)
        before = dict(base.clamped_generators)
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.Q_FLOW, 0.0))
        rep = run_study(case118, (dev,), self.NR)
        assert _base_solution.cache_info().hits == 1
        assert set(rep.clamped_generators) == set(before) | {56}
        assert base.clamped_generators == before

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
