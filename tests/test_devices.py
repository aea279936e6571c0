"""Device description, output computation, and limit-relaxation tests."""

import json
import math

import numpy as np
import pytest

from ffheflow.devices import (CURRENT_FLOOR, BranchOutputs, ControlTarget,
                              DeviceConfigError, Mode, SeriesDevice,
                              SsscDevice, branch_outputs, load_devices,
                              relax_violations)


#: IPFC records that ``SeriesDevice`` rejects, each with the error it gives
#: through ``load_devices``: every message names the device
DEVICE_ERRORS = {
    "distinct-sending": (
        {"branches": [[49, 50], [48, 51]]},
        "device i7: a device needs branches that share the sending bus"),
    "two-targets": (
        {"targets": [{"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                     {"branch": 1, "mode": "p_flow", "setpoint": 0.75}]},
        "device i7: a device with 2 branches must control 3 quantities"),
    "branch-2": (
        {"targets": [{"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                     {"branch": 2, "mode": "p_flow", "setpoint": 0.75},
                     {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]},
        "device i7: target branch 2 out of range"),
    "duplicate": (
        {"targets": [{"branch": 0, "mode": "p_flow", "setpoint": 0.7},
                     {"branch": 0, "mode": "p_flow", "setpoint": 0.8},
                     {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]},
        "device i7: duplicate control target (<Mode.P_FLOW: 'p_flow'>, 0, "
        "None)"),
    "three-on-one-branch": (
        {"branches": [[49, 50], [49, 51], [49, 54]],
         "targets": [{"branch": 0, "mode": "p_flow", "setpoint": 0.7},
                     {"branch": 0, "mode": "q_flow", "setpoint": 0.1},
                     {"branch": 0, "mode": "q_inj", "setpoint": 0.1},
                     {"branch": 1, "mode": "p_flow", "setpoint": 0.7},
                     {"branch": 1, "mode": "q_flow", "setpoint": 0.1}]},
        "device i7: more than two targets on one device branch is ill "
        "posed"),
}


def ipfc_record(change: dict, device_id: str = "i7") -> dict:
    """The 49/c1 IPFC record with ``change`` applied."""
    return {"type": "ipfc", "id": device_id,
            "branches": [[49, 50], [49, 51]],
            "targets": [{"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                        {"branch": 1, "mode": "p_flow", "setpoint": 0.75},
                        {"branch": 1, "mode": "q_flow", "setpoint": 0.03}],
            **change}


class TestSsscValidation:
    def test_minimal(self):
        d = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        assert d.branches == ((49, 50),)
        assert d.targets[0].setpoint == 0.75
        assert d.z_se == (0.01 + 0.01j,)
        assert d.v_se_max == (None,)

    def test_nonzero_target_branch_rejected(self):
        with pytest.raises(DeviceConfigError,
                           match="^device s: target branch 1 out of range$"):
            SsscDevice("s", (1, 2), ControlTarget(Mode.P_FLOW, 0.1, branch=1))

    @pytest.mark.parametrize("branch", [[49, 50], np.array([49, 50]),
                                        range(49, 51)])
    def test_iterable_branch_is_a_pair(self, branch):
        d = SsscDevice("s", branch, ControlTarget(Mode.P_FLOW, 0.75))
        assert d.branches == ((49, 50),)

    @pytest.mark.parametrize("branch", [49, None, "49-50"])
    def test_bare_bus_id_rejected(self, branch):
        with pytest.raises(DeviceConfigError,
                           match=rf"^s: branch {branch!r} is not an \(i, j\) "
                                 "pair$"):
            SsscDevice("s", branch, ControlTarget(Mode.P_FLOW, 0.75))

    @pytest.mark.parametrize("branch", [False, 0.0])
    def test_target_branch_that_is_not_an_integer_rejected(self, branch):
        with pytest.raises(DeviceConfigError,
                           match=f"^device s: target branch {branch!r} is "
                                 "not an integer$"):
            SsscDevice("s", (49, 50),
                       ControlTarget(Mode.P_FLOW, 0.75, branch=branch))

    def test_companion_mode_needs_current_guess(self):
        with pytest.raises(DeviceConfigError, match="current guess"):
            SsscDevice("s", (1, 2), ControlTarget(Mode.V_SE, 0.2),
                       current_guess=0.0)

    @pytest.mark.parametrize("mode", [Mode.V_SE, Mode.X_EQ])
    def test_current_guess_below_the_floor_rejected(self, mode):
        with pytest.raises(DeviceConfigError,
                           match="current guess of magnitude 0.001 or more"):
            SsscDevice("s", (1, 2), ControlTarget(mode, 0.2),
                       current_guess=0.9e-3j)
        SsscDevice("s", (1, 2), ControlTarget(mode, 0.2),
                   current_guess=CURRENT_FLOOR)
        # a mode that does not divide by |I| takes any guess
        SsscDevice("s", (1, 2), ControlTarget(Mode.P_FLOW, 0.2),
                   current_guess=0.0)

    @pytest.mark.parametrize("setpoint", [0.2, -0.2])
    def test_vse_target_above_rating_rejected(self, setpoint):
        with pytest.raises(DeviceConfigError,
                           match="v_se target .* exceeds its rating 0.1"):
            SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, setpoint),
                       v_se_max=0.1)

    @pytest.mark.parametrize("setpoint, v_se_max", [
        (math.nan, None), (math.inf, None), (0.1, math.nan), (0.1, math.inf)])
    def test_non_finite_values_rejected(self, setpoint, v_se_max):
        with pytest.raises(DeviceConfigError, match="is not finite"):
            SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, setpoint),
                       v_se_max=v_se_max)

    @pytest.mark.parametrize("kw, match", [
        ({"z_se": complex(math.nan, 0.01)}, r"z_se \(nan\+0.01j\)"),
        ({"z_se": complex(0.01, math.inf)}, r"z_se \(0.01\+infj\)"),
        ({"current_guess": complex(math.nan, 0)},
         r"current_guess \(nan\+0j\)"),
    ], ids=["nan-z_se", "inf-z_se", "nan-current_guess"])
    def test_non_finite_complex_values_rejected(self, kw, match):
        with pytest.raises(DeviceConfigError, match=match + " is not finite"):
            SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9), **kw)

    @pytest.mark.parametrize("setpoint, kw, match", [
        ("0.9", {}, "setpoint '0.9'"),
        (True, {}, "setpoint True"),
        (0.9, {"v_se_max": "0.3"}, "v_se_max '0.3'"),
        (0.9, {"z_se": "0.01"}, "z_se '0.01'"),
        (0.9, {"current_guess": None}, "current_guess None"),
    ], ids=["str-setpoint", "bool-setpoint", "str-v_se_max", "str-z_se",
            "none-current_guess"])
    def test_non_number_values_rejected(self, setpoint, kw, match):
        # a library caller's values are checked as the JSON loader's are
        with pytest.raises(DeviceConfigError,
                           match=match + " is not a number"):
            SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, setpoint),
                       **kw)

    def test_vse_target_at_rating_accepted(self):
        d = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.1),
                       v_se_max=0.1)
        assert d.v_se_max == (0.1,)


class TestIpfcValidation:
    def _targets(self, n=3):
        return (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
                ControlTarget(Mode.P_FLOW, 0.75, branch=1),
                ControlTarget(Mode.Q_FLOW, 0.03, branch=1))[:n]

    def test_minimal(self):
        d = SeriesDevice("i", ((49, 50), (49, 51)), self._targets())
        assert d.z_se == (0.01 + 0.01j,) * 2
        assert d.current_guess == (0.1 + 0j,) * 2

    def test_single_branch_rejected(self):
        # one branch is an SSSC in Python; an "ipfc" record needs two
        with pytest.raises(DeviceConfigError, match="at least two"):
            load_devices(json.dumps([{
                "type": "ipfc", "branches": [[49, 50]],
                "targets": [{"mode": "p_flow", "setpoint": 0.75}]}]))

    def test_distinct_sending_rejected(self):
        with pytest.raises(DeviceConfigError, match="share the sending bus"):
            SeriesDevice("i", ((49, 50), (48, 51)), self._targets())

    def test_wrong_target_count(self):
        with pytest.raises(DeviceConfigError, match="must control 3"):
            SeriesDevice("i", ((49, 50), (49, 51)), self._targets(2))

    def test_duplicate_target(self):
        ts = (ControlTarget(Mode.P_FLOW, 0.7, branch=0),
              ControlTarget(Mode.P_FLOW, 0.8, branch=0),
              ControlTarget(Mode.P_FLOW, 0.7, branch=0))
        with pytest.raises(DeviceConfigError):
            SeriesDevice("i", ((49, 50), (49, 51)), ts)

    def test_three_targets_on_one_branch(self):
        ts = (ControlTarget(Mode.P_FLOW, 0.7, branch=0),
              ControlTarget(Mode.Q_FLOW, 0.1, branch=0),
              ControlTarget(Mode.Q_INJ, 0.1, branch=0),
              ControlTarget(Mode.P_FLOW, 0.7, branch=1),
              ControlTarget(Mode.Q_FLOW, 0.1, branch=1))
        with pytest.raises(DeviceConfigError, match="ill posed"):
            SeriesDevice("i", ((49, 50), (49, 51), (49, 54)), ts)

    def test_target_branch_out_of_range(self):
        ts = (ControlTarget(Mode.P_FLOW, 0.7, branch=0),
              ControlTarget(Mode.P_FLOW, 0.7, branch=2),
              ControlTarget(Mode.Q_FLOW, 0.1, branch=1))
        with pytest.raises(DeviceConfigError, match="out of range"):
            SeriesDevice("i", ((49, 50), (49, 51)), ts)

    @pytest.mark.parametrize("branch", [True, 1.0, np.int64(1)])
    def test_target_branch_of_another_type(self, branch):
        # a boolean or float branch is not read as branch 1; a numpy
        # integer is an integer
        ts = (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
              ControlTarget(Mode.P_FLOW, 0.75, branch=branch),
              ControlTarget(Mode.Q_FLOW, 0.03, branch=1))
        if isinstance(branch, np.integer):
            assert SeriesDevice("i", ((49, 50), (49, 51)), ts).targets == ts
            return
        with pytest.raises(DeviceConfigError,
                           match=f"^device i: target branch {branch!r} is "
                                 "not an integer$"):
            SeriesDevice("i", ((49, 50), (49, 51)), ts)

    @pytest.mark.parametrize("branches", [
        ((49,),), ((49, 50, 51),), ((49, 50), (49,)), (49,)],
        ids=["one-bus", "three-buses", "second-one-bus", "bare-bus"])
    def test_branch_that_is_not_a_pair_rejected(self, branches):
        n = len(branches)
        with pytest.raises(DeviceConfigError,
                           match=r"^i: branch .* is not an \(i, j\) pair$"):
            SeriesDevice("i", branches, self._targets(2 * n - 1))

    @pytest.mark.parametrize("mode", [m for m in Mode if m is not Mode.V_BUS])
    def test_bus_on_a_target_other_than_v_bus_rejected(self, mode):
        ts = (ControlTarget(Mode.P_FLOW, 0.7, branch=0),
              ControlTarget(mode, 0.1, branch=1, bus=51),
              ControlTarget(Mode.V_BUS, 1.0, branch=1, bus=51))
        with pytest.raises(DeviceConfigError,
                           match=f"^i: a {mode.value} target takes no bus "
                                 r"\(51\); only a v_bus target does$"):
            SeriesDevice("i", ((49, 50), (49, 51)), ts)
        # the v_bus target keeps its bus
        SeriesDevice("i", ((49, 50), (49, 51)), ts[:1] + (
            ControlTarget(mode, 0.1, branch=1), ts[2]))


class TestBranchOutputs:
    def test_basic_quantities(self):
        v_i = 1.0 + 0.0j
        v_m = 1.0 + 0.1j
        i_se = 0.5 - 0.2j
        out = branch_outputs(v_i, v_m, i_se)
        assert out.v_se == 0.1j
        assert out.s_se == pytest.approx(0.1j * (0.5 + 0.2j))
        assert out.s_line == pytest.approx(0.5 + 0.2j)
        assert out.x_eq == pytest.approx((0.1j / i_se).imag)

    def test_zero_current_reports_infinite_reactance(self):
        out = branch_outputs(1.0, 1.2, 1e-8)
        assert math.isinf(out.x_eq)

    def test_as_dict_round_trip(self):
        out = branch_outputs(1.0 + 0j, 1.0 + 0.1j, 0.5 + 0j)
        d = out.as_dict()
        assert d["v_se_mag"] == pytest.approx(0.1)
        assert d["v_se_deg"] == pytest.approx(90.0)
        assert d["s_line"] == [0.5, 0.0]
        assert json.dumps(d)  # JSON-serializable


class TestRelaxation:
    def _outputs(self, v_se_mag):
        return [BranchOutputs(v_se=v_se_mag + 0j, i_se=1.0, s_se=0j,
                              s_line=0j, x_eq=0.0)]

    def test_violation_replaces_target(self):
        d = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9),
                       v_se_max=0.3)
        new, relaxed = relax_violations([d], {"s": self._outputs(0.45)})
        assert relaxed == [("s", 0)]
        assert new[0].targets[0].mode is Mode.V_SE
        assert new[0].targets[0].setpoint == 0.3

    def test_within_limit_untouched(self):
        d = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9),
                       v_se_max=0.3)
        new, relaxed = relax_violations([d], {"s": self._outputs(0.29)})
        assert relaxed == []
        assert new[0] is d

    def test_no_limit_never_relaxes(self):
        d = SsscDevice("s", (101, 102), ControlTarget(Mode.P_FLOW, 0.9))
        _, relaxed = relax_violations([d], {"s": self._outputs(5.0)})
        assert relaxed == []

    def test_already_magnitude_controlled_not_rerelaxed(self):
        d = SsscDevice("s", (101, 102), ControlTarget(Mode.V_SE, 0.3),
                       v_se_max=0.3)
        new, relaxed = relax_violations([d], {"s": self._outputs(0.31)})
        assert relaxed == []
        assert new[0].targets[0].setpoint == 0.3

    def test_ipfc_branch_with_vse_target_over_rating_raises(self):
        # the v_se row pins only the part of V_se in quadrature with I
        d = SeriesDevice("i", ((49, 50), (49, 51)),
                         (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
                          ControlTarget(Mode.V_SE, 0.02, branch=1),
                          ControlTarget(Mode.Q_FLOW, 0.03, branch=1)),
                         v_se_max=(None, 0.03))
        outs = {"i": self._outputs(0.2) + self._outputs(0.05)}
        with pytest.raises(DeviceConfigError,
                           match=r"^i: branch 1 holds a v_se target but "
                                 r"\|V_se\| = 0\.05 exceeds its rating 0\.03"):
            relax_violations([d], outs)

    def test_ipfc_relaxes_single_branch(self):
        d = SeriesDevice("i", ((49, 50), (49, 51)),
                         (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
                          ControlTarget(Mode.P_FLOW, 0.75, branch=1),
                          ControlTarget(Mode.Q_FLOW, 0.03, branch=1)),
                         v_se_max=(0.1, 0.1))
        outs = {"i": self._outputs(0.2) + self._outputs(0.05)}
        new, relaxed = relax_violations([d], outs)
        assert relaxed == [("i", 0)]
        modes = [t.mode for t in new[0].targets]
        assert modes.count(Mode.V_SE) == 1
        assert new[0].targets[0].mode is Mode.V_SE


class TestLoadDevices:
    def test_sssc_record(self):
        devs = load_devices(json.dumps([{
            "type": "sssc", "branch": [49, 50], "mode": "p_flow",
            "setpoint": 0.75, "z_se": [0.01, 0.02], "v_se_max": 0.3}]))
        assert devs == [SsscDevice("sssc0", (49, 50),
                                   ControlTarget(Mode.P_FLOW, 0.75),
                                   z_se=0.01 + 0.02j, v_se_max=0.3)]

    def test_sssc_branch_key_is_line_not_target(self):
        # "branch" on an SSSC record names the line ends; the control target
        # always refers to the device's only branch
        devs = load_devices(json.dumps([{
            "type": "sssc", "branch": [101, 102], "mode": "x_eq",
            "setpoint": 0.1}]))
        assert devs[0].targets[0].branch == 0

    def test_ipfc_record(self):
        devs = load_devices(json.dumps([{
            "type": "ipfc", "branches": [[49, 50], [49, 51]],
            "targets": [
                {"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                {"branch": 1, "mode": "p_flow", "setpoint": 0.75},
                {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]}]))
        assert devs == [SeriesDevice(
            "ipfc0", ((49, 50), (49, 51)),
            (ControlTarget(Mode.P_FLOW, 0.75, branch=0),
             ControlTarget(Mode.P_FLOW, 0.75, branch=1),
             ControlTarget(Mode.Q_FLOW, 0.03, branch=1)))]

    @pytest.mark.parametrize("change, err", DEVICE_ERRORS.values(),
                             ids=DEVICE_ERRORS)
    def test_device_errors_name_the_device(self, change, err):
        with pytest.raises(DeviceConfigError) as info:
            load_devices(json.dumps([ipfc_record({}, "i6"),
                                     ipfc_record(change)]))
        assert str(info.value) == err

    def test_bad_json(self):
        with pytest.raises(DeviceConfigError, match="JSON"):
            load_devices("not json")

    def test_not_a_list(self):
        with pytest.raises(DeviceConfigError, match="list"):
            load_devices("{}")

    def test_unknown_type(self):
        with pytest.raises(DeviceConfigError, match="unknown type"):
            load_devices('[{"type": "statcom"}]')

    def test_bad_mode(self):
        with pytest.raises(DeviceConfigError, match="mode"):
            load_devices('[{"type": "sssc", "branch": [1, 2], '
                         '"mode": "warp", "setpoint": 1}]')

    def test_missing_setpoint(self):
        with pytest.raises(DeviceConfigError, match="setpoint"):
            load_devices('[{"type": "sssc", "branch": [1, 2], '
                         '"mode": "p_flow"}]')

    @pytest.mark.parametrize("bad", [1.9, 1.0, "1", True])
    def test_target_branch_must_be_an_integer(self, bad):
        record = {"type": "ipfc", "branches": [[49, 50], [49, 51]],
                  "targets": [
                      {"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                      {"branch": bad, "mode": "p_flow", "setpoint": 0.75},
                      {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]}
        with pytest.raises(DeviceConfigError,
                           match=f"device 0: target branch {bad!r} is not"):
            load_devices(json.dumps([record]))

    @pytest.mark.parametrize("bad", [49.5, "49"])
    def test_bus_ids_must_be_integers(self, bad):
        with pytest.raises(DeviceConfigError, match="device 0: bus"):
            load_devices(json.dumps([{
                "type": "sssc", "branch": [bad, 50], "mode": "p_flow",
                "setpoint": 0.75}]))

    @pytest.mark.parametrize("text, match", [
        ("[1]", "not a JSON object"),
        ('[{"type": "sssc", "mode": "p_flow", "setpoint": 0.75}]',
         "missing 'branch'"),
        ('[{"type": "ipfc", "targets": []}]', "missing 'branches'"),
        ('[{"type": "ipfc", "branches": [[49, 50], [49, 51]]}]',
         "missing 'targets'"),
        ('[{"type": "ipfc", "branches": [[49, 50], [49, 51]], '
         '"targets": [1, 2, 3]}]', "target is not a JSON object"),
        ('[{"type": "sssc", "branch": [1, 2], "mode": "p_flow", '
         '"setpoint": "high"}]', "device 0"),
        ('[{"type": "sssc", "branch": [1, 2], "mode": "p_flow", '
         '"setpoint": 0.5, "v_se_max": "rated"}]', "device 0"),
        ('[{"type": "sssc", "branch": [1, 2], "mode": "p_flow", '
         '"setpoint": [0.5]}]', "device 0"),
        ('[{"type": "sssc", "branch": [101, 102], "mode": "v_se", '
         '"setpoint": 0.2, "v_se_max": 0.1}]', "exceeds its rating"),
        ('[{"type": "ipfc", "branches": [[49, 50], [49, 51]], '
         '"v_se_max": [0.3], "targets": ['
         '{"branch": 0, "mode": "p_flow", "setpoint": 0.7}, '
         '{"branch": 1, "mode": "p_flow", "setpoint": 0.7}, '
         '{"branch": 1, "mode": "q_flow", "setpoint": 0.0}]}]',
         "one entry per branch"),
    ])
    def test_malformed_record(self, text, match):
        with pytest.raises(DeviceConfigError, match=match):
            load_devices(text)

    @pytest.mark.parametrize("change, match", [
        ({"setpoint": "0.75"}, "setpoint '0.75' is not a number"),
        ({"setpoint": True}, "setpoint True is not a number"),
        ({"setpoint": math.nan}, "setpoint nan is not finite"),
        ({"v_se_max": "0.3"}, "v_se_max '0.3' is not a number"),
        ({"z_se": "0.01+0.02j"}, "z_se '0.01\\+0.02j' is not a number"),
        ({"z_se": True}, "z_se True is not a number"),
        ({"z_se": [0.01, "0.02"]}, "z_se '0.02' is not a number"),
        ({"current_guess": "0.2"}, "current_guess '0.2' is not a number"),
        ({"mode": "v_bus", "setpoint": 1.0, "bus": 50.0},
         "target bus 50.0 is not an integer"),
        ({"mode": "v_bus", "setpoint": 1.0, "bus": "50"},
         "target bus '50' is not an integer"),
        ({"id": ["a"]}, "id \\['a'\\] is not a string"),
        ({"branch": [49]},
         "^sssc0: branch \\(49,\\) is not an \\(i, j\\) pair$"),
        ({"branch": [49, 50, 51]},
         "^sssc0: branch \\(49, 50, 51\\) is not an \\(i, j\\) pair$"),
        ({"bus": 50}, "^sssc0: a p_flow target takes no bus \\(50\\)"),
    ], ids=["str-setpoint", "bool-setpoint", "nan-setpoint", "str-v_se_max",
            "str-z_se", "bool-z_se", "str-z_se-part", "str-current_guess",
            "float-bus", "str-bus", "list-id", "one-bus-branch",
            "three-bus-branch", "bus-on-p_flow"])
    def test_values_are_type_checked_not_coerced(self, change, match):
        record = {"type": "sssc", "branch": [49, 50], "mode": "p_flow",
                  "setpoint": 0.75, **change}
        with pytest.raises(DeviceConfigError, match=match):
            load_devices(json.dumps([record]))

    def test_ipfc_values_are_type_checked(self):
        record = {"type": "ipfc", "branches": [[49, 50], [49, 51]],
                  "targets": [
                      {"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                      {"branch": 1, "mode": "p_flow", "setpoint": 0.75},
                      {"branch": 1, "mode": "q_flow", "setpoint": "0.03"}]}
        with pytest.raises(DeviceConfigError,
                           match="setpoint '0.03' is not a number"):
            load_devices(json.dumps([record]))
