"""Case parsing, admittance matrix, and device-splicing tests."""

from dataclasses import replace

import numpy as np
import pytest

from ffheflow import load_bundled_case, run_study, StudyOptions
from ffheflow.network import (Branch, Bus, BusKind, Network, ParseError,
                              TopologyError, build_admittance_matrix,
                              insert_series_device, parse_case)

MINI_CASE = """
function mpc = mini
mpc.baseMVA = 100;
mpc.bus = [
  1 3  0  0 0 0 1 1.02 0 345 1 1.1 0.9;
  2 1 50 20 0 0 1 1.00 0 345 1 1.1 0.9;
  3 2  0  0 0 5 1 1.00 0 345 1 1.1 0.9;
];
mpc.gen = [
  1 0  0 300 -300 1.02 100 1 500 -500;
  3 80 10 150 -150 1.05 100 1 200 -200;
];
mpc.branch = [
  1 2 0.01 0.05 0.02 0 0 0 0    0 1 -360 360;
  2 3 0.02 0.10 0.00 0 0 0 1.05 2 1 -360 360;
  1 3 0.01 0.04 0.00 0 0 0 0    0 0 -360 360;
];
"""


@pytest.fixture(scope="module")
def mini():
    return parse_case(MINI_CASE, name="mini")


class TestParse:
    def test_bus_kinds_and_loads(self, mini):
        assert mini.n_bus == 3
        assert mini.bus(1).kind is BusKind.SLACK
        assert mini.bus(2).kind is BusKind.PQ
        assert mini.bus(3).kind is BusKind.PV
        assert mini.bus(2).p_load == pytest.approx(0.5)
        assert mini.bus(2).q_load == pytest.approx(0.2)

    def test_gen_aggregation_and_setpoints(self, mini):
        b3 = mini.bus(3)
        assert b3.p_gen == pytest.approx(0.8)
        assert b3.v_setpoint == pytest.approx(1.05)
        assert b3.q_max == pytest.approx(1.5)
        assert b3.q_min == pytest.approx(-1.5)
        assert mini.bus(1).v_setpoint == pytest.approx(1.02)

    def test_shunt_in_per_unit(self, mini):
        assert mini.bus(3).shunt_b == pytest.approx(0.05)

    def test_out_of_service_branch_dropped(self, mini):
        assert len(mini.branches) == 2
        with pytest.raises(TopologyError):
            mini.find_branch(1, 3)

    def test_tap_and_shift(self, mini):
        br = mini.branches[mini.find_branch(2, 3)]
        assert abs(br.tap) == pytest.approx(1.05)
        assert np.angle(br.tap) == pytest.approx(np.deg2rad(2.0))

    def test_missing_base_mva(self):
        with pytest.raises(ParseError, match="baseMVA"):
            parse_case("mpc.bus = [];")

    def test_missing_table(self):
        with pytest.raises(ParseError, match="mpc.gen"):
            parse_case("mpc.baseMVA = 100;\nmpc.bus = [1 3 0 0 0 0 1 1 0];\n"
                       "mpc.branch = [];")

    def test_bad_number(self):
        bad = MINI_CASE.replace("50 20", "50 oops")
        with pytest.raises(ParseError, match="row"):
            parse_case(bad)

    def test_duplicate_bus(self):
        bad = MINI_CASE.replace(
            "2 1 50 20", "2 1 50 20 0 0 1 1.00 0 345 1 1.1 0.9;\n  2 1 0 0")
        with pytest.raises(ParseError, match="duplicate"):
            parse_case(bad)

    def test_zero_impedance_branch(self):
        bad = MINI_CASE.replace("1 2 0.01 0.05", "1 2 0.0 0.0")
        with pytest.raises(ParseError, match="zero series impedance"):
            parse_case(bad)

    def test_unknown_branch_bus(self):
        bad = MINI_CASE.replace("2 3 0.02", "2 9 0.02")
        with pytest.raises(ParseError, match="unknown bus"):
            parse_case(bad)


    def test_pv_bus_without_an_in_service_generator_is_pq(self):
        # MATPOWER's bustypes: a type-2 bus needs an in-service generator
        text = MINI_CASE.replace("3 80 10 150 -150 1.05 100 1",
                                 "3 80 10 150 -150 1.05 100 0")
        net = parse_case(text, name="mini")
        b3 = net.bus(3)
        assert b3.kind is BusKind.PQ
        assert (b3.p_gen, b3.q_min, b3.q_max) == (0.0, -np.inf, np.inf)
        # the study does not pin |V3| at the generator's 1.05: it solves
        # the case with bus 3 written as PQ
        rep = run_study(net, (), StudyOptions(method="nr"))
        pq_text = text.replace("3 2  0  0 0 5", "3 1  0  0 0 5")
        pq = run_study(parse_case(pq_text), (), StudyOptions(method="nr"))
        assert rep.converged
        assert abs(rep.voltage(3)) == pytest.approx(0.9645, abs=1e-4)
        assert np.array_equal(rep.V, pq.V)


class TestParseMemo:
    """Equal case text and name give one shared :class:`Network`."""

    def test_equal_text_and_name_give_the_identical_network(self, mini):
        net = parse_case(MINI_CASE, name="mini")
        assert parse_case(MINI_CASE, "mini") is net
        assert parse_case(text=MINI_CASE, name="mini") is net
        copy = MINI_CASE[:40] + MINI_CASE[40:]     # equal, not the same
        assert copy is not MINI_CASE
        assert parse_case(copy, name="mini") is net
        assert parse_case(MINI_CASE) is parse_case(MINI_CASE, "")

    def test_another_name_gives_another_instance(self):
        net = parse_case(MINI_CASE, name="mini")
        other = parse_case(MINI_CASE, name="other")
        assert other is not net
        assert other.buses == net.buses and other.name == "other"

    def test_bundled_case_is_interned(self):
        assert load_bundled_case() is load_bundled_case()

    def test_parse_error_raised_on_every_call(self):
        bad = MINI_CASE.replace("50 20", "50 oops")
        for _ in range(3):
            with pytest.raises(ParseError, match="row"):
                parse_case(bad, name="mini")


class TestNetworkInvariants:
    def test_exactly_one_slack_required(self):
        with pytest.raises(TopologyError, match="slack"):
            Network(buses=(Bus(1, BusKind.PQ),), branches=(), base_mva=100.0)

    def test_index_round_trip(self, mini):
        for b in mini.buses:
            assert mini.buses[mini.index_of[b.ext_id]] is b

    def test_index_and_hash_kept_equality_by_content(self, mini):
        assert mini.index_of is mini.index_of
        copy = replace(mini)
        assert copy is not mini
        assert copy == mini and hash(copy) == hash(mini)
        assert Network(mini.buses, mini.branches[:1], mini.base_mva) != mini


class TestAdmittance:
    def test_row_sums_without_shunts(self):
        net = Network(
            buses=(Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ)),
            branches=(Branch(1, 2, 0.01, 0.1),),
            base_mva=100.0)
        Y = build_admittance_matrix(net).toarray()
        # no shunts, no taps: zero row sums and symmetry
        assert np.allclose(Y.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(Y, Y.T)
        assert Y[0, 1] == pytest.approx(-1.0 / (0.01 + 0.1j))

    def test_tap_asymmetry(self, mini):
        Y = build_admittance_matrix(mini).toarray()
        i, j = mini.index_of[2], mini.index_of[3]
        br = mini.branches[mini.find_branch(2, 3)]
        ys = 1.0 / br.series_impedance
        assert Y[i, j] == pytest.approx(-ys / np.conj(br.tap))
        assert Y[j, i] == pytest.approx(-ys / br.tap)

    def test_bundled_case_shape(self, case118):
        Y = build_admittance_matrix(case118).toarray()
        assert case118.n_bus == 118
        assert Y.shape == (118, 118)
        # every branch couples its two buses
        for br in case118.branches:
            assert Y[case118.index_of[br.from_bus],
                     case118.index_of[br.to_bus]] != 0


class TestInsertDevice:
    def test_sssc_splice(self, mini):
        z_c = 0.01 + 0.01j
        new, aux_ids = insert_series_device(mini, [(2, 3)], [z_c])
        assert aux_ids == (4,)          # max ext id + 1
        assert new.n_bus == 4
        aux = new.bus(4)
        assert aux.kind is BusKind.AUXILIARY
        # original branch replaced by aux -> receiving with summed impedance
        with pytest.raises(TopologyError):
            new.find_branch(2, 3)
        br = new.branches[new.find_branch(4, 3)]
        orig = mini.branches[mini.find_branch(2, 3)]
        assert br.series_impedance == pytest.approx(
            orig.series_impedance + z_c)
        assert br.tap == pytest.approx(orig.tap)

    def test_charging_split_to_shunts(self, mini):
        new, _ = insert_series_device(mini, [(1, 2)], [0.01j])
        orig = mini.branches[mini.find_branch(1, 2)]
        assert new.bus(1).shunt_b == pytest.approx(
            mini.bus(1).shunt_b + orig.charging_b / 2)
        assert new.bus(2).shunt_b == pytest.approx(
            mini.bus(2).shunt_b + orig.charging_b / 2)
        assert new.branches[new.find_branch(4, 2)].charging_b == 0.0

    @pytest.mark.parametrize("charging", [0.0, 0.04])
    @pytest.mark.parametrize(
        "tap", [1.0, 0.95, 0.95 * np.exp(1j * np.deg2rad(5.7))],
        ids=["nominal", "ratio", "shifted"])
    @pytest.mark.parametrize("listing", [(2, 3), (3, 2)], ids=["i-j", "j-i"])
    def test_transparent_splice(self, listing, tap, charging):
        # a device with zero coupling impedance at V_m = V_i, passing the
        # current that enters the spliced branch at m, leaves every bus
        # current as it was without the device, whichever end the tap is on
        net = Network(
            buses=(Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ),
                   Bus(3, BusKind.PQ)),
            branches=(Branch(1, 2, 0.01, 0.1, 0.02),
                      Branch(*listing, 0.02, 0.08, charging, tap)),
            base_mva=100.0)
        rng = np.random.default_rng(5)
        V = (1 + 0.05 * rng.standard_normal(3)) \
            * np.exp(0.1j * rng.standard_normal(3))
        new, aux = insert_series_device(net, [(2, 3)], [0j])
        m = new.index_of[aux[0]]
        inj = build_admittance_matrix(new) @ np.append(V, V[1])
        inj[new.index_of[2]] += inj[m]
        gap = inj[:3] - build_admittance_matrix(net) @ V
        assert np.max(np.abs(gap)) <= 1e-12

    def test_mismatched_sending_bus(self, mini):
        with pytest.raises(TopologyError, match="share the sending bus"):
            insert_series_device(mini, [(1, 2), (2, 3)], [0j, 0j])

    def test_missing_branch(self, mini):
        with pytest.raises(TopologyError, match="no branch"):
            insert_series_device(mini, [(1, 99)], [0j])

    def test_ipfc_two_aux_buses(self, case118):
        branches = [(49, 50), (49, 51)]
        new, aux = insert_series_device(case118, branches,
                                        [0.01 + 0.01j] * 2)
        assert len(aux) == 2
        assert new.n_bus == 120
        for m, (_, j) in zip(aux, branches):
            assert new.find_branch(m, j) >= 0


def test_load_bundled_case_unknown():
    with pytest.raises(FileNotFoundError):
        load_bundled_case("nonexistent")
