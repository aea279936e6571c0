"""The verdicts of ``tools/same_answers.py`` on hand-built answers."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from same_answers import (_corpus, _messages, _random_fields,  # noqa: E402
                          _random_study, against_newton, compare,
                          tally_line)
import ffheflow  # noqa: E402
from conftest import random_sssc_study  # noqa: E402

KEY = ("49-50/p0.75", "nr")
STATS = {"nr": (5, 0, True)}
RAISED = "ConvergenceError: series did not converge (6 terms, mismatch 1e-03)"
EXTENDED = RAISED[:-1] + "; best 1e-05 at term 1)"


LIMITS = {"clamped": {19: -0.08, 100: 1.55}, "frozen_q": {49: 1.1565},
          "relaxed": (("s", 0),), "mismatch": 3.1e-12}


def _answer(V=(1.0 + 0.1j, 0.98 - 0.05j), I=(0.7 + 0.2j,), stats=STATS,
            **limits):
    return {KEY: {"V": np.array(V), "I": np.array(I), "stats": dict(stats),
                  "limits": {**LIMITS, **limits}}}


def _raise(msg=RAISED):
    return {KEY: {"raise": msg}}


def _one_bit_off():
    """:func:`_answer` with V[0].real one unit in the last place larger."""
    out = _answer()
    V = out[KEY]["V"]
    V.view(float)[0] = np.nextafter(V[0].real, 2.0)
    return out


def _verdict(here, other, within=None):
    tally, *_ = compare(here, other, within)
    assert sum(tally.values()) == 1
    return next(v for v, n in tally.items() if n)


def test_bitwise_equal_answers_are_the_same(capsys):
    assert _verdict(_answer(), _answer()) == "same"
    assert "V/I bitwise" in capsys.readouterr().out


def test_one_bit_of_V_is_a_difference(capsys):
    assert _verdict(_one_bit_off(), _answer()) == "DIFF"
    assert "V/I DIFFER" in capsys.readouterr().out


def test_other_counts_are_a_difference():
    other = _answer(stats={"nr": (6, 0, True)})
    assert _verdict(_answer(), other) == "DIFF"


@pytest.mark.parametrize("within, verdict", [(None, "DIFF"), (1e-10, "DIFF"),
                                             (1e-6, "near")])
def test_near_only_within_the_bound(within, verdict):
    moved = _answer(V=(1.0 + 0.1j, 0.98 - 0.05j + 1e-8))
    assert _verdict(moved, _answer(), within) == verdict


def test_near_needs_the_same_converged_flags():
    moved = _answer(I=(0.7 + 0.2j + 1e-9,), stats={"nr": (5, 0, False)})
    assert _verdict(moved, _answer(), within=1e-6) == "DIFF"


@pytest.mark.parametrize("limits", [
    {"clamped": {19: -0.08, 100: np.nextafter(1.55, 2.0)}},
    {"clamped": {19: -0.08}},
    {"frozen_q": {49: 1.1566}},
    {"frozen_q": {}},
    {"relaxed": ()},
    {"mismatch": np.nextafter(3.1e-12, 1.0)}],
    ids=["pinned-q", "clamped-set", "frozen-q", "frozen-set", "relaxed",
         "mismatch"])
def test_other_settled_limits_are_a_difference(limits, capsys):
    assert _verdict(_answer(**limits), _answer()) == "DIFF"
    key = next(iter(limits))
    assert f"; {key} " in capsys.readouterr().out


@pytest.mark.parametrize("limits, verdict", [
    ({"clamped": {19: -0.08, 100: 1.56}, "frozen_q": {49: 1.1566},
      "mismatch": 4e-12}, "near"),
    ({"clamped": {19: -0.08}}, "DIFF"),
    ({"frozen_q": {}}, "DIFF"),
    ({"relaxed": ()}, "DIFF")])
def test_near_needs_the_same_clamps_pins_and_relaxations(limits, verdict):
    moved = _answer(V=(1.0 + 0.1j, 0.98 - 0.05j + 1e-8), **limits)
    assert _verdict(moved, _answer(), within=1e-6) == verdict


@pytest.mark.parametrize("within", [None, 1.0])
def test_a_raise_in_one_tree_only_is_a_difference(within, capsys):
    assert _verdict(_raise(), _answer(), within) == "DIFF"
    assert _verdict(_answer(), _raise(), within) == "DIFF"
    assert "raises in one tree only" in capsys.readouterr().out


def test_a_raise_in_one_tree_only_is_one_line(capsys):
    # the converging tree's V and I are not printed, however long
    big = _answer(V=np.full(500, 1.0 + 0.1j), I=np.full(500, 0.7 + 0.2j))
    for here, other in ((_raise(), big), (big, _raise())):
        assert _verdict(here, other) == "DIFF"
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "array(" not in out
        assert repr(RAISED) in out and "nr (5, 0, True)" in out


def test_raises_in_both_trees():
    assert _verdict(_raise(), _raise()) == "same"
    assert _verdict(_raise(EXTENDED), _raise()) == "same"
    assert _verdict(_raise("StudyError: other"), _raise()) == "DIFF"
    assert _verdict(_raise("StudyError: other"), _raise(), 1e-6) == "near"


def test_messages():
    assert _messages(RAISED, RAISED) == (False, "same raise")
    for a, b in ((RAISED, EXTENDED), (EXTENDED, RAISED)):
        assert _messages(a, b) == (
            False, "extended by '; best 1e-05 at term 1'")
    # a clause inserted at each of two places, as a study that tries two
    # starts reports each start's failure
    two = "E: a (1 terms) [start 1]; a (2 terms) [start 2]"
    longer = "E: a (1 terms); cap [start 1]; a (2 terms); stall [start 2]"
    for a, b in ((two, longer), (longer, two)):
        assert _messages(a, b) == (False, "extended by '; cap', '; stall'")
    assert _messages(two, longer.replace("2 terms", "3 terms"))[0]
    # an inserted clause that does not start with "; ", and another message
    assert _messages(RAISED, RAISED[:-1] + " best 1e-05 at term 1)")[0]
    assert _messages(RAISED, RAISED.replace("6 terms", "7 terms"))[0]



def test_near_gap_is_the_largest_over_converged_near_pairs(capsys):
    """Two near pairs and a pair that raises in both trees: the gap is the
    largest |dV| and |dI| of the two that converge, each on its own."""
    base = _answer()[KEY]
    here = {("a", "nr"): {**base, "V": base["V"] + 1e-9},
            ("b", "nr"): {**base, "I": base["I"] + 2e-10},
            ("c", "nr"): {"raise": "StudyError: other"},
            ("d", "nr"): base}
    other = {("a", "nr"): base, ("b", "nr"): base,
             ("c", "nr"): {"raise": RAISED}, ("d", "nr"): base}
    tally, (dv, di), _ = compare(here, other, within=1e-6)
    assert tally == {"same": 1, "near": 3, "DIFF": 0}
    assert (dv, di) == pytest.approx((1e-9, 2e-10), rel=1e-6)
    assert compare(here, other)[1] == (0.0, 0.0)
    capsys.readouterr()


def test_moved_counts_are_named_with_their_methods(capsys):
    """Pairs that converge in both trees and whose (iterations, terms)
    moved are named, with each moved method's counts here and there; a
    pair whose only change is a converged flag, or that raises, is not."""
    base = _answer()[KEY]
    here = {("a", "ffhe"): {**base, "stats": {"ffhe": (0, 23, True)}},
            ("b", "compare"): {**base, "stats": {"nr": (5, 0, True),
                                                 "ffhe": (0, 45, True)}},
            ("c", "nr"): {**base, "stats": {"nr": (5, 0, False)}},
            ("d", "nr"): _raise()[KEY],
            ("e", "nr"): base}
    other = {("a", "ffhe"): {**base, "stats": {"ffhe": (0, 40, True)}},
             ("b", "compare"): {**base, "stats": {"nr": (5, 0, True),
                                                  "ffhe": (0, 44, True)}},
             ("c", "nr"): base,
             ("d", "nr"): {**base, "stats": {"nr": (9, 0, True)}},
             ("e", "nr"): base}
    tally, gap, moved = compare(here, other)
    assert moved == ["a ffhe [ffhe (0, 23) vs (0, 40)]",
                     "b compare [ffhe (0, 45) vs (0, 44)]"]
    assert tally_line("random-sssc", tally, gap, moved) == (
        "random-sssc: 1 of 5 pairs the same, 0 near (max |dV| 0.0e+00, "
        "|dI| 0.0e+00 where both converge), 4 differ; (iterations, terms) "
        "moved in 2: a ffhe [ffhe (0, 23) vs (0, 40)], "
        "b compare [ffhe (0, 45) vs (0, 44)]")
    capsys.readouterr()


def test_tally_line_without_moved_counts():
    tally = {"same": 88, "near": 2, "DIFF": 0}
    assert tally_line("scenario", tally, (1.7e-13, 7e-13), []) == (
        "scenario: 88 of 90 pairs the same, 2 near (max |dV| 1.7e-13, "
        "|dI| 7.0e-13 where both converge), 0 differ; (iterations, terms) "
        "moved in 0")


def test_series_against_newton_in_one_tree():
    """A series pair that raises counts only where nr converges on its
    label; the gap is the largest |V - V_nr| over the series pairs that
    converge, Pade included, and leaves out compare and labels where nr
    raises."""
    base = _answer()[KEY]
    moved = {**base, "V": base["V"] + 3e-9}
    answers = {("a", "nr"): base, ("a", "ffhe"): _raise()[KEY],
               ("a", "nr-warm-ffhe"): moved,
               ("a", "compare"): {**base, "V": base["V"] + 1.0},
               ("b", "nr"): base, ("b", "ffhe+pade"): {**base,
                                                      "V": base["V"] - 4e-9},
               ("c", "nr"): _raise()[KEY], ("c", "ffhe"): _raise()[KEY],
               ("c", "nr-warm-ffhe"): {**base, "V": base["V"] + 1.0}}
    lost, gap = against_newton(answers)
    assert lost == ["a ffhe"]
    assert gap == pytest.approx(4e-9, rel=1e-6)
    assert against_newton({("a", "nr"): base}) == ([], 0.0)


def test_corpus_of_a_label():
    assert _corpus("49-50/p0.75") == "scenario"
    assert _corpus("100/c1") == "scenario"
    assert _corpus("base") == "scenario"
    assert _corpus("ladder/3") == "ladder-944"
    assert _corpus("random/57") == "random-sssc"


def test_random_draw_survives_its_plain_fields():
    for k in (0, 57):
        net, dev = random_sssc_study(np.random.default_rng(k))
        assert _random_study(ffheflow, _random_fields(net, dev)) == \
            (net, (dev,))
