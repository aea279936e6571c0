"""Compare the answers of two checkouts on the 18 benchmark scenarios, on
a slice of ``ladder-944`` studies and on random small SSSC studies.

Run from the root of a checkout, against another one (say, a
``git archive`` of its parent)::

    python3 tools/same_answers.py <other-checkout>

Each tree runs in its own subprocess, with only its own ``src`` on the
import path.  Both run the same corpus, taken from this checkout's
``perfbench`` and ``tests/conftest.py``:

* the scenarios of ``perfbench/scenarios.py`` on case118 under ``nr``,
  ``nr-warm-ffhe``, ``ffhe``, ``compare`` and ``ffhe`` with ``pade`` (90
  pairs);
* the ``ladder-944`` studies of ``perfbench/ladder.py`` (8 tiled case118
  copies, one seeded SSSC each) for seeds 1-12 under ``nr`` and
  ``nr-warm-ffhe`` (24 pairs, labelled ``ladder/<seed>``);
* the ``tests/conftest.random_sssc_study`` draws 0-199 under ``nr``,
  ``nr-warm-ffhe`` and ``ffhe`` (600 pairs, labelled ``random/<k>``).
  Draw k is ``random_sssc_study(np.random.default_rng(k))``, drawn once,
  by this checkout, and handed to both trees as plain fields, so both
  solve the same network and device.

The whole corpus takes ~20 s on a 2-vCPU machine, both trees at once;
drawing the 200 random studies takes ~3 s of that.
Per pair the report gives whether ``V`` and ``I`` are bitwise equal, the
largest |dV| and |dI|, each method's (iterations, terms, converged), and
the message of a study that raises; a pair that raises in one tree only
gets one line, with that message and the other tree's counts.  It also
compares what the limit passes settled on: the clamped generators with
their pinned Q, the displaced regulators' ``frozen_q``, the relaxed
branches and the mismatch.

The exit status is 1 on any difference: V or I not bitwise equal, other
counts, other settled limits or mismatch, a study that raises in one
tree only, or another raise message.  The last lines give each corpus's
tally, the pairs that raise in each tree, and the wall time.  A tally
also names the pairs that converge in both trees but whose (iterations,
terms) moved, each with the counts of the methods that moved, so a change
that moves counts by rounding lists them in one line.  Per tree and
corpus the last lines also name each series pair (``nr-warm-ffhe``,
``ffhe``, ``ffhe+pade``) that raises where ``nr`` converges in that tree,
and give the largest |V - V_nr| over the series pairs that converge where
``nr`` does.
A message that only inserts clauses (each ``"; ..."``) into the other
tree's is reported as extended and is not a difference.

For a change that moves the iterates by design, ``--within DV`` reports a
differing pair as ``near``, not a difference, when both trees raise, or
when neither raises, every method's converged flag agrees, the same
generators are clamped and pinned and the same branches relaxed, and V
and I differ by at most DV.  The counts, the pinned Q values, the
mismatch and the raise messages are printed as before, and each corpus's
tally also gives the largest |dV| and |dI| over its near pairs that
converge in both trees.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

METHODS = (("nr", {"method": "nr"}),
           ("nr-warm-ffhe", {"method": "nr-warm-ffhe"}),
           ("ffhe", {"method": "ffhe"}),
           ("compare", {"method": "compare"}),
           ("ffhe+pade", {"method": "ffhe", "pade": True}))
LADDER_SEEDS = range(1, 13)
LADDER_METHODS = ("nr", "nr-warm-ffhe")
RANDOM_DRAWS = range(200)
RANDOM_METHODS = ("nr", "nr-warm-ffhe", "ffhe")
SERIES_METHODS = ("nr-warm-ffhe", "ffhe", "ffhe+pade")
CORPORA = ("scenario", "ladder-944", "random-sssc")


def _scenarios() -> dict:
    """Label -> device-config records, from this checkout's benchmark."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from scenarios import LABELS, device_records
    return {label: device_records(label) for label in LABELS}


def _random_draws() -> dict:
    """``random/<k>`` -> draw k of ``random_sssc_study`` as (network
    fields, bus fields, branch fields, device record), drawn by this
    checkout's ``ffheflow``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import ffheflow as ff
    from conftest import random_sssc_study

    draws = {}
    for k in RANDOM_DRAWS:
        net, dev = random_sssc_study(np.random.default_rng(k))
        fields = _random_fields(net, dev)
        if _random_study(ff, fields) != (net, (dev,)):
            raise SystemExit(f"draw {k} does not survive its plain fields")
        draws[f"random/{k}"] = fields
    return draws


def _random_fields(net, dev) -> tuple:
    """One random draw, a network and an SSSC with one target, as plain
    fields that either tree's ``ffheflow`` can rebuild."""
    (target,) = dev.targets
    return ({"base_mva": net.base_mva, "name": net.name},
            [{**vars(b), "kind": b.kind.value} for b in net.buses],
            [vars(br) for br in net.branches],
            {"type": "sssc", "id": dev.device_id,
             "branch": list(dev.branches[0]),
             "mode": target.mode.value, "setpoint": target.setpoint})


def _random_study(ff, fields) -> tuple:
    """(network, devices) from the plain fields of one random draw."""
    net, buses, branches, record = fields
    case = ff.Network(
        buses=tuple(ff.Bus(**{**b, "kind": ff.BusKind(b["kind"])})
                    for b in buses),
        branches=tuple(ff.Branch(**br) for br in branches), **net)
    return case, tuple(ff.load_devices(json.dumps([record])))


def _worker(corpus: dict) -> dict:
    """Every pair of the corpus, solved by the ``ffheflow`` in ``./src``."""
    import ffheflow as ff

    src = Path.cwd().resolve() / "src"
    if not Path(ff.__file__ or "").resolve().is_relative_to(src):
        raise SystemExit(f"imported {ff.__file__}, not the one in {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import ladder

    net = ff.load_bundled_case()
    studies = [((label, name), net, tuple(ff.load_devices(json.dumps(recs))),
                opts)
               for label, recs in corpus["scenarios"].items()
               for name, opts in METHODS]
    tiled = ladder.tile_case(ff, net)
    for seed in LADDER_SEEDS:
        devices = ladder.ladder_devices(ff, ladder.draw_targets(seed))
        studies += [((f"ladder/{seed}", name), tiled, devices,
                     {"method": name}) for name in LADDER_METHODS]
    for label, fields in corpus["random"].items():
        case, devices = _random_study(ff, fields)
        studies += [((label, name), case, devices, {"method": name})
                    for name in RANDOM_METHODS]
    out = {}
    for key, case, devices, opts in studies:
        try:
            rep = ff.run_study(case, devices, ff.StudyOptions(**opts))
        except (ff.StudyError, ff.ConvergenceError) as exc:
            out[key] = {"raise": f"{type(exc).__name__}: {exc}"}
            continue
        out[key] = {
            "V": np.array(rep.V), "I": np.array(rep.I),
            "stats": {m: (st.iterations, st.terms, st.converged)
                      for m, st in rep.stats.items()},
            "limits": {"clamped": dict(rep.clamped_generators),
                       "frozen_q": dict(rep.frozen_q),
                       "relaxed": tuple(rep.relaxed_branches),
                       "mismatch": rep.mismatch}}
    return out


def _run_tree(tree: Path):
    """Start the worker on ``tree``'s ``src``; returns the process."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _collect(proc, corpus: dict) -> dict:
    out, _ = proc.communicate(pickle.dumps(corpus))
    if proc.returncode:
        raise SystemExit(f"worker in {proc.args} exited {proc.returncode}")
    return pickle.loads(out)


def _inserted(short: str, long_: str):
    """The clauses, each starting with ``"; "``, whose insertion into
    ``short`` gives ``long_``, in order; None if there are none such."""
    if short == long_:
        return []
    i = len(os.path.commonprefix([short, long_]))
    for j in range(i, -1, -1):              # where the first clause starts
        if not long_.startswith("; ", j):
            continue
        for k in range(j + 2, len(long_) + 1):      # and where it ends
            rest = _inserted(short[j:], long_[k:])
            if rest is not None:
                return [long_[j:k], *rest]
    return None


def _messages(a: str, b: str) -> tuple:
    """(difference?, note) for two raise messages: the same, or one is the
    other with ``"; ..."`` clauses inserted."""
    if a == b:
        return False, "same raise"
    clauses = _inserted(*sorted((a, b), key=len))
    if clauses:
        return False, f"extended by {', '.join(map(repr, clauses))}"
    return True, f"raise {a!r} vs {b!r}"


def _max_gap(x, y) -> float:
    return float(np.max(np.abs(x - y), initial=0.0))


def _converged(stats: dict) -> dict:
    return {m: s[2] for m, s in stats.items()}


def _settled(limits: dict) -> tuple:
    """Which generators are clamped and pinned, and which branches relaxed,
    without the pinned values."""
    return (sorted(limits["clamped"]), sorted(limits["frozen_q"]),
            limits["relaxed"])


def compare(here: dict, other: dict,
            within: float | None = None) -> tuple[dict, tuple, list]:
    """Print one line per pair; return the number of pairs per verdict,
    ``same``, ``near`` (only with ``within``) and ``DIFF``, the largest
    |dV| and |dI| over the near pairs where neither tree raises, and, for
    each pair where neither raises but some method's (iterations, terms)
    moved, its label, method and those methods' counts here and there."""
    tally = dict.fromkeys(("same", "near", "DIFF"), 0)
    near_gap, moved_counts = (0.0, 0.0), []
    for key in here:
        h, o = here[key], other[key]
        label, method = key
        if "raise" in h and "raise" in o:
            diff, note = _messages(o["raise"], h["raise"])
            near = within is not None
        elif "raise" in h or "raise" in o:
            # the raising tree's message and the other tree's counts
            (r, raised), (c, solved) = ((("here", h), ("other", o))
                                        if "raise" in h else
                                        (("other", o), ("here", h)))
            diff, near = True, False
            note = (f"raises in one tree only: {r} {raised['raise']!r}; {c} "
                    + ", ".join(f"{m} {s}" for m, s in solved["stats"].items()))
        else:
            bits = (np.array_equal(h["V"], o["V"])
                    and np.array_equal(h["I"], o["I"]))
            counts = h["stats"] == o["stats"]
            shifted = [f"{m} {s[:2]} vs {o['stats'][m][:2]}"
                       for m, s in h["stats"].items()
                       if s[:2] != o["stats"][m][:2]]
            if shifted:
                moved_counts.append(f"{label} {method} "
                                    f"[{', '.join(shifted)}]")
            moved = [k for k in h["limits"] if h["limits"][k] != o["limits"][k]]
            diff = not (bits and counts) or bool(moved)
            dv, di = _max_gap(h["V"], o["V"]), _max_gap(h["I"], o["I"])
            near = (within is not None and max(dv, di) <= within
                    and _converged(h["stats"]) == _converged(o["stats"])
                    and _settled(h["limits"]) == _settled(o["limits"]))
            note = (f"V/I {'bitwise' if bits else 'DIFFER'} "
                    f"(max |dV| {dv:.1e}, |dI| {di:.1e}); "
                    + ", ".join(f"{m} {s}" for m, s in h["stats"].items())
                    + ("" if counts else f" vs {o['stats']}")
                    + "".join(f"; {k} {h['limits'][k]} vs {o['limits'][k]}"
                              for k in moved))
        verdict = "same" if not diff else "near" if near else "DIFF"
        tally[verdict] += 1
        if verdict == "near" and "raise" not in h:
            near_gap = (max(near_gap[0], dv), max(near_gap[1], di))
        print(f"{verdict:<4}  {label:<16} {method:<13} {note}")
    return tally, near_gap, moved_counts


def tally_line(name: str, tally: dict, near_gap: tuple, moved: list) -> str:
    """One corpus's summary line, from what :func:`compare` returns."""
    (dv, di), total = near_gap, sum(tally.values())
    return (f"{name}: {tally['same']} of {total} pairs the same, "
            f"{tally['near']} near (max |dV| {dv:.1e}, |dI| {di:.1e} where "
            f"both converge), {tally['DIFF']} differ; (iterations, terms) "
            f"moved in {len(moved)}{': ' if moved else ''}{', '.join(moved)}")


def against_newton(answers: dict) -> tuple[list, float]:
    """Within one tree's answers: the series pairs that raise where ``nr``
    converges on the same label, and the largest |V - V_nr| over the
    series pairs that converge there."""
    lost, gap = [], 0.0
    for (label, method), a in answers.items():
        nr = answers.get((label, "nr"), {"raise": None})
        if method not in SERIES_METHODS or "raise" in nr:
            continue
        if "raise" in a:
            lost.append(f"{label} {method}")
        else:
            gap = max(gap, _max_gap(a["V"], nr["V"]))
    return lost, gap


def _corpus(label: str) -> str:
    """The corpus a pair's label belongs to."""
    return {"ladder": "ladder-944", "random": "random-sssc"}.get(
        label.split("/")[0], "scenario")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", type=Path, nargs="?",
                   help="root of the other checkout")
    p.add_argument("--within", type=float, metavar="DV",
                   help="report a pair whose V and I differ by at most DV, "
                        "or that raises in both trees, as near")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        corpus = pickle.loads(sys.stdin.buffer.read())
        sys.stdout.buffer.write(pickle.dumps(_worker(corpus)))
        return 0
    if args.other is None:
        p.error("the other checkout is required")
    trees = (ROOT, args.other.resolve())
    for tree in trees:
        if not (tree / "src" / "ffheflow").is_dir():
            p.error(f"{tree} has no src/ffheflow")
    t0 = time.perf_counter()
    procs = [_run_tree(tree) for tree in trees]
    corpus = {"scenarios": _scenarios(), "random": _random_draws()}
    here, other = (_collect(proc, corpus) for proc in procs)
    differ = 0
    for name in CORPORA:
        keys = [k for k in here if _corpus(k[0]) == name]
        tally, gap, moved = compare({k: here[k] for k in keys},
                                    {k: other[k] for k in keys}, args.within)
        differ += tally["DIFF"]
        print(tally_line(name, tally, gap, moved))
    for tree, answers in zip(trees, (here, other)):
        raised = [f"{label} {method}" for (label, method), a in
                  answers.items() if "raise" in a]
        print(f"raise in {tree}: {len(raised)}: {', '.join(raised)}")
        for name in CORPORA:
            lost, gap = against_newton({k: a for k, a in answers.items()
                                        if _corpus(k[0]) == name})
            print(f"  {name}: series raise where nr converges: {len(lost)}"
                  f"{': ' if lost else ''}{', '.join(lost)}; "
                  f"max |V - V_nr| {gap:.1e} where both converge")
    print(f"wall time {time.perf_counter() - t0:.0f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
