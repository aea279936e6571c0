"""Load-flow benchmark: whole studies end to end, and per-layer costs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload newton-118 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one client: the next study starts when
the previous one returns.  Studies run in whole passes over the workload's
inputs, each pass in an order drawn from ``--seed``, until ``--seconds``
have elapsed, so every run measures the same mix.  Each study is checked
against a Newton reference solved before the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (see ``layers.py``), repeats the traced passes
in a child process with ``OPENBLAS_NUM_THREADS=1``, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
See README.md.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import ctypes
import glob
import io
import itertools
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

import layers
import ladder
from scenarios import LABELS, device_records
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: a study lands on the Newton reference when every bus voltage is this
#: close to it (p.u.)
REF_TOL = 1e-6
SETUP_REPEATS = 15
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "OPENBLAS_CORETYPE", "GOTO_NUM_THREADS")

#: workloads that run by name (and in ``all``) but are not in BENCHMARK.json;
#: README.md says why
UNGATED = {
    "series-118": "the same 18 scenarios under ffhe with partial sums and "
                  "with Pade: order history and per-bus evaluation at a = 1 "
                  "dominate; known failures are counted",
    "ladder-944": "8 tiled case118 copies, one seeded SSSC each, under "
                  "nr-warm-ffhe: dense O(n^3) factorisation and O(n^2) "
                  "Y-bus and limit checks dominate",
}


# ----------------------------------------------------------------- set-up

def load_spec():
    """Workload reasons, and metric units per ``--trace`` value, from
    BENCHMARK.json: the one list of the names the benchmark reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    whys.update(UNGATED)
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    return whys, units


def import_program():
    """Import ``ffheflow`` from this checkout's ``src``; exit 2 if absent."""
    if not (SRC / "ffheflow" / "__init__.py").is_file():
        print(f"error: no ffheflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ffheflow
    import ffheflow.cli  # noqa: F401  (submodule, not imported by ffheflow)
    return ffheflow


#: timed in a fresh interpreter: what a user of the library waits for
#: before the first study
SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import ffheflow
net = ffheflow.load_bundled_case()
if {ladder!r}:
    import ladder
    net = ladder.tile_case(ffheflow, net)
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: str) -> list:
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE),
                              ladder=workload == "ladder-944")
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    for var in BLAS_ENV:
        env[var] = os.environ.get(var, "")
    env.update(openblas_threads())
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_threads() -> dict:
    """Live thread count of each OpenBLAS bundled with numpy and scipy."""
    found = {}
    for pkg, pattern, symbol in (
            (np, "numpy.libs/libscipy_openblas64_*.so",
             "scipy_openblas_get_num_threads64_"),
            (scipy, "scipy.libs/libscipy_openblas*.so",
             "scipy_openblas_get_num_threads")):
        site = Path(pkg.__file__).resolve().parent.parent
        for path in sorted(glob.glob(str(site / pattern))):
            key = f"openblas_threads[{pkg.__name__}]"
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                found[key] = "unreadable"
                continue
            fn.argtypes = []
            fn.restype = ctypes.c_int
            found[key] = fn()
    return found


# ---------------------------------------------------------------- studies

class Checker:
    """Classifies each study against its Newton reference.

    A study *fails* when it raises, lands more than REF_TOL from the
    reference, or reports a mismatch above its tolerance.  ``correct``
    turns false only when a study returns a result that claims convergence
    but does not satisfy the load-flow equations (non-finite voltages or a
    mismatch above tolerance), or when a reference cannot be solved.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: dict = {}     # distinct failure note -> occurrences

    def reference_failed(self, key, exc):
        self.correct = False
        self._note(f"reference {key}: {exc}")

    def study(self, key, outcome, ref_v, tol):
        """``outcome`` is a StudyReport or the exception raised."""
        if isinstance(outcome, Exception):
            self.missing(key, f"raised {type(outcome).__name__}: {outcome}")
            return
        self.result(key, outcome.converged, outcome.mismatch, outcome.V,
                    ref_v, tol)

    def missing(self, key, why):
        """A study that produced no result."""
        self.attempted += 1
        self._fail(key, why)

    def result(self, key, converged, mismatch, V, ref_v, tol):
        """A returned result; ``ref_v`` is None when its reference failed
        (already recorded)."""
        self.attempted += 1
        if ref_v is None:
            return
        if not converged:
            self._fail(key, "not converged")
            return
        if not (mismatch <= tol and np.all(np.isfinite(V))):
            self.correct = False
            self._fail(key, f"claims convergence at mismatch {mismatch:.3e}")
            return
        if V.shape != ref_v.shape:
            self._fail(key, f"{V.size} buses, reference {ref_v.size}")
            return
        gap = float(np.max(np.abs(V - ref_v)))
        if gap > REF_TOL:
            self._fail(key, f"{gap:.3g} p.u. from the Newton reference")

    def _fail(self, key, why):
        self.failed += 1
        self._note(f"{key}: {why}")

    def _note(self, note):
        self.notes[note] = self.notes.get(note, 0) + 1


def solve_reference(ff, net, devices, key, checker):
    """The Newton solution of one study, or None (recorded) if it fails."""
    try:
        return ff.report.run_study(net, devices, ff.StudyOptions(method="nr"))
    except (ff.StudyError, ff.ConvergenceError) as exc:
        checker.reference_failed(key, exc)
        return None


class Workload:
    """Inputs, references and checks of one workload.

    ``items`` is one pass over the inputs in seed order; ``run(item)``
    performs one timed sample and returns its outcome; ``check`` classifies
    an outcome against the references.  ``checker`` holds the reference
    failures, if any, and then every classified study.
    """

    studies_per_sample = 1
    items: list

    def __init__(self, seed: int, references: bool):
        self.rng = random.Random(seed)
        self.references = references
        self.checker = Checker()
        self.refs: dict = {}

    def run(self, item):
        raise NotImplementedError

    def check(self, item, outcome):
        raise NotImplementedError

    def pass_(self) -> list:
        """Every input once, in a fresh order drawn from the seed (so that
        a run averages over orders); returns the wall seconds of each
        sample."""
        self.rng.shuffle(self.items)
        samples = []
        for item in self.items:
            t0 = time.perf_counter()
            outcome = self.run(item)
            samples.append(time.perf_counter() - t0)
            if self.references:
                self.check(item, outcome)
        return samples

    def warm_up(self, seconds: float) -> None:
        """Untimed, unchecked samples, cycling through the inputs, until
        ``seconds`` have elapsed (the first seconds of a process run
        slower)."""
        t0 = time.perf_counter()
        for item in itertools.cycle(self.items):
            self.run(item)
            if time.perf_counter() - t0 >= seconds:
                return

    def close(self):
        pass


class StudyWorkload(Workload):
    """Direct ``run_study`` calls: every device set under every method."""

    def __init__(self, ff, net, devices: dict, methods, seed, references):
        super().__init__(seed, references)
        self.ff, self.net, self.devices = ff, net, devices
        self.items = [(key, name, opts) for key in devices
                      for name, opts in methods]
        if references:
            for key, devs in devices.items():
                ref = solve_reference(ff, net, devs, key, self.checker)
                self.refs[key] = None if ref is None else ref.V

    def run(self, item):
        key, _name, opts = item
        try:
            return self.ff.report.run_study(self.net, self.devices[key], opts)
        except Exception as exc:  # every exception is a failed study
            return exc

    def check(self, item, outcome):
        key, name, opts = item
        self.checker.study(f"{key}/{name}", outcome, self.refs[key], opts.tol)


def _scenario_devices(ff, label):
    return tuple(ff.load_devices(json.dumps(device_records(label))))


def _case118_study(ff, seed, references, methods):
    return StudyWorkload(ff, ff.load_bundled_case(),
                         {label: _scenario_devices(ff, label)
                          for label in LABELS},
                         methods, seed, references)


def newton_118(ff, seed, references=True):
    S = ff.StudyOptions
    return _case118_study(ff, seed, references,
                          [("nr", S(method="nr")),
                           ("nr-warm-ffhe", S(method="nr-warm-ffhe"))])


def series_118(ff, seed, references=True):
    S = ff.StudyOptions
    return _case118_study(ff, seed, references,
                          [("ffhe", S(method="ffhe")),
                           ("ffhe-pade", S(method="ffhe", pade=True))])


def ladder_944(ff, seed, references=True):
    net = ladder.tile_case(ff, ff.load_bundled_case())
    ladder.check_ladder(ff, net)
    labels = ladder.draw_targets(seed)
    devices = {"ladder[" + ",".join(labels) + "]":
               ladder.ladder_devices(ff, labels)}
    return StudyWorkload(ff, net, devices,
                         [("nr-warm-ffhe",
                           ff.StudyOptions(method="nr-warm-ffhe"))],
                         seed, references)


class BatchWorkload(Workload):
    """``ffheflow --batch`` over the 18 scenarios, written as files; one
    sample is one batch."""

    def __init__(self, ff, seed, references=True):
        super().__init__(seed, references)
        self.ff = ff
        OUT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT, prefix="batch-")
        tmp = Path(self._tmp.name)
        case = tmp / "case118.m"
        case.write_text(resources.files("ffheflow.data")
                        .joinpath("case118.m").read_text())
        entries = []
        for k, label in enumerate(LABELS):
            entry = {"case": str(case), "label": label}
            records = device_records(label)
            if records:
                dev = tmp / f"devices{k}.json"
                dev.write_text(json.dumps(records))
                entry["devices"] = str(dev)
            entries.append(entry)
        self.rng.shuffle(entries)
        batch = tmp / "batch.json"
        batch.write_text(json.dumps(entries))
        self.items = [["--batch", str(batch), "--report", "json"]]
        self.labels = [e["label"] for e in entries]
        self.studies_per_sample = len(entries)
        self.tol = ff.StudyOptions().tol
        if references:
            net = ff.load_bundled_case()
            for label in LABELS:
                ref = solve_reference(ff, net, _scenario_devices(ff, label),
                                      label, self.checker)
                if ref is not None:
                    ids = [b.ext_id for b in ref.system.net.buses]
                    self.refs[label] = (ids, ref.V)

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.ff.cli.main(item)
        return code, out.getvalue()

    def check(self, item, outcome):
        code, text = outcome
        reports = _split_batch_output(text)
        for label in self.labels:
            key = f"batch/{label}"
            if label not in reports:
                self.checker.missing(key, f"no output (exit {code})")
                continue
            rep = reports[label]
            ids, ref_v = self.refs.get(label, ((), None))
            try:
                V = np.array([_phasor(rep["buses"][str(i)]) for i in ids])
            except KeyError as exc:
                self.checker.missing(key, f"bus {exc} missing from output")
                continue
            self.checker.result(key, rep["converged"], rep["mismatch"], V,
                                ref_v, self.tol)

    def close(self):
        self._tmp.cleanup()


def _phasor(bus) -> complex:
    return cmath.rect(bus["v_mag"], math.radians(bus["v_deg"]))


def _split_batch_output(text: str) -> dict:
    """``=== label`` headers, each followed by one JSON report."""
    parts = re.split(r"^=== (.*)$", text, flags=re.MULTILINE)
    return {label: json.loads(body) for label, body
            in zip(parts[1::2], parts[2::2])}


FACTORIES = {"newton-118": newton_118, "series-118": series_118,
             "ladder-944": ladder_944, "batch-118": BatchWorkload}


# -------------------------------------------------------------- measuring

#: untimed samples before every measurement
WARMUP_S = 5.0


def measure(work: Workload, seconds: float):
    """Whole passes until ``seconds`` have elapsed (at least one).

    Returns (samples, studies, wall seconds)."""
    samples = []
    t0 = time.perf_counter()
    while True:
        samples += work.pass_()
        wall = time.perf_counter() - t0
        if wall >= seconds:
            break
    return samples, len(samples) * work.studies_per_sample, wall


def percentile_with_tail(samples, q: float):
    """The q-quantile, or None when fewer than 10 samples lie beyond it."""
    if len(samples) * (1 - q) < 10:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[
        round(q * 100) - 1]


def end_to_end(ff, workload, seed, seconds):
    setup = setup_seconds(workload)
    work = FACTORIES[workload](ff, seed)
    checker = work.checker
    try:
        work.warm_up(WARMUP_S)
        samples, studies, wall = measure(work, seconds)
    finally:
        work.close()
    per_study_ms = [s * 1e3 / work.studies_per_sample for s in samples]
    metrics = {
        "setup_s": statistics.median(setup),
        "study_ms_p50": statistics.median(per_study_ms),
        "studies_per_s": studies / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    counts = {"setup_s": len(setup), "study_ms_p50": len(per_study_ms),
              "studies_per_s": studies, "peak_rss_mb": 1}
    extra = {"fail_frac": (checker.failed / checker.attempted
                           if checker.attempted else 0.0, "frac",
                           checker.attempted)}
    p90 = percentile_with_tail(per_study_ms, 0.9)
    if p90 is not None:
        extra["study_ms_p90"] = (p90, "ms", len(per_study_ms))
    return checker, metrics, counts, extra


def per_layer(ff, workload, seed, seconds, layers_only=False):
    """Per-layer metrics of one workload.

    Untraced and traced passes alternate for two thirds of ``seconds``, so
    that drift in machine speed hits both alike; ``trace.overhead_pct``
    compares their per-study times.  The child run with single-threaded
    OpenBLAS gets the last third.  With ``layers_only`` (the child itself)
    every pass is traced and no reference is solved.
    """
    work = FACTORIES[workload](ff, seed, references=not layers_only)
    checker = work.checker
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    studies = {False: 0, True: 0}
    budget = seconds if layers_only else 2 * seconds / 3
    try:
        layers.install(tracer, ff)
        try:
            for _ in range(3):        # the set-up parse, on its own
                ff.load_bundled_case()
        finally:
            tracer.uninstall()
        work.warm_up(WARMUP_S)
        traced = layers_only
        t0 = time.perf_counter()
        while True:
            if traced:
                layers.install(tracer, ff)
            try:
                samples = work.pass_()
            finally:
                tracer.uninstall()
            wall[traced] += sum(samples)
            studies[traced] += len(samples) * work.studies_per_sample
            if (time.perf_counter() - t0 >= budget and studies[True]
                    and (layers_only or studies[False])):
                break
            traced = layers_only or not traced
    finally:
        work.close()
    OUT.mkdir(exist_ok=True)
    suffix = "-blas1" if layers_only else ""
    tracer.write(OUT / f"spans-{workload}-seed{seed}{suffix}.jsonl")
    metrics = layers.layer_metrics(tracer.spans, studies[True])
    if layers_only:
        return checker, metrics
    metrics.update(blas1_child(workload, seed, seconds / 3))
    metrics["trace.overhead_pct"] = 100.0 * (
        (wall[True] / studies[True]) / (wall[False] / studies[False]) - 1.0)
    return checker, metrics


def blas1_child(workload, seed, seconds) -> dict:
    """The traced run again with single-threaded OpenBLAS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
         "--layers-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        check=True)
    child = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
    return {f"{name}.blas1": child[name]["value"] for name in layers.BLAS1}


# ----------------------------------------------------------------- output

def run_workload(ff, workload, why, units, seed, seconds, trace,
                 layers_only=False):
    """Measure one workload; print its metrics; return its JSON record.

    ``units`` maps each metric name this mode must report to its unit."""
    print(f"# workload {workload}: {why}")
    if trace:
        checker, values = per_layer(ff, workload, seed, seconds, layers_only)
        counts, extra = {}, {}
    else:
        checker, values, counts, extra = end_to_end(ff, workload, seed,
                                                    seconds)
    unknown = values.keys() - units.keys()
    missing = set() if layers_only else units.keys() - values.keys()
    if unknown or missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: unknown "
                           f"{sorted(unknown)}, missing {sorted(missing)}")
    metrics = {}
    for name, value in values.items():
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"{workload} {name} = {value:.6g} {unit}{n}")
    for name, (value, unit, n) in extra.items():
        print(f"{workload} {name} = {value:.6g} {unit} (n={n})")
    print(f"{workload} studies attempted={checker.attempted} "
          f"failed={checker.failed} correct={checker.correct}")
    for note, times in checker.notes.items():
        print(f"{workload}   {note}" + (f" (x{times})" if times > 1 else ""))
    return {"correct": checker.correct, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    whys, units = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=list(whys) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--layers-only", action="store_true",
                   help=argparse.SUPPRESS)   # the single-thread BLAS child
    args = p.parse_args(argv)

    ff = import_program()
    for key, value in environment().items():
        print(f"# env {key} = {value}")

    names = list(whys) if args.workload == "all" else [args.workload]
    records = {w: run_workload(ff, w, whys[w], units[args.trace], args.seed,
                               args.seconds, args.trace, args.layers_only)
               for w in names}
    if len(records) == 1:
        result = records[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}.{m}": v for w, r in records.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
