"""Batch command-line front end.

One study per invocation (``--case`` plus optional ``--devices``), or a
``--batch`` file of independent studies.  A batch runs its entries on a
pool of forked worker processes, one per CPU in the process's affinity
mask, and prints their reports in the order listed; on one CPU, or for
one entry, it runs them in-process.  ``--report json`` writes each report
as one JSON object on one line; a batch prints a ``=== label`` line before
each.  Exit codes: 0 converged, 2 diverged, 1 bad input.

Cases are read through :func:`~ffheflow.network.parse_case`, which is
memoised: batch entries that run in one process and read the same case
text share one :class:`~ffheflow.network.Network` instance, and with it
the study memos.  That instance is shared; do not modify it.  The pool is
made by the first batch that needs it and kept until the process exits,
so each worker keeps its memos from one batch to the next; a batch that
wants another number of workers, or runs in another working directory,
gets a new pool.  Workers carry this process's state as it was when they
forked: a change made later, such as a patched function, does not reach
them until the pool is shut down with :func:`shutdown_workers`.  Where the
platform has no affinity mask or no ``fork``, a batch runs in-process.
"""

from __future__ import annotations

import argparse
import atexit
import cmath
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import numpy as np

from .devices import load_devices
from .network import parse_case
from .newton import ConvergenceError
from .report import METHODS, StudyError, StudyOptions, StudyReport, run_study

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2

#: exceptions that end a study with EXIT_INPUT and with EXIT_DIVERGED; the
#: parse, topology, device-config and ``--batch`` entry errors are ValueErrors
INPUT_ERRORS = (OSError, ValueError)
DIVERGED_ERRORS = (ConvergenceError, StudyError)


def build_parser() -> argparse.ArgumentParser:
    defaults = StudyOptions()
    p = argparse.ArgumentParser(
        prog="ffheflow",
        description="Holomorphic-embedding AC load flow with series VSC "
                    "FACTS devices")
    p.add_argument("--case", type=Path, help="case file (MATPOWER-style)")
    p.add_argument("--devices", type=Path,
                   help="JSON series-device configuration")
    p.add_argument("--method", choices=METHODS, default=defaults.method)
    p.add_argument("--tol", type=float, default=defaults.tol,
                   help="convergence tolerance on the mismatch (p.u.)")
    p.add_argument("--max-terms", type=int, default=defaults.max_terms,
                   help="series orders per embedding stage")
    p.add_argument("--warm-iters", type=int, default=defaults.warm_iters,
                   help="Newton iterations before the series expansion")
    p.add_argument("--pade", action="store_true",
                   help="evaluate the series with Padé acceleration")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.add_argument("--batch", type=Path,
                   help="JSON list of studies, run in order")
    return p


def _options(args, entry=None) -> StudyOptions:
    """Study options from the command line, each overridden by the same key
    of a ``--batch`` entry when given.  An entry key that is neither an
    option nor ``case``, ``devices`` or ``label`` is a ``ValueError``, and
    :class:`StudyOptions` rejects an entry value of another JSON type
    (``"false"`` for a flag, 7.9 or ``true`` for a count) with
    ``ValueError`` rather than coercing it."""
    entry = entry or {}
    names = [f.name for f in fields(StudyOptions)]
    known = {"case", "devices", "label", *names}
    unknown = [k for k in entry if k not in known]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return StudyOptions(**{k: entry.get(k, getattr(args, k)) for k in names})


def _entry_paths(entry) -> tuple:
    """A ``--batch`` entry's case and devices paths.  An entry that is not
    an object, or whose ``case`` or given ``devices`` is not a string, is a
    ``ValueError``, which names the key."""
    if not isinstance(entry, dict):
        raise ValueError("batch entry is not a JSON object")
    case, devices = entry.get("case"), entry.get("devices")
    if not isinstance(case, str):
        raise ValueError(f"'case' must be a path string, not {case!r}")
    if devices is not None and not isinstance(devices, str):
        raise ValueError(f"'devices' must be a path string, not {devices!r}")
    return Path(case), devices


def _run_one(case_path: Path, devices_path, opts: StudyOptions) -> StudyReport:
    net = parse_case(case_path.read_text(), name=case_path.stem)
    devices = ()
    if devices_path is not None:
        devices = tuple(load_devices(Path(devices_path).read_text()))
    return run_study(net, devices, opts)


def report_dict(rep: StudyReport) -> dict:
    """The JSON report of a study.

    The fields that can be non-finite, and only those, are written as null
    (strict parsers reject ``Infinity`` and ``NaN``): each device branch's
    ``x_eq`` (infinite at zero current), each method's mismatch and the
    study's (NaN when nothing ran), and the ``comparison`` values (an
    infinite ``voltage_gap``).  A non-finite float anywhere else is a
    defect, and ``json.dumps(..., allow_nan=False)`` raises on it."""
    net = rep.system.net
    buses = {}
    for b, bus in enumerate(net.buses):
        v = rep.V[b]
        buses[str(bus.ext_id)] = {
            "kind": bus.kind.value,
            "v_mag": abs(v),
            "v_deg": float(np.degrees(cmath.phase(v))),
        }
    devices = {
        dev_id: [{**out.as_dict(), "x_eq": _finite_or_null(out.x_eq)}
                 for out in outs]
        for dev_id, outs in rep.device_outputs.items()
    }
    stats = {
        name: {"converged": st.converged, "iterations": st.iterations,
               "terms": st.terms, "mismatch": _finite_or_null(st.mismatch),
               "runtime_s": st.runtime_s, "cause": st.cause}
        for name, st in rep.stats.items()
    }
    return {
        "converged": rep.converged,
        "method": rep.method,
        "case": net.name,
        "mismatch": _finite_or_null(rep.mismatch),
        "runtime_s": rep.runtime_s,
        "clamped_generators": {str(k): v
                               for k, v in rep.clamped_generators.items()},
        "relaxed_branches": [list(rb) for rb in rep.relaxed_branches],
        "frozen_q": {str(k): v for k, v in rep.frozen_q.items()},
        "buses": buses,
        "devices": devices,
        "stats": stats,
        "comparison": {k: _finite_or_null(v)
                       for k, v in rep.comparison.items()},
    }


def _finite_or_null(x: float):
    """``x``, or None (JSON ``null``) when it is not finite."""
    return x if math.isfinite(x) else None


def format_text(rep: StudyReport) -> str:
    net = rep.system.net
    lines = [f"case {net.name or '<unnamed>'}: "
             f"{'converged' if rep.converged else 'DIVERGED'} "
             f"(method {rep.method}, mismatch {rep.mismatch:.3e}, "
             f"{rep.runtime_s:.3f} s)"]
    if rep.clamped_generators:
        pairs = ", ".join(f"{b} at {q:.4f}"
                          for b, q in sorted(rep.clamped_generators.items()))
        lines.append(f"generators at reactive limit: {pairs}")
    if rep.frozen_q:
        pairs = ", ".join(f"{b} at {q:.4f}"
                          for b, q in sorted(rep.frozen_q.items()))
        lines.append(f"displaced regulators held at constant Q: {pairs}")
    if rep.relaxed_branches:
        pairs = ", ".join(f"{d}[{b}]" for d, b in rep.relaxed_branches)
        lines.append(f"injected-voltage limits reached on: {pairs}")
    lines.append(f"{'bus':>6} {'type':>6} {'V (p.u.)':>10} {'angle (deg)':>12}")
    for b, bus in enumerate(net.buses):
        v = rep.V[b]
        lines.append(f"{bus.ext_id:>6} {bus.kind.value:>6} "
                     f"{abs(v):>10.4f} {np.degrees(cmath.phase(v)):>12.4f}")
    for dev_id, outs in rep.device_outputs.items():
        for k, out in enumerate(outs):
            x_eq = "inf" if not np.isfinite(out.x_eq) else f"{out.x_eq:.4f}"
            lines.append(
                f"device {dev_id} branch {k}: "
                f"V_se {abs(out.v_se):.4f} /_{np.degrees(cmath.phase(out.v_se)):.4f} deg, "
                f"I_se {abs(out.i_se):.4f} /_{np.degrees(cmath.phase(out.i_se)):.4f} deg, "
                f"S_se {out.s_se.real:+.4f}{out.s_se.imag:+.4f}j, "
                f"S_line {out.s_line.real:+.4f}{out.s_line.imag:+.4f}j, "
                f"X_eq {x_eq}")
    for name, st in rep.stats.items():
        lines.append(f"method {name}: {st.iterations} Newton iterations, "
                     f"{st.terms} series terms, mismatch {st.mismatch:.3e}, "
                     f"{st.runtime_s:.4f} s"
                     + ("" if st.converged else
                        f", NOT CONVERGED: {st.cause}"))
    if rep.comparison:
        lines.append(
            f"series-vs-Newton voltage gap {rep.comparison['voltage_gap']:.3e} "
            f"p.u., error improvement {rep.comparison['delta_e_pct']:.2f}%, "
            f"runtime improvement {rep.comparison['delta_t_pct']:.2f}%")
    return "\n".join(lines)


def _render(rep: StudyReport, kind: str) -> str:
    if kind == "json":
        return json.dumps(report_dict(rep), allow_nan=False)
    return format_text(rep)


#: the batch worker pool, made by the first batch that needs one, and the
#: (worker count, working directory) it was made for
_pool: ProcessPoolExecutor | None = None
_pool_key: tuple = ()


def _cpus() -> int:
    """The CPUs in this process's affinity mask, or 1 where the platform
    has no mask or cannot fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or \
            "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(affinity(0))


def _workers(n: int) -> ProcessPoolExecutor:
    """The kept pool of ``n`` forked workers in the current working
    directory, made anew when either differs from the kept one.  Forked,
    the workers start with this process's imports, memos and directory."""
    global _pool, _pool_key
    key = (n, os.getcwd())
    if _pool is None or _pool_key != key:
        shutdown_workers()
        _pool = ProcessPoolExecutor(
            n, mp_context=multiprocessing.get_context("fork"))
        _pool_key = key
    return _pool


@atexit.register
def shutdown_workers() -> None:
    """Stop the batch workers, if any; the next batch forks new ones."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown()


def _run_entry(args, k: int, entry) -> tuple:
    """Run batch entry ``k``: (exit code, stdout text, stderr text)."""
    label = (entry.get("label", entry.get("case", "?"))
             if isinstance(entry, dict) else f"#{k}")
    try:
        rep = _run_one(*_entry_paths(entry), _options(args, entry))
    except INPUT_ERRORS as exc:
        return EXIT_INPUT, "", f"[{label}] input error: {exc}\n"
    except DIVERGED_ERRORS as exc:
        return EXIT_DIVERGED, "", f"[{label}] diverged: {exc}\n"
    return EXIT_OK, f"=== {label}\n{_render(rep, args.report)}\n", ""


def _run_batch(batch_path: Path, args) -> int:
    try:
        entries = json.loads(batch_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not isinstance(entries, list):
        print("error: batch file must hold a JSON list", file=sys.stderr)
        return EXIT_INPUT

    # a study is GIL-bound Python and small numpy calls, so the entries
    # run in processes, not threads; map yields in entry order.  A defect
    # in a worker is raised here with its own type; a dead worker breaks
    # the pool, which goes, so that the next batch forks a new one.  The
    # fork context starts every worker at once: no more than the entries
    n = min(_cpus(), len(entries))
    run = map if n < 2 else _workers(n).map
    worst = EXIT_OK
    try:
        for code, out, err in run(_run_entry, [args] * len(entries),
                                  range(len(entries)), entries):
            sys.stdout.write(out)
            sys.stderr.write(err)
            worst = max(worst, code)
    except BrokenProcessPool:
        shutdown_workers()
        raise
    return worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.batch is not None:
        return _run_batch(args.batch, args)
    if args.case is None:
        print("error: --case (or --batch) is required", file=sys.stderr)
        return EXIT_INPUT
    try:
        rep = _run_one(args.case, args.devices, _options(args))
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DIVERGED_ERRORS as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    print(_render(rep, args.report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
