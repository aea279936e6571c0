"""Batch command-line front end.

One study per invocation (``--case`` plus optional ``--devices``), or a
``--batch`` file of independent studies, run one after another in the
order listed.  ``--report json`` writes each report as one JSON object on
one line; a batch prints a ``=== label`` line before each.  Exit codes:
0 converged, 2 diverged, 1 bad input.

Cases are read through :func:`~ffheflow.network.parse_case`, which is
memoised: batch entries that read the same case text share one
:class:`~ffheflow.network.Network` instance, and with it the study memos.
That instance is shared; do not modify it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
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
               "runtime_s": st.runtime_s}
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
                     + ("" if st.converged else ", NOT CONVERGED"))
    if rep.comparison:
        lines.append(
            f"series-vs-Newton voltage gap {rep.comparison['voltage_gap']:.3e} "
            f"p.u., error improvement {rep.comparison['delta_e_pct']:.2f}%, "
            f"runtime improvement {rep.comparison['delta_t_pct']:.2f}%")
    return "\n".join(lines)


def _emit(rep: StudyReport, kind: str) -> None:
    if kind == "json":
        print(json.dumps(report_dict(rep), allow_nan=False))
    else:
        print(format_text(rep))


def _run_batch(batch_path: Path, args) -> int:
    try:
        entries = json.loads(batch_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not isinstance(entries, list):
        print("error: batch file must hold a JSON list", file=sys.stderr)
        return EXIT_INPUT

    # one after another: a study is GIL-bound Python and numpy calls, so
    # worker threads only contend for the interpreter lock
    worst = EXIT_OK
    for k, entry in enumerate(entries):
        label = (entry.get("label", entry.get("case", "?"))
                 if isinstance(entry, dict) else f"#{k}")
        try:
            rep = _run_one(*_entry_paths(entry), _options(args, entry))
        except INPUT_ERRORS as exc:
            print(f"[{label}] input error: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_INPUT)
            continue
        except DIVERGED_ERRORS as exc:
            print(f"[{label}] diverged: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_DIVERGED)
            continue
        print(f"=== {label}")
        _emit(rep, args.report)
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
    _emit(rep, args.report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
