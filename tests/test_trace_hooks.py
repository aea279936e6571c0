"""The benchmark's tracer still finds every name it rebinds in ffheflow.

``perfbench/layers.py`` times layers by rebinding module attributes such as
``core.lu_factor`` or ``report.generator_reactive_output``; a rename in the
program would otherwise only surface when the benchmark runs with tracing.
"""

import sys
from pathlib import Path

import ffheflow
import ffheflow.cli  # noqa: F401  (the tracer wraps cli too)
from ffheflow.devices import ControlTarget, Mode, SsscDevice
from ffheflow.report import StudyOptions

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import spans  # noqa: E402


def test_tracer_installs_runs_and_uninstalls(case118):
    originals = {(mod, name): getattr(getattr(ffheflow, mod), name)
                 for mod, name in [("core", "lu_factor"), ("core", "lu_solve"),
                                   ("core", "jacobian"), ("newton", "jacobian"),
                                   ("report", "residual"),
                                   ("report", "generator_reactive_output")]}
    # an earlier test may have memoised case118's device-free pre-solve,
    # which would then not run under the tracer
    ffheflow.report._base_solution.cache_clear()
    tracer = spans.Tracer()
    layers.install(tracer, ffheflow)
    try:
        dev = SsscDevice("s", (49, 50), ControlTarget(Mode.P_FLOW, 0.75))
        # "compare" runs Newton, the warm start and a cold series
        ffheflow.report.run_study(case118, (dev,),
                                  StudyOptions(method="compare"))
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(getattr(ffheflow, mod), name) is fn

    m = layers.layer_metrics(tracer.spans, studies=1)
    for name in ("system.residual.calls", "system.jacobian.calls",
                 "system.build_system.calls", "core.lu_factor.calls",
                 "core.series_terms", "newton.iterations",
                 "report.generator_reactive_output.calls",
                 "report.base_presolves"):
        assert m[name] > 0, name
    assert m["core.useful_factor_frac"] == 1.0
    assert m["linalg.factor_gflop"] > 0
