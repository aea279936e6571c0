"""Where the tracer wraps ``ffheflow``, and the per-layer metrics it yields.

Each entry of :func:`install` rebinds one name in the module that calls it,
so a function is timed only where the layer above calls it: for example
``system.jacobian`` as called by ``core`` and by ``newton``, and scipy's
``lu_factor`` as called by ``core``.
"""

from __future__ import annotations

from spans import END, NAME, PARENT, START, STUDY, Tracer, summarize


def _flop(n: int) -> float:
    """Operation count of one dense LU factorisation of order n (computed,
    not measured)."""
    return 2.0 / 3.0 * n ** 3


def _lu_factor_count(loc, args, result):
    loc.factor_pending = True
    return {"factorizations": 1, "factor_flop": _flop(args[0].shape[0])}


def _lu_solve_count(loc, args, result):
    if getattr(loc, "factor_pending", False):
        loc.factor_pending = False
        return {"useful_factorizations": 1}
    return None


def _newton_jacobian_count(loc, args, result):
    # every Newton step factorises its Jacobian once (np.linalg.solve)
    return {"newton_steps": 1, "factor_flop": _flop(result.shape[0])}


def _ffhe_count(loc, args, result):
    return {"series_terms": result.terms}


def install(tracer: Tracer, ff) -> None:
    """Wrap every traced name of the imported ``ffheflow`` package ``ff``."""
    cli, core, network, newton, report, series, system = (
        ff.cli, ff.core, ff.network, ff.newton, ff.report, ff.series,
        ff.system)
    span, leaf, put = tracer.span, tracer.leaf, tracer.install

    put(ff, "parse_case", span("network.parse_case", network.parse_case))
    put(cli, "parse_case", span("network.parse_case", network.parse_case))
    put(system, "build_admittance_matrix",
        span("network.build_admittance_matrix",
             network.build_admittance_matrix))
    put(system, "insert_series_device",
        span("network.insert_series_device", network.insert_series_device))

    for mod in (core, newton, report):
        put(mod, "residual", span("system.residual", system.residual))
    put(core, "jacobian", span("system.jacobian", system.jacobian))
    put(newton, "jacobian", span("system.jacobian", system.jacobian,
                                 count=_newton_jacobian_count))
    put(report, "build_system",
        span("system.build_system", system.build_system))

    put(report, "nr_solve", span("newton.nr_solve", newton.nr_solve))
    put(report, "warm_start", span("newton.warm_start", newton.warm_start))

    put(report, "ffhe_solve", span("core.ffhe_solve", core.ffhe_solve,
                                   count=_ffhe_count))
    put(core, "lu_factor", leaf("core.lu_factor", core.lu_factor,
                                count=_lu_factor_count))
    put(core, "lu_solve", leaf("core.lu_solve", core.lu_solve,
                               count=_lu_solve_count))

    put(core, "evaluate_at_one",
        leaf("series.evaluate_at_one", series.evaluate_at_one))
    put(series, "pade_at_one", leaf("series.pade_at_one", series.pade_at_one))
    for name in ("reciprocal_coefficient", "magnitude_coefficient"):
        put(core, name, leaf("series.companion", getattr(series, name)))

    put(report, "relax_violations",
        leaf("devices.relax_violations", report.relax_violations))
    put(report, "branch_outputs",
        leaf("devices.branch_outputs", report.branch_outputs))
    put(cli, "load_devices", span("devices.load_devices", cli.load_devices))

    put(report, "generator_reactive_output",
        leaf("report.generator_reactive_output",
             report.generator_reactive_output))
    run_study = report.run_study
    put(report, "run_study", span("report.run_study", run_study, root=True))
    put(cli, "run_study", span("report.run_study", run_study, root=True))

    put(cli, "_run_one", span("cli._run_one", cli._run_one, root=True))
    put(cli, "report_dict", span("cli.report_dict", cli.report_dict))
    put(cli, "main", span("cli.main", cli.main))


#: metrics repeated in a child run with OPENBLAS_NUM_THREADS=1
BLAS1 = ("core.lu_factor.ms", "newton.self_ms", "report.run_study.ms")


def layer_metrics(spans, studies: int) -> dict:
    """Per-study means of the per-layer metrics named in BENCHMARK.json,
    except the ``.blas1`` twins and ``trace.overhead_pct``.

    Exceptions: ``network.parse_case.ms`` is the mean per parse call (the
    case is parsed in set-up, and per batch entry by the CLI);
    ``core.useful_factor_frac`` is a share of all ``lu_factor`` calls; and
    ``cli.overlap`` is the summed ``run_study`` span time across the worker
    threads over the batch makespan."""
    agg, counts = summarize(spans)

    def tot(name, key="ns"):
        return agg.get(name, {}).get(key, 0)

    def ms(ns):
        return ns / 1e6 / studies

    def all_ns(name):
        # including spans outside any study: set-up, and the CLI's main thread
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)

    # outermost run_study spans only; nested ones are base pre-solves
    top_run_ns = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "report.run_study" and s[STUDY] is not None
        and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "report.run_study"))
    nested_runs = sum(
        1 for s in spans
        if s[NAME] == "report.run_study" and s[STUDY] is not None
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "report.run_study")
    main_ns = all_ns("cli.main")
    parse_calls = sum(1 for s in spans if s[NAME] == "network.parse_case")
    parse_ns = all_ns("network.parse_case")
    factorizations = counts.get("factorizations", 0)

    out = {
        "system.residual.ms": ms(tot("system.residual")),
        "system.residual.calls": tot("system.residual", "calls") / studies,
        "system.jacobian.ms": ms(tot("system.jacobian")),
        "system.jacobian.calls": tot("system.jacobian", "calls") / studies,
        "system.build_system.ms": ms(tot("system.build_system")),
        "system.build_system.calls":
            tot("system.build_system", "calls") / studies,
        "newton.nr_solve.ms": ms(tot("newton.nr_solve")),
        "newton.warm_start.ms": ms(tot("newton.warm_start")),
        "newton.iterations": counts.get("newton_steps", 0) / studies,
        "newton.self_ms": ms(tot("newton.nr_solve", "self_ns")
                             + tot("newton.warm_start", "self_ns")),
        "core.ffhe_solve.ms": ms(tot("core.ffhe_solve")),
        "core.ffhe_solve.calls": tot("core.ffhe_solve", "calls") / studies,
        "core.series_terms": counts.get("series_terms", 0) / studies,
        "core.self_ms": ms(tot("core.ffhe_solve", "self_ns")),
        "core.lu_factor.ms": ms(tot("core.lu_factor")),
        "core.lu_factor.calls": tot("core.lu_factor", "calls") / studies,
        "core.lu_solve.ms": ms(tot("core.lu_solve")),
        "core.useful_factor_frac":
            counts.get("useful_factorizations", 0) / factorizations
            if factorizations else 0.0,
        "linalg.factor_gflop": counts.get("factor_flop", 0) / 1e9 / studies,
        "series.evaluate_at_one.ms": ms(tot("series.evaluate_at_one")),
        "series.evaluate_at_one.calls":
            tot("series.evaluate_at_one", "calls") / studies,
        "series.pade_at_one.ms": ms(tot("series.pade_at_one")),
        "series.companion.ms": ms(tot("series.companion")),
        "network.parse_case.ms":
            parse_ns / 1e6 / parse_calls if parse_calls else 0.0,
        "network.build_admittance_matrix.ms":
            ms(tot("network.build_admittance_matrix")),
        "network.insert_series_device.ms":
            ms(tot("network.insert_series_device")),
        "devices.ms": ms(tot("devices.relax_violations")
                         + tot("devices.branch_outputs")
                         + tot("devices.load_devices")),
        "report.run_study.ms": ms(top_run_ns),
        "report.self_ms": ms(tot("report.run_study", "self_ns")),
        "report.generator_reactive_output.ms":
            ms(tot("report.generator_reactive_output")),
        "report.generator_reactive_output.calls":
            tot("report.generator_reactive_output", "calls") / studies,
        "report.base_presolves": nested_runs / studies,
        "cli.main.ms": ms(main_ns),
        "cli.report_dict.ms": ms(all_ns("cli.report_dict")),
        "cli.overlap": top_run_ns / main_ns if main_ns else 0.0,
    }
    return out
