"""Command-line front-end tests: flags, formats, exit codes, batch mode."""

import json
from importlib import resources

import numpy as np
import pytest

from ffheflow import cli, load_bundled_case, load_devices
from ffheflow.cli import (EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, build_parser,
                          format_text, main, report_dict)
from ffheflow.devices import branch_outputs
from ffheflow.network import Network
from ffheflow.newton import STALLED, SolveResult
from ffheflow.report import StudyOptions, StudyReport, run_study
from ffheflow.system import build_system


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    text = resources.files("ffheflow.data").joinpath("case118.m").read_text()
    p = tmp_path_factory.mktemp("cli") / "case118.m"
    p.write_text(text)
    return p


@pytest.fixture()
def sssc_path(tmp_path):
    p = tmp_path / "sssc.json"
    p.write_text(json.dumps([{
        "type": "sssc", "branch": [101, 102],
        "mode": "p_flow", "setpoint": 0.9}]))
    return p


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--case", "x.m"])
        assert args.method == "nr-warm-ffhe"
        assert args.tol == 1e-8
        assert args.max_terms == 60
        assert args.warm_iters == 3
        assert args.report == "text"
        assert not args.pade

    def test_bad_method_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--case", "x.m", "--method", "zap"])


class TestSingleRun:
    def test_text_report(self, case_path, capsys):
        assert main(["--case", str(case_path), "--method", "nr"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "converged" in out
        assert "generators at reactive limit" in out
        # 4-decimal voltage table
        assert any(".1 " not in line and line.strip().startswith("69")
                   for line in out.splitlines())

    def test_json_report(self, case_path, capsys):
        assert main(["--case", str(case_path), "--method", "nr",
                     "--report", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["buses"]["69"]["kind"] == "slack"
        # full precision survives the round trip (angles are irrational)
        assert doc["buses"]["49"]["v_deg"] != round(
            doc["buses"]["49"]["v_deg"], 4)

    def test_device_run(self, case_path, sssc_path, capsys):
        assert main(["--case", str(case_path), "--devices", str(sssc_path),
                     "--method", "nr", "--report", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        (dev_outs,) = doc["devices"].values()
        assert dev_outs[0]["s_line"][0] == pytest.approx(0.9, abs=1e-8)

    def test_missing_case_flag(self, capsys):
        assert main([]) == EXIT_INPUT

    def test_missing_case_file(self, tmp_path, capsys):
        assert main(["--case", str(tmp_path / "nope.m")]) == EXIT_INPUT

    def test_malformed_case(self, tmp_path, capsys):
        bad = tmp_path / "bad.m"
        bad.write_text("this is not a case file")
        assert main(["--case", str(bad)]) == EXIT_INPUT

    def test_malformed_devices(self, case_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[{]")
        assert main(["--case", str(case_path),
                     "--devices", str(bad)]) == EXIT_INPUT

    @pytest.mark.parametrize("text", [
        "[1]", '[{"type": "sssc", "mode": "p_flow", "setpoint": 0.75}]'])
    def test_malformed_device_record(self, case_path, tmp_path, capsys,
                                     text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["--case", str(case_path),
                     "--devices", str(bad)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: device 0:")

    def test_repeated_device_id(self, case_path, tmp_path, capsys):
        devs = tmp_path / "devs.json"
        devs.write_text(json.dumps([
            {"type": "sssc", "id": "s", "branch": [101, 102],
             "mode": "p_flow", "setpoint": 0.9, "v_se_max": 0.3},
            {"type": "sssc", "id": "s", "branch": [49, 50],
             "mode": "p_flow", "setpoint": 0.75}]))
        assert main(["--case", str(case_path), "--devices", str(devs),
                     "--method", "nr"]) == EXIT_INPUT
        assert "repeated" in capsys.readouterr().err

    def test_fractional_target_branch(self, case_path, tmp_path, capsys):
        devs = tmp_path / "devs.json"
        devs.write_text(json.dumps([{
            "type": "ipfc", "branches": [[49, 50], [49, 51]], "targets": [
                {"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                {"branch": 1.9, "mode": "p_flow", "setpoint": 0.75},
                {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]}]))
        assert main(["--case", str(case_path), "--devices", str(devs),
                     "--method", "nr"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: device 0: target branch 1.9 is not an integer\n"

    def test_unknown_device_bus(self, case_path, tmp_path, capsys):
        devs = tmp_path / "devs.json"
        devs.write_text(json.dumps([{
            "type": "sssc", "branch": [999, 50],
            "mode": "p_flow", "setpoint": 0.75}]))
        assert main(["--case", str(case_path), "--devices", str(devs),
                     "--method", "nr"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: device sssc0: unknown bus 999\n"

    @pytest.mark.parametrize("change, err", [
        ({"id": ["a"]}, "error: device 0: id ['a'] is not a string\n"),
        ({"setpoint": float("nan")},
         "error: sssc0: setpoint nan is not finite\n"),
        ({"z_se": [float("nan"), 0.01]},
         "error: sssc0: z_se (nan+0.01j) is not finite\n"),
        ({"branch": [101]},
         "error: sssc0: branch (101,) is not an (i, j) pair\n"),
        ({"branch": [101, 102, 103]},
         "error: sssc0: branch (101, 102, 103) is not an (i, j) pair\n"),
        ({"bus": 102}, "error: sssc0: a p_flow target takes no bus (102); "
                       "only a v_bus target does\n")],
        ids=["list-id", "nan-setpoint", "nan-z_se", "one-bus-branch",
             "three-bus-branch", "bus-on-p_flow"])
    def test_mistyped_device_value(self, case_path, tmp_path, capsys, change,
                                   err):
        devs = tmp_path / "devs.json"
        devs.write_text(json.dumps([{
            "type": "sssc", "branch": [101, 102],
            "mode": "p_flow", "setpoint": 0.9, **change}]))
        assert main(["--case", str(case_path), "--devices", str(devs),
                     "--method", "nr"]) == EXIT_INPUT
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("devices, err", [
        ([{"type": "sssc", "id": "a", "branch": [49, 50], "mode": "v_bus",
           "setpoint": 1.0, "bus": 50},
          {"type": "sssc", "id": "b", "branch": [100, 103], "mode": "v_bus",
           "setpoint": 1.0, "bus": 50}],
         "error: b: bus 50 magnitude is already held by a v_bus target of "
         "a\n"),
        ([{"type": "ipfc", "id": "i", "branches": [[49, 50], [49, 51]],
           "targets": [{"branch": 0, "mode": "v_bus", "setpoint": 1.0},
                       {"branch": 1, "mode": "v_bus", "setpoint": 1.0},
                       {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]}],
         "error: i: bus 49 magnitude is already held by a v_bus target of "
         "i\n")], ids=["two-sssc", "ipfc"])
    def test_bus_held_by_two_v_bus_targets(self, case_path, tmp_path, capsys,
                                           devices, err):
        devs = tmp_path / "devs.json"
        devs.write_text(json.dumps(devices))
        for method in ("nr", "compare"):
            assert main(["--case", str(case_path), "--devices", str(devs),
                         "--method", method]) == EXIT_INPUT
            assert capsys.readouterr().err == err

    @pytest.mark.parametrize("method", ["nr", "compare"])
    def test_json_report_is_strict_json(self, case_path, tmp_path, capsys,
                                        method):
        # a zero reactive-flow target blocks the line: x_eq is infinite
        devs = tmp_path / "q0.json"
        devs.write_text(json.dumps([{
            "type": "sssc", "branch": [49, 50],
            "mode": "q_flow", "setpoint": 0.0}]))
        assert main(["--case", str(case_path), "--devices", str(devs),
                     "--method", method, "--report", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
        assert doc["devices"]["sssc0"][0]["x_eq"] is None

    def test_divergent_study(self, case_path, tmp_path, capsys):
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps([{
            "type": "sssc", "branch": [101, 102],
            "mode": "p_flow", "setpoint": 50.0}]))
        assert main(["--case", str(case_path), "--devices", str(dev),
                     "--method", "nr"]) == EXIT_DIVERGED


class TestBatch:
    def test_batch_fans_out(self, case_path, sssc_path, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "base", "case": str(case_path), "method": "nr"},
            {"label": "sssc", "case": str(case_path),
             "devices": str(sssc_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "=== base" in out
        assert "=== sssc" in out

    def test_batch_worst_exit_code(self, case_path, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "ok", "case": str(case_path), "method": "nr"},
            {"label": "missing", "case": str(tmp_path / "nope.m")}]))
        assert main(["--batch", str(batch)]) == EXIT_INPUT
        assert "=== ok" in capsys.readouterr().out

    def test_batch_bad_devices_entry_does_not_stop_the_batch(
            self, case_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1]")
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "bad", "case": str(case_path), "devices": str(bad)},
            {"label": "ok", "case": str(case_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert "[bad] input error" in err
        assert "=== ok" in out

    def test_batch_unknown_device_bus_does_not_stop_the_batch(
            self, case_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{
            "type": "sssc", "branch": [999, 50],
            "mode": "p_flow", "setpoint": 0.75}]))
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "bad", "case": str(case_path), "devices": str(bad)},
            {"label": "ok", "case": str(case_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert "[bad] input error: device sssc0: unknown bus 999" in err
        assert "=== ok" in out

    def test_batch_entry_with_an_unknown_key(self, case_path, tmp_path,
                                             capsys):
        # a misspelt option is reported, not run with the defaults
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "typo", "case": str(case_path), "metod": "ffhe",
             "max_term": 3},
            {"label": "ok", "case": str(case_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert "[typo] input error: unknown key 'metod'" in err
        assert "=== typo" not in out
        assert "=== ok" in out

    @pytest.mark.parametrize("bad", [1, "x.m", None, [1]],
                             ids=["int", "string", "null", "list"])
    def test_batch_entry_not_an_object(self, case_path, tmp_path, capsys,
                                       bad):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            bad, {"label": "ok", "case": str(case_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert "[#0] input error" in err
        assert "=== ok" in out

    @pytest.mark.parametrize("entry", [{}, {"case": 3}, {"devices": 3}],
                             ids=["no-case", "int-case", "int-devices"])
    def test_batch_entry_paths_must_be_strings(self, case_path, tmp_path,
                                               capsys, entry):
        key = "devices" if "devices" in entry else "case"
        if key == "devices":
            entry = {**entry, "case": str(case_path)}
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "bad", **entry},
            {"label": "ok", "case": str(case_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert f"[bad] input error: '{key}' must be a path string" in err
        assert "=== ok" in out

    def test_a_defect_is_not_an_input_error(self, case_path, tmp_path,
                                            monkeypatch):
        # a KeyError from inside a study is a defect: it propagates with
        # its traceback, from a single run and from a batch
        def broken(*args):
            raise KeyError("defect")

        monkeypatch.setattr(cli, "run_study", broken)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([{"case": str(case_path)}]))
        for argv in (["--case", str(case_path)], ["--batch", str(batch)]):
            with pytest.raises(KeyError, match="defect"):
                main(argv)

    @pytest.mark.parametrize("key, bad", [
        ("pade", "false"), ("pade", 1), ("max_terms", 7.9),
        ("max_terms", True), ("warm_iters", True), ("warm_iters", "3"),
        ("tol", "1e-8"), ("tol", False), ("tol", float("nan")),
        ("tol", float("inf")), ("tol", -1e-8)])
    def test_batch_option_of_wrong_type_is_an_input_error(
            self, case_path, tmp_path, capsys, key, bad):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "bad", "case": str(case_path), key: bad},
            {"label": "ok", "case": str(case_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert f"[bad] input error: {key} must be" in err
        assert "=== bad" not in out
        assert "=== ok" in out

    def test_batch_options_of_the_right_type(self, case_path, tmp_path,
                                             capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "ok", "case": str(case_path), "method": "nr-warm-ffhe",
             "pade": False, "max_terms": 30, "warm_iters": 2, "tol": 1}]))
        assert main(["--batch", str(batch), "--report", "json"]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert stats["stats"]["nr-warm-ffhe"]["iterations"] <= 2

    def test_batch_entries_share_the_parsed_case(
            self, case_path, sssc_path, tmp_path, capsys, monkeypatch):
        # every entry reads the same case text: one Network instance, so
        # the study memos hit by identity and never compare by content
        calls = []
        eq = Network.__eq__

        def counted(self, other):
            calls.append(1)
            return eq(self, other)

        monkeypatch.setattr(Network, "__eq__", counted)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"label": "base", "case": str(case_path), "method": "nr"},
            {"label": "sssc", "case": str(case_path),
             "devices": str(sssc_path), "method": "nr"},
            {"label": "again", "case": str(case_path),
             "devices": str(sssc_path), "method": "nr"}]))
        assert main(["--batch", str(batch)]) == EXIT_OK
        assert capsys.readouterr().out.count("=== ") == 3
        assert calls == []

    def test_batch_json_agrees_with_the_library(self, case_path, tmp_path,
                                                capsys):
        records = {
            "base": [],
            "sssc": [{"type": "sssc", "branch": [49, 50],
                      "mode": "p_flow", "setpoint": 0.75}],
            "ipfc": [{"type": "ipfc", "branches": [[49, 50], [49, 51]],
                      "targets": [
                          {"branch": 0, "mode": "p_flow", "setpoint": 0.75},
                          {"branch": 1, "mode": "p_flow", "setpoint": 0.75},
                          {"branch": 1, "mode": "q_flow", "setpoint": 0.03}]}]}
        entries = []
        for label, recs in records.items():
            entry = {"label": label, "case": str(case_path)}
            if recs:
                entry["devices"] = str(tmp_path / f"{label}.json")
                (tmp_path / f"{label}.json").write_text(json.dumps(recs))
            entries.append(entry)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(entries))
        assert main(["--batch", str(batch), "--report", "json"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[::2] == [f"=== {label}" for label in records]
        assert len(lines) == 2 * len(records)
        net = load_bundled_case()
        for label, line in zip(records, lines[1::2]):
            devices = tuple(load_devices(json.dumps(records[label])))
            rep = run_study(net, devices, StudyOptions())
            want = json.loads(json.dumps(report_dict(rep)))
            assert _without_runtime(json.loads(line)) == \
                _without_runtime(want)

    def test_batch_not_json(self, tmp_path, capsys):
        bad = tmp_path / "batch.json"
        bad.write_text("nope")
        assert main(["--batch", str(bad)]) == EXIT_INPUT

    def test_batch_not_list(self, tmp_path, capsys):
        bad = tmp_path / "batch.json"
        bad.write_text("{}")
        assert main(["--batch", str(bad)]) == EXIT_INPUT


def _without_runtime(doc: dict) -> dict:
    """A JSON report without its wall-clock ``runtime_s`` fields."""
    doc = {k: v for k, v in doc.items() if k != "runtime_s"}
    doc["stats"] = {m: {k: v for k, v in st.items() if k != "runtime_s"}
                    for m, st in doc["stats"].items()}
    return doc


class TestMethodConvergence:
    """Each method's ``SolveResult.converged`` reaches both report formats."""

    @pytest.fixture()
    def report(self):
        net = load_bundled_case()
        sys_ = build_system(net)
        V = np.ones(net.n_bus, dtype=complex)
        return StudyReport(
            converged=True, method="compare", system=sys_, V=V,
            I=np.zeros(0, dtype=complex), mismatch=1e-9, runtime_s=0.1,
            stats={"nr": SolveResult(V, V[:0], 1e-9, 4, 0, True, 1e-9, 0),
                   "nr-warm-ffhe": SolveResult(V, V[:0], 0.5, 3, 60, False,
                                               0.4, 7, cause=STALLED)})

    def test_json_stats(self, report):
        stats = report_dict(report)["stats"]
        assert stats["nr"]["converged"] is True
        assert stats["nr-warm-ffhe"]["converged"] is False
        assert stats["nr"]["cause"] == ""
        assert stats["nr-warm-ffhe"]["cause"] == STALLED

    def test_non_finite_floats_are_null(self, report):
        report.stats["ffhe"] = SolveResult(       # mismatch NaN
            report.V, report.I, np.nan, 0, 0, True, np.nan, 0)
        report.comparison = {"voltage_gap": np.inf, "delta_e_pct": 1.0,
                             "delta_t_pct": 2.0}
        report.mismatch = np.nan
        # a zero current: x_eq is infinite
        report.device_outputs = {"s": [branch_outputs(1.0, 1.01, 0j),
                                       branch_outputs(1.0, 1.01, 0.5j)]}
        doc = json.loads(json.dumps(report_dict(report), allow_nan=False))
        assert doc["stats"]["ffhe"]["mismatch"] is None
        assert doc["stats"]["nr"]["mismatch"] == 1e-9
        assert doc["comparison"]["voltage_gap"] is None
        assert doc["comparison"]["delta_e_pct"] == 1.0
        assert doc["mismatch"] is None
        first, second = doc["devices"]["s"]
        assert first["x_eq"] is None
        assert second["x_eq"] == pytest.approx(-0.02)
        assert first["v_se_mag"] == pytest.approx(0.01)

    @pytest.mark.parametrize("field", ["runtime_s", "v_mag", "s_se",
                                       "nr_runtime"])
    def test_non_finite_elsewhere_raises(self, report, field):
        """Only the fields that can be non-finite are nulled: a NaN
        anywhere else is a defect, and the strict encoder raises on it."""
        if field == "runtime_s":
            report.runtime_s = np.nan
        elif field == "v_mag":
            report.V[3] = np.nan
        elif field == "s_se":
            report.device_outputs = {
                "s": [branch_outputs(1.0, complex(np.nan, 0), 0.5j)]}
        else:
            report.stats["nr"].runtime_s = np.inf
        with pytest.raises(ValueError, match="not JSON compliant"):
            json.dumps(report_dict(report), allow_nan=False)

    def test_text_marks_the_unconverged_method(self, report):
        lines = {line.split(":")[0]: line
                 for line in format_text(report).splitlines()
                 if line.startswith("method ")}
        assert lines["method nr-warm-ffhe"].endswith(
            ", NOT CONVERGED: no step length lowers the mismatch")
        assert "NOT CONVERGED" not in lines["method nr"]
