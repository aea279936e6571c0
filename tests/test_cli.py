"""Command-line front-end tests: flags, formats, exit codes, batch mode."""

import json
from importlib import resources

import pytest

from ffheflow.cli import (EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, build_parser,
                          main)


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

    def test_batch_not_json(self, tmp_path, capsys):
        bad = tmp_path / "batch.json"
        bad.write_text("nope")
        assert main(["--batch", str(bad)]) == EXIT_INPUT

    def test_batch_not_list(self, tmp_path, capsys):
        bad = tmp_path / "batch.json"
        bad.write_text("{}")
        assert main(["--batch", str(bad)]) == EXIT_INPUT
