"""Smoke tests for the experiment registry and the omx-repro CLI."""

import json
import os

import pytest

from repro.reporting.experiments import EXPERIMENTS, main, micro


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig3", "fig7", "micro", "fig8", "fig9", "fig10", "fig11",
            "fig12", "nas", "engine_shootout", "fabric_sweep",
            "faults_campaign", "faults_soak",
        }

    def test_micro_runs_standalone(self):
        table = micro()
        assert any("submission" in row[0] for row in table.rows)


class TestCli:
    def test_cli_runs_micro(self, capsys):
        assert main(["micro"]) == 0
        out = capsys.readouterr().out
        assert "350" in out

    def test_cli_quick_fig7_with_csv(self, tmp_path, capsys):
        csv = tmp_path / "fig7.csv"
        assert main(["fig7", "--quick", "--csv", str(csv)]) == 0
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header.startswith("copy size,")

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_all_csv_prefixes_only_the_file_name(self, tmp_path, monkeypatch,
                                                 capsys):
        """``all --csv DIR/out.csv`` writes ``DIR/<name>_out.csv`` for each
        experiment; the prefix never lands on the directory part."""
        from repro.reporting import experiments
        from repro.reporting.table import Table

        def stub(name):
            def run(quick=False, executor=None):
                table = Table(name, ["x"])
                table.add_row(1)
                return table
            return run

        monkeypatch.setattr(experiments, "EXPERIMENTS",
                            {"one": stub("one"), "two": stub("two")})
        out = tmp_path / "nested" / "dir"
        out.mkdir(parents=True)
        assert main(["all", "--csv", str(out / "out.csv")]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "one_out.csv", "two_out.csv"]
        assert (out / "two_out.csv").read_text().splitlines()[0] == "x"


def _outcomes(hung: int) -> dict:
    return {"completed": 3 - hung, "failed": 0, "hung": hung}


#: one hung transfer and one sanitizer finding, in a campaign report
BAD_CAMPAIGN = {
    "cells": [
        {"workload": "stream", "size": 16384, "plan": "lossy-data",
         "outcomes": _outcomes(1), "sanitizer": []},
        {"workload": "stream", "size": 16384, "plan": "ioat-fail",
         "outcomes": _outcomes(0), "sanitizer": ["skbuff leak"]},
    ],
    "sanitizer_dirty_cells": ["stream/16384/ioat-fail"],
}

#: the same two faults in a soak report
BAD_SOAK = {
    "runs": [
        {"soak": "link-flap", "workload": "pingpong", "size": 16384,
         "outcomes": _outcomes(1), "health": {}, "sanitizer": []},
        {"soak": "ioat-flap", "workload": "stream", "size": 262144,
         "outcomes": _outcomes(0), "health": {}, "sanitizer": ["pin leak"]},
    ],
    "sanitizer_dirty_runs": ["ioat-flap"],
    "fabric": {"runs": [], "sanitizer_dirty_runs": []},
}


class TestFaultGates:
    """The fault experiments write their report, then fail on a hung
    transfer or a sanitizer finding and name the cells."""

    @pytest.mark.parametrize("name, module, runner, report, named", [
        ("faults_campaign", "repro.faults.campaign", "run_campaign",
         BAD_CAMPAIGN, ["stream/16384/lossy-data", "stream/16384/ioat-fail"]),
        ("faults_soak", "repro.faults.soak", "run_soak_suite",
         BAD_SOAK, ["link-flap", "ioat-flap"]),
    ])
    def test_report_written_then_run_fails(self, name, module, runner, report,
                                           named, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(module + "." + runner,
                            lambda *args, **kwargs: report)
        with pytest.raises(RuntimeError) as exc:
            main([name, "--no-cache"])
        for cell in named:
            assert cell in str(exc.value)
        written = tmp_path / "results" / f"{name}.json"
        assert json.loads(written.read_text()) == report
