"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_scale_choices(self):
        args = build_parser().parse_args(["run", "fig1", "--scale", "quick"])
        assert args.artifact == "fig1"
        assert args.scale == "quick"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--scale", "enormous"])


class TestCommands:
    def test_list_prints_all_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for artifact in ("fig1", "fig12", "tab1", "tab4"):
            assert artifact in out

    def test_hardware_prints_table2(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "Processor" in out
        assert "NUMA" in out

    def test_run_tab1(self, capsys):
        assert main(["run", "tab1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Treadmill" in out
        assert "regenerated at scale=quick" in out

    def test_run_fig1_quick(self, capsys):
        assert main(["run", "fig1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Open-Loop" in out


class TestOutFile:
    def test_run_writes_report_file(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "tab1.txt"
        assert main(["run", "tab1", "--scale", "quick", "--out", str(out)]) == 0
        text = out.read_text()
        assert "Treadmill" in text
        assert "Table I" in text


class TestScenarioVerifyIdentical:
    """``scenario run --verify-identical`` compares whole results."""

    SCENARIO = {
        "name": "tiny",
        "seed": 3,
        "pools": [{"name": "pool", "workload": {"workload": "memcached"}, "count": 2}],
        "fleets": [
            {
                "name": "fl",
                "target": "pool",
                "instances": 1,
                "connections_per_instance": 2,
                "target_utilization": 0.3,
                "warmup_samples": 10,
                "measurement_samples_per_instance": 40,
            }
        ],
    }

    def run(self, monkeypatch, tmp_path, skew_events):
        """Run the check with both lanes served in-process; the
        "process" lane's results get ``events_processed`` shifted by
        ``skew_events`` and nothing else."""
        import dataclasses
        import json

        import repro.exec.api as exec_api
        import repro.exec.executors as executors

        real_execute = executors.execute_specs
        serial = exec_api.make_executor("serial")

        def execute_specs(specs, executor=None, progress=None):
            results = real_execute(specs, serial)
            if executor == "process":
                results = [
                    dataclasses.replace(
                        r, events_processed=r.events_processed + skew_events
                    )
                    for r in results
                ]
            return results

        monkeypatch.setattr(exec_api, "make_executor", lambda name, **kw: name)
        monkeypatch.setattr(executors, "execute_specs", execute_specs)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(self.SCENARIO))
        return main(["scenario", "run", str(path), "--verify-identical"])

    def test_identical_lanes_pass(self, monkeypatch, tmp_path, capsys):
        assert self.run(monkeypatch, tmp_path, skew_events=0) == 0
        assert "outputs_identical: True" in capsys.readouterr().out

    def test_event_count_mismatch_fails(self, monkeypatch, tmp_path, capsys):
        assert self.run(monkeypatch, tmp_path, skew_events=1) == 1
        assert "outputs_identical: False" in capsys.readouterr().out
