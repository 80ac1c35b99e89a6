"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from perfbench import children, run, tracing
from perfbench.tracing import Span, Tracer, self_times, union_length
from perfbench.workloads import Round, WORKLOADS, check_fingerprints, make_workload

ROOT = run.ROOT
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _invoke(workload, trace, out_dir):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--quick", "--out-dir", str(out_dir)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, section, tmp_path):
    result = _invoke(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if trace:
        chrome = json.loads((tmp_path / f"{workload}-seed3.chrome.json").read_text())
        assert chrome["traceEvents"]
        lines = (tmp_path / f"{workload}-seed3.trace.jsonl").read_text().splitlines()
        assert len(lines) == len(chrome["traceEvents"]) == result["metrics"]["trace.spans"]["value"]
    else:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def _gate_args(tmp_path, goldens, seed=5):
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens))
    return SimpleNamespace(quick=False, seed=seed, record_golden=False), str(path)


def _round(prints, fit="f" * 64):
    return Round(fingerprints=list(prints), fit_digest=fit)


def test_perturbed_fingerprint_trips_the_gate(tmp_path, monkeypatch):
    prints = ["a" * 64, "b" * 64, "c" * 64]
    workload = SimpleNamespace(name="table4_study", simulated=True)
    args, path = _gate_args(tmp_path, {"table4_study": {"5": {"runs": prints, "fit": "f" * 64}}})
    monkeypatch.setattr(run, "GOLDENS", path)
    assert run.check_rounds(workload, [_round(prints), _round(prints)], args) == []

    perturbed = list(prints)
    perturbed[1] = "0" + perturbed[1][1:]
    problems = run.check_rounds(workload, [_round(perturbed)], args)
    assert len(problems) == 1 and "run 1" in problems[0]
    assert run.check_rounds(workload, [_round(prints, fit="e" * 64)], args)
    # Rounds of one run must repeat exactly, golden or not.
    assert run.check_rounds(workload, [_round(prints), _round(perturbed)], args)
    assert len(check_fingerprints(prints[:2], prints, "x")) == 1


def test_self_time_does_not_double_count_overlapping_children():
    spans = [
        Span("parent", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),  # overlaps a
        Span("c", 8.0, 12.0, 0, "r"),  # runs past the parent's end
        Span("grandchild", 1.5, 2.0, 1, "r"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_untraced_run_records_no_spans(tmp_path):
    import repro.measure.simbackend as simbackend
    from repro.core.bench import TestBench
    from repro.sim.engine import Simulator

    tracer = Tracer(enabled=False)
    workload = make_workload("scenario_suite", 0, True, ROOT, str(tmp_path))
    workload.build(tracer)
    rnd = workload.round(tracer, 0)
    assert rnd.failed == 0 and rnd.events > 0
    assert tracer.spans == [] and tracer.counters == {}
    assert simbackend.TestBench is TestBench
    assert not hasattr(Simulator.run, "__wrapped__")


def test_instrumentation_is_removed_after_a_traced_round():
    import numpy as np
    import repro.core.attribution as attribution
    from repro.sim.engine import Simulator

    originals = (Simulator.run, attribution.fit_with_inference, np.quantile)
    tracer = Tracer()
    with tracing.Instrumentation() as inst:
        tracing.install_layers(tracer, inst, simulated=True)
        assert Simulator.run is not originals[0]
    assert (Simulator.run, attribution.fit_with_inference, np.quantile) == originals


def test_child_that_never_answers_is_a_clean_error(tmp_path):
    log = str(tmp_path / "child.log")
    dead = children.spawn([sys.executable, "-c", "raise SystemExit(3)"], ROOT, log)
    try:
        with pytest.raises(children.ChildError, match="exited with code 3"):
            children.read_line(dead, time.monotonic() + 30, "dead child")
    finally:
        children.stop(dead)
    silent = children.spawn([sys.executable, "-c", "import time; time.sleep(60)"], ROOT, log)
    t0 = time.monotonic()
    try:
        with pytest.raises(children.ChildError, match="deadline"):
            children.read_line(silent, time.monotonic() + 0.5, "silent child")
        assert time.monotonic() - t0 < 10
    finally:
        children.stop(silent)
    assert silent.returncode is not None


def test_refserver_is_stopped_with_the_workload(tmp_path):
    workload = make_workload("live_loopback", 0, True, ROOT, str(tmp_path))
    workload.pre_import(Tracer(enabled=False))
    proc = workload.server.proc
    workload.build(Tracer(enabled=False))
    workload.close()
    assert proc.returncode is not None


def test_missing_library_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "perfbench"), bench / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bench / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_loopback", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bench, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
