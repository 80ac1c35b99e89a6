"""The benchmark's three workloads, each driven through the library's
public entry points from one process.

* ``table4_study`` - the paper's Table-IV attribution study
  (``AttributionStudy`` on ``SerialExecutor``, then ``analyze``).
* ``scenario_suite`` - every curated library scenario plus the kernel
  bench spec, spec -> ``RunResult`` through ``measure_spec``.
* ``live_loopback`` - the live backend against a ``refserver`` child at
  a fixed open-loop rate over the loopback interface.

A workload is set up once (``pre_import``, then ``build``), then run in
rounds.  Every round of a simulated workload redoes identical work, so
its fingerprints must repeat exactly; a live round is an independent
run (its own ``run_index``).  The seed reaches the library only through
the specs built here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .calibration import speed_factor
from .children import RefServer
from .tracing import Tracer

__all__ = ["WORKLOADS", "Round", "derive_seed", "check_fingerprints", "make_workload"]

#: Curated library scenarios the suite runs (all five at this writing;
#: a scenario added later joins the benchmark in its own change).
SCENARIOS = (
    "colocated_antagonist",
    "cross_rack_shift",
    "diurnal_flash_crowd",
    "heterogeneous_pool",
    "mcrouter_fanout",
)

#: The refserver's constant service time; any measured latency above
#: it is measurement bias, and none may be below it.
SERVICE_US = 50.0

#: Run sizes.  ``quick`` is for the benchmark's own tests only.
SIZES = {
    "table4_study": {
        "full": dict(replications=2, num_instances=4, samples_per_instance=500,
                     warmup_samples=200, samples_per_experiment=1000, n_boot=120),
        "quick": dict(replications=1, num_instances=2, samples_per_instance=200,
                      warmup_samples=50, samples_per_experiment=300, n_boot=10),
    },
    "scenario_suite": {
        "full": dict(run_indexes=4, bench_samples_per_instance=3000, bench_warmup_samples=200),
        "quick": dict(run_indexes=1, bench_samples_per_instance=300, bench_warmup_samples=50),
    },
    "live_loopback": {
        "full": dict(rate_rps=8000.0, instances=2, connections=1,
                     warmup_samples=2000, samples_per_instance=20000),
        "quick": dict(rate_rps=2000.0, instances=2, connections=1,
                      warmup_samples=100, samples_per_instance=600),
    },
}

TAUS = (0.5, 0.95, 0.99)


def derive_seed(seed: int, name: str) -> int:
    """A per-input seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{name}/{seed}".encode()).hexdigest()
    return int(digest[:8], 16) & 0x7FFFFFFF


@dataclass
class Round:
    """What one round measured and checked."""

    #: Host seconds to produce every RunResult of the round.
    simulate_s: float = 0.0
    #: Host seconds of the fit (table4_study only).
    fit_s: float = 0.0
    #: Process CPU seconds while producing the RunResults.
    cpu_s: float = 0.0
    #: (wall s, cpu s, host speed factor) of each measure_spec call, in
    #: order; the factor comes from a calibration run just before it.
    units: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Wall and CPU seconds the calibrations inside the round took.
    calibration_s: float = 0.0
    calibration_cpu_s: float = 0.0
    requests: int = 0
    events: int = 0
    #: Latency quantile (us) by tau, from the round's RunResults.
    latency_us: Dict[float, float] = field(default_factory=dict)
    latency_samples: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    fit_digest: str = ""
    #: Live-only observations (send lag, health, probes).
    live: Dict[str, float] = field(default_factory=dict)
    #: Live only: each instance's measured latencies (us).
    raw_by_instance: Dict[str, object] = field(default_factory=dict)

    @property
    def answer_s(self) -> float:
        return self.simulate_s + self.fit_s

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


def check_sim_result(spec, result, out: Round) -> None:
    """Structural checks every simulated RunResult must pass."""
    label = getattr(spec, "tag", "") or spec.digest()[:12]
    if result.spec_digest != spec.digest():
        out.fail(f"{label}: result digest does not match its spec")
        return
    metrics = [result.metrics.get(q) for q in TAUS]
    if any(m is None or not math.isfinite(m) or m <= 0 for m in metrics):
        out.fail(f"{label}: missing or non-positive latency quantiles {metrics}")
        return
    if not metrics[0] <= metrics[1] <= metrics[2]:
        out.fail(f"{label}: latency quantiles out of order {metrics}")
        return
    for report in result.reports:
        if report.responses_recorded <= 0 or report.requests_sent < report.responses_recorded:
            out.fail(f"{label}: {report.name} recorded {report.responses_recorded} "
                     f"of {report.requests_sent} sent")
            return
    if getattr(spec, "scenario", None) is not None and not result.group_metrics:
        out.fail(f"{label}: scenario run has no per-group metrics")


def check_fingerprints(observed: Sequence[str], expected: Sequence[str], what: str) -> List[str]:
    """Problems found comparing run fingerprints with the expected ones."""
    if len(observed) != len(expected):
        return [f"{what}: {len(observed)} results, expected {len(expected)}"]
    return [
        f"{what}: run {i} fingerprint {o[:12]} != expected {e[:12]}"
        for i, (o, e) in enumerate(zip(observed, expected))
        if o != e
    ]


class _Workload:
    name = ""
    #: Whether the workload runs the simulator (else the live backend).
    simulated = True

    def __init__(self, seed: int, quick: bool, root: str, out_dir: str):
        self.seed = seed
        self.quick = quick
        self.root = root
        self.out_dir = out_dir
        self.size = SIZES[self.name]["quick" if quick else "full"]
        self.times: Dict[str, float] = {}

    def params(self) -> Dict[str, object]:
        return dict(self.size)

    def pre_import(self, tracer: Tracer) -> None:
        """Work started before ``import repro`` (so it can overlap it)."""

    def build(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def round(self, tracer: Tracer, index: int) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _calibrate(out: Round, tracer: Tracer) -> float:
    """The host speed factor now; its cost is kept out of the round's
    times, and its span keeps it out of the enclosing spans' self time."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("bench.calibrate"):
        factor = speed_factor()
    out.calibration_s += time.perf_counter() - t0
    out.calibration_cpu_s += time.process_time() - cpu0
    return factor


def _timed_measure(measure_spec, spec, tracer: Tracer, out: Round):
    """``measure_spec(spec)`` inside its span, timed into ``out.units``."""
    factor = _calibrate(out, tracer)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("measure.measure_spec", run=spec.digest()):
        result = measure_spec(spec)
    out.units.append((time.perf_counter() - t0, time.process_time() - cpu0, factor))
    return result


def _summarize_sim(pairs, out: Round) -> None:
    """Latency, request and event totals plus checks over (spec, result)."""
    from repro.exec.spec import result_fingerprint

    for spec, result in pairs:
        check_sim_result(spec, result, out)
        out.fingerprints.append(result_fingerprint(result))
        out.requests += sum(r.requests_sent for r in result.reports)
        out.events += result.events_processed
        out.latency_samples += sum(r.responses_recorded for r in result.reports)
    out.latency_us = {q: statistics.median(r.metrics[q] for _, r in pairs) for q in TAUS}


class Table4Study(_Workload):
    """Table IV: memcached at 70 % utilization, randomized 2^4 factorial
    x replications, fit at tau = 0.5/0.95/0.99 with bootstrap."""

    name = "table4_study"

    def build(self, tracer: Tracer) -> None:
        from repro.core.attribution import AttributionConfig
        from repro.workloads.memcached import MemcachedWorkload

        s = self.size
        self.config = AttributionConfig(
            workload=MemcachedWorkload(),
            target_utilization=0.7,
            replications=s["replications"],
            samples_per_experiment=s["samples_per_experiment"],
            taus=TAUS,
            num_instances=s["num_instances"],
            measurement_samples_per_instance=s["samples_per_instance"],
            warmup_samples=s["warmup_samples"],
            n_boot=s["n_boot"],
            seed=self.seed,
        )

    def round(self, tracer: Tracer, index: int) -> Round:
        import numpy as np
        from repro.core.attribution import AttributionStudy
        from repro.exec.executors import SerialExecutor
        from repro.measure.api import measure_spec

        out = Round()
        pairs = []

        def task(spec):
            result = _timed_measure(measure_spec, spec, tracer, out)
            pairs.append((spec, result))
            return result

        study = AttributionStudy(self.config, executor=SerialExecutor(task=task))
        expected = len(study.design.configs()) * self.config.replications
        out.attempted = expected + 1  # every run, plus the fit
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            experiments = study.run_experiments()
        except Exception as exc:  # noqa: BLE001 - a failed run fails the round
            out.fail(f"sweep raised {type(exc).__name__}: {exc}", expected + 1 - len(pairs))
            return out
        t1 = time.perf_counter()
        out.cpu_s = time.process_time() - cpu0 - out.calibration_cpu_s
        out.simulate_s = t1 - t0 - out.calibration_s
        try:
            report = study.analyze(experiments)
        except Exception as exc:  # noqa: BLE001
            out.fail(f"fit raised {type(exc).__name__}: {exc}")
            return out
        out.fit_s = time.perf_counter() - t1
        _summarize_sim(pairs, out)
        if len(pairs) != expected:
            out.fail(f"{len(pairs)} runs, expected {expected}")
        h = hashlib.sha256()
        for tau in TAUS:
            fit = report.fits[tau]
            for arr in (fit.coefficients, fit.stderr, fit.p_values):
                h.update(np.asarray(arr, dtype=float).tobytes())
            h.update(repr((report.pseudo_r2[tau], report.best_config(tau))).encode())
        out.fit_digest = h.hexdigest()
        return out


class ScenarioSuite(_Workload):
    """Every curated scenario at several run indexes, plus the kernel
    bench spec of ``scripts/bench_sim.py``."""

    name = "scenario_suite"

    def build(self, tracer: Tracer) -> None:
        from repro.exec.spec import RunSpec
        from repro.scenarios import (
            compile_scenario,
            load_scenario,
            scenario_from_json,
            scenario_to_jsonable,
        )
        from repro.workloads.memcached import MemcachedWorkload

        s = self.size
        self.specs = []
        for name in SCENARIOS:
            doc = scenario_to_jsonable(load_scenario(name))
            doc["seed"] = derive_seed(self.seed, name)
            doc["replications"] = s["run_indexes"]
            scenario = scenario_from_json(doc)
            with tracer.span("scenarios.compile"):
                self.specs.extend(compile_scenario(scenario))
        # The bench spec of scripts/bench_sim.py: one memcached server,
        # two Treadmill instances at 70 % utilization.
        bench_seed = derive_seed(self.seed, "bench_spec")
        for run_index in range(s["run_indexes"]):
            self.specs.append(
                RunSpec(
                    workload=MemcachedWorkload(),
                    target_utilization=0.7,
                    num_instances=2,
                    connections_per_instance=4,
                    warmup_samples=s["bench_warmup_samples"],
                    measurement_samples_per_instance=s["bench_samples_per_instance"],
                    keep_raw=True,
                    seed=bench_seed,
                    run_index=run_index,
                    tag=f"bench_spec rep={run_index}",
                )
            )

    def params(self) -> Dict[str, object]:
        return {**self.size, "scenarios": list(SCENARIOS), "runs": len(self.specs)}

    def round(self, tracer: Tracer, index: int) -> Round:
        from repro.measure.api import measure_spec

        out = Round(attempted=len(self.specs))
        pairs = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for spec in self.specs:
            try:
                pairs.append((spec, _timed_measure(measure_spec, spec, tracer, out)))
            except Exception as exc:  # noqa: BLE001 - one failed run, keep going
                out.fail(f"{spec.tag}: raised {type(exc).__name__}: {exc}")
        out.simulate_s = time.perf_counter() - t0 - out.calibration_s
        out.cpu_s = time.process_time() - cpu0 - out.calibration_cpu_s
        if pairs:
            _summarize_sim(pairs, out)
        return out


class LiveLoopback(_Workload):
    """Open-loop Poisson at a fixed rate from 2 instances x 1 connection
    against a constant-service refserver child over loopback."""

    name = "live_loopback"
    simulated = False
    server: Optional[RefServer] = None

    def params(self) -> Dict[str, object]:
        return {**self.size, "service_us": SERVICE_US, "processes": 1}

    def pre_import(self, tracer: Tracer) -> None:
        self.server = RefServer(
            self.root, SERVICE_US, self.seed, os.path.join(self.out_dir, "refserver.log")
        )
        self._spawned = time.perf_counter()
        self.server.spawn()

    def build(self, tracer: Tracer) -> None:
        from repro.exec.spec import RunSpec
        from repro.live.driver import ping
        from repro.workloads.memcached import MemcachedWorkload

        s = self.size
        self.spec = RunSpec(
            workload=MemcachedWorkload(),
            total_rate_rps=s["rate_rps"],
            num_instances=s["instances"],
            connections_per_instance=s["connections"],
            warmup_samples=s["warmup_samples"],
            measurement_samples_per_instance=s["samples_per_instance"],
            keep_raw=True,
            seed=self.seed,
            backend="live",
        )
        with tracer.span("setup.refserver_ready"):
            self.server.wait_ready(ping, timeout_s=30.0)
        self.times["refserver_ready_s"] = time.perf_counter() - self._spawned

    def round(self, tracer: Tracer, index: int) -> Round:
        import numpy as np
        from repro.measure.api import backend_defaults, measure_spec

        s = self.size
        spec = dataclasses.replace(self.spec, run_index=index)
        budget = s["instances"] * (s["warmup_samples"] + s["samples_per_instance"])
        out = Round(attempted=budget)
        srv0 = self.server.cpu_seconds()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with backend_defaults("live", target=self.server.target):
                with tracer.span("measure.measure_spec", run=spec.digest()):
                    result = measure_spec(spec)
        except Exception as exc:  # noqa: BLE001 - a failed run fails the round
            out.fail(f"live run raised {type(exc).__name__}: {exc}", budget)
            return out
        out.simulate_s = time.perf_counter() - t0
        out.cpu_s = time.process_time() - cpu0
        # Not calibrated: the round's wall time is set by its arrival
        # schedule, and its CPU is mostly the kernel's socket path, which
        # the host's slow spells do not stretch like interpreter work.
        out.units.append((out.simulate_s, out.cpu_s, 1.0))
        srv_cpu = self.server.cpu_seconds() - srv0

        health = result.live_health
        sent = sum(r.requests_sent for r in result.reports)
        lost = int(health["lost_sends"])
        out.attempted = sent + lost
        out.requests = sent
        if lost:
            out.fail(f"{lost} sends lost", lost)
        if health["lost_pending"]:
            out.fail(f"{health['lost_pending']} sends never answered", int(health["lost_pending"]))
        if health["dropped_connections"]:
            out.problems.append(f"{health['dropped_connections']} connections dropped")
        for report in result.reports:
            raw = np.asarray(report.raw_samples, dtype=float)
            short = s["samples_per_instance"] - min(raw.size, report.responses_recorded)
            if short:
                out.fail(f"{report.name}: {short} measured requests without a matching answer", short)
            below = int(np.count_nonzero(raw < SERVICE_US))
            if below:
                out.fail(f"{report.name}: {below} latencies below the {SERVICE_US:g} us service time", below)
            out.raw_by_instance[report.name] = raw
        out.latency_samples = sum(x.size for x in out.raw_by_instance.values())
        out.latency_us = {q: float(result.metrics[q]) for q in TAUS}

        lags = result.send_lag.values()
        n = sum(l["n"] for l in lags) or 1
        probe = result.client_probe
        out.live = {
            "send_lag_mean_us": 1e6 * sum(l["mean_lag_s"] * l["n"] for l in lags) / n,
            "send_lag_p99_us": 1e6 * sum(l["p99_lag_s"] for l in lags) / max(len(lags), 1),
            "late_fraction": sum(l["late_fraction"] * l["n"] for l in lags) / n,
            "loop_lag_p99_us": 1e6 * probe["loop_lag_p99_s"],
            "client_cpu_fraction": probe["cpu_fraction"],
            "refserver_cpu_fraction": srv_cpu / out.simulate_s,
            "sends": sent,
            "responses": sum(r.responses_recorded for r in result.reports),
            "lost_sends": lost,
            "reconnects": int(health["reconnects"]),
        }
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


WORKLOADS = {w.name: w for w in (Table4Study, ScenarioSuite, LiveLoopback)}


def make_workload(name: str, seed: int, quick: bool, root: str, out_dir: str) -> _Workload:
    return WORKLOADS[name](seed, quick, root, out_dir)
