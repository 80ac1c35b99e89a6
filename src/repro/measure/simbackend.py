"""The simulator measurement backend ("sim").

The library's historical execution semantics behind the
:class:`~repro.measure.api.MeasurementBackend` protocol: one spec ==
one of the paper's independent runs == one fresh
:class:`~repro.core.bench.TestBench` boot in virtual time.  Every spec
takes one drive — build, run to completion, finish.  Plain specs build
and finish here (:func:`build_single`, :func:`_finish_single`);
scenario specs use the scenario runtime's pair
(:mod:`repro.scenarios.runtime`), whose bench is a ``TestBench``
subclass.  A spec with ``partitions`` set shards the same bench across
that many sub-kernels (:mod:`repro.sim.partition`) and finishes
through the same result assembly, bit-identical to the serial kernel.

This backend is the determinism anchor of the library — equal spec ⇒
bit-identical result in any process — which is why it alone declares
``deterministic=True`` and participates in the result cache and the
serial-vs-parallel identity gates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.aggregation import aggregate_quantile
from ..core.bench import BenchConfig, TestBench, partition_hosts, run_without_gc
from ..core.treadmill import TreadmillConfig, TreadmillInstance
from .api import BenchCapabilities, register_measurement_backend

__all__ = ["SimOptions", "SimBackend"]


@dataclass(frozen=True)
class SimOptions:
    """Options for the simulator backend (it takes none).

    Everything that influences a simulated *result* must live in the
    :class:`~repro.exec.spec.RunSpec` content digest, or equal specs
    would stop implying equal results and the cache contract would
    break; ``RunSpec.partitions`` is the one digest-neutral execution
    knob, because every partition count is pinned bit-identical to the
    serial kernel.
    """


class _SimRun:
    """One prepared simulator experiment (``MeasurementRun``)."""

    def __init__(self, spec) -> None:
        self.spec = spec

    def drive(self):
        """Boot, load, measure, report: a pure function of the spec.

        Same spec, same result, in any process and at any
        ``spec.partitions`` (the serial-vs-parallel and
        serial-vs-sharded determinism guarantees rest here).
        """
        spec = self.spec
        if spec.scenario is not None:
            from ..scenarios import runtime

            build, finish = runtime.build_scenario, runtime._finish_scenario
        else:
            build, finish = build_single, _finish_single
        t0 = time.perf_counter()
        bench, instances = build(spec, spec.partitions)
        run_without_gc(bench, instances)
        return finish(spec, bench, instances, time.perf_counter() - t0)


class SimBackend:
    """Virtual-time discrete-event backend (the historical semantics)."""

    def __init__(self, options: SimOptions | None = None) -> None:
        self.options = options if options is not None else SimOptions()

    def prepare(self, spec) -> _SimRun:
        return _SimRun(spec)

    def capabilities(self) -> BenchCapabilities:
        return BenchCapabilities(
            backend="sim",
            deterministic=True,
            wall_clock=False,
            fault_hookable=False,
            scenarios=True,
            utilization_targeting=True,
            # The guard tape (windowed phase summaries, warm-up tail,
            # mechanistic client utilizations) rides every sim report.
            guard_evidence=True,
        )

    def close(self) -> None:  # stateless; nothing to release
        return None


def build_single(spec, n_shards: "int | None" = None):
    """Boot the single-server bench and its Treadmill instances.

    Returns ``(bench, instances)`` with every instance started.  With
    ``n_shards`` the bench is sharded across that many sub-kernels: the
    single server keeps shard 0 and clients round-robin over the rest
    (one rack, so the split is within-rack).  Pure function of its
    arguments.
    """
    config = BenchConfig(
        workload=spec.workload, hardware=spec.hardware, seed=spec.seed
    )
    hosts = [(config.server_name, config.server_rack)]
    hosts += [(f"client{i}", config.server_rack) for i in range(spec.num_instances)]
    partition = partition_hosts(hosts, n_shards)
    bench = TestBench(config, run_index=spec.run_index, partition=partition)
    if spec.total_rate_rps is not None:
        total_rate = spec.total_rate_rps
    else:
        per_us = bench.server.arrival_rate_for_utilization(spec.target_utilization)
        total_rate = per_us * 1e6
    rate_per_instance = total_rate / spec.num_instances
    instances = []
    for i in range(spec.num_instances):
        tm_cfg = TreadmillConfig(
            rate_rps=rate_per_instance,
            connections=spec.connections_per_instance,
            warmup_samples=spec.warmup_samples,
            measurement_samples=spec.measurement_samples_per_instance,
            keep_raw=spec.keep_raw,
        )
        instances.append(TreadmillInstance(bench, f"client{i}", tm_cfg))
    for inst in instances:
        inst.start()
    return bench, instances


def _finish_single(spec, bench, instances, wall_s):
    """Metric aggregation + RunResult assembly from the finished bench."""
    from ..exec.spec import RunResult, metric_samples

    reports = [inst.report() for inst in instances]
    samples_by_client = {r.name: metric_samples(r) for r in reports}
    metrics = {
        q: aggregate_quantile(samples_by_client, q, combine=spec.combine)
        for q in spec.quantiles
    }
    return RunResult(
        run_index=spec.run_index,
        reports=reports,
        metrics=metrics,
        server_utilization=bench.server.measured_utilization(),
        client_utilizations={
            name: client.utilization() for name, client in bench.clients.items()
        },
        spec_digest=spec.digest(),
        wall_s=wall_s,
        events_processed=bench.events_processed,
    )


register_measurement_backend(
    "sim",
    lambda options: SimBackend(options),
    SimOptions,
    summary="virtual-time discrete-event bench (deterministic, cacheable)",
)
