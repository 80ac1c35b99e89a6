"""Build and finish one scenario-carrying RunSpec.

The scenario half of the simulator backend's one drive
(:class:`repro.measure.simbackend._SimRun`): :func:`build_scenario`
boots every pool, stands up every fleet's Treadmill instances and
starts the antagonists; the shared run loop
(:meth:`~repro.core.bench.TestBench.run_to_completion`) drives them;
:func:`_finish_scenario` reports — overall metrics via the paper's
per-instance-then-combine rule plus per-(fleet, pool)
``group_metrics``.  Both are pure functions of the spec, so the
serial-vs-parallel bit-identity guarantee of the execution layer
extends to scenarios unchanged.  The ``fleet=``/``pool=`` labels each
instance report carries double as the guard layer's grouping key: the
aggregation-imbalance detector (:mod:`repro.guards.detectors`) audits
per-client sample shares both pooled and per ``(fleet, pool)`` scope,
and the per-instance guard tape (``phase_windows``/``warmup_tail``)
recorded by the shared :class:`~repro.core.treadmill.PhaseRecorder`
gives the drift detectors the same evidence here as on plain specs.
``spec.partitions`` shards the same bench across sub-kernels
(:mod:`repro.sim.partition`) and finishes through the same assembly.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.aggregation import aggregate_quantile, grouped_quantiles
from ..core.arrival import arrival_from_spec
from ..core.bench import partition_hosts
from ..core.treadmill import TreadmillConfig, TreadmillInstance
from .bench import ScenarioBench
from .schema import ScenarioSpec

__all__ = ["build_scenario", "scenario_hosts"]


def _build_instances(spec, bench: ScenarioBench) -> List[TreadmillInstance]:
    """Stand up every fleet's Treadmill instances (construction order
    is a pure function of the scenario — all RNG streams ride on it)."""
    scenario: ScenarioSpec = spec.scenario
    instances: List[TreadmillInstance] = []
    for fleet in scenario.fleets:
        view = bench.fleet_view(fleet.name)
        rate_per_instance = bench.fleet_total_rate(fleet.name) / fleet.instances
        for i in range(fleet.instances):
            arrival = None
            if fleet.arrival is not None:
                arrival = arrival_from_spec(
                    {**dict(fleet.arrival), "rate_rps": rate_per_instance}
                )
            tm_cfg = TreadmillConfig(
                rate_rps=rate_per_instance,
                connections=fleet.connections_per_instance,
                warmup_samples=fleet.warmup_samples,
                measurement_samples=fleet.measurement_samples_per_instance,
                keep_raw=spec.keep_raw,
                arrival=arrival,
                start_us=fleet.start_us,
            )
            instances.append(
                TreadmillInstance(
                    view,
                    f"{fleet.name}{i}",
                    tm_cfg,
                    fleet=fleet.name,
                    pool=fleet.target,
                )
            )
    return instances


def scenario_hosts(scenario: ScenarioSpec) -> List[tuple]:
    """Every scenario host as ``(name, rack)`` in construction order
    (pool servers first, then fleet clients) — the input to
    :func:`repro.sim.partition.assign_shards`."""
    hosts = []
    for pool in scenario.pools:
        for i in range(pool.count):
            hosts.append((f"{pool.name}{i}", pool.rack))
    for fleet in scenario.fleets:
        rack = fleet.rack
        if rack is None:
            rack = scenario.pool(fleet.target).rack
        for i in range(fleet.instances):
            hosts.append((f"{fleet.name}{i}", rack))
    return hosts


def build_scenario(spec, n_shards: "int | None" = None):
    """Boot the scenario bench, its instances and its antagonists.

    Returns ``(bench, instances)`` with every antagonist and instance
    started.  With ``n_shards`` the bench is sharded across that many
    sub-kernels (rack-affine, :func:`repro.sim.partition.assign_shards`).
    Pure function of its arguments.
    """
    scenario: ScenarioSpec = spec.scenario
    partition = partition_hosts(scenario_hosts(scenario), n_shards)
    bench = ScenarioBench(scenario, run_index=spec.run_index, partition=partition)
    instances = _build_instances(spec, bench)
    bench.start_antagonists()
    for inst in instances:
        inst.start()
    return bench, instances


def _finish_scenario(spec, bench, instances, wall_s) -> "RunResult":
    """Aggregation + RunResult assembly from the finished bench."""
    from ..exec.spec import RunResult, metric_samples

    reports = [inst.report() for inst in instances]
    server_utils: Dict[str, float] = {}
    for servers in bench.pools.values():
        for server in servers:
            server_utils[server.name] = server.measured_utilization()
    samples_by_client = {r.name: metric_samples(r) for r in reports}
    metrics = {
        q: aggregate_quantile(samples_by_client, q, combine=spec.combine)
        for q in spec.quantiles
    }
    group_metrics = grouped_quantiles(
        samples_by_client,
        {r.name: r.group for r in reports},
        spec.quantiles,
        combine=spec.combine,
    )
    return RunResult(
        run_index=spec.run_index,
        reports=reports,
        metrics=metrics,
        # One scalar slot for many servers: report the bottleneck (the
        # hottest server), which is what capacity reasoning needs.
        server_utilization=float(max(server_utils.values())),
        client_utilizations={
            name: client.utilization() for name, client in bench.clients.items()
        },
        spec_digest=spec.digest(),
        wall_s=wall_s,
        events_processed=bench.events_processed,
        group_metrics=group_metrics,
    )
