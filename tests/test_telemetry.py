"""Tests for machine telemetry (and mechanism-level verification of
the NIC-affinity and thermal behaviours it exists to expose)."""

import dataclasses

import numpy as np
import pytest

from repro.core.bench import BenchConfig, TestBench, drive_until
from repro.core.treadmill import TreadmillConfig, TreadmillInstance
from repro.sim.machine import HardwareSpec
from repro.sim.nic import AFFINITY_ALL_NODES, AFFINITY_SAME_NODE, NicConfig
from repro.sim.telemetry import MachineTelemetry
from repro.workloads.memcached import MemcachedWorkload


def loaded_bench(affinity=AFFINITY_SAME_NODE, seed=3, utilization=0.6, samples=2500):
    hardware = dataclasses.replace(
        HardwareSpec(), nic=NicConfig(affinity=affinity)
    )
    bench = TestBench(
        BenchConfig(workload=MemcachedWorkload(), hardware=hardware, seed=seed)
    )
    telemetry = MachineTelemetry(bench.server, period_us=500.0)
    telemetry.start()
    rate = bench.server.arrival_rate_for_utilization(utilization) * 1e6
    inst = TreadmillInstance(
        bench,
        "tm0",
        TreadmillConfig(
            rate_rps=rate, connections=16, warmup_samples=100, measurement_samples=samples
        ),
    )
    inst.start()
    # Telemetry reschedules itself forever; stop it before the final
    # drain or the event heap never empties.
    drive_until(bench.sim, lambda: inst.done)
    inst.stop()
    telemetry.stop()
    bench.sim.run()
    return bench, telemetry


class TestBasics:
    def test_samples_cover_all_cores(self):
        bench, telemetry = loaded_bench()
        cores = {s.core_index for s in telemetry.samples}
        assert cores == set(range(bench.server.spec.cpu.total_cores))

    def test_busy_fraction_bounded(self):
        _, telemetry = loaded_bench()
        assert all(0.0 <= s.busy_fraction <= 1.0 for s in telemetry.samples)

    def test_mean_busy_tracks_machine_utilization(self):
        bench, telemetry = loaded_bench()
        by_core = telemetry.mean_busy_by_core()
        telemetry_mean = np.mean(list(by_core.values()))
        assert telemetry_mean == pytest.approx(
            bench.server.measured_utilization(), abs=0.1
        )

    def test_double_start_rejected(self):
        bench, telemetry = loaded_bench()
        with pytest.raises(RuntimeError):
            telemetry.start()
            telemetry.start()

    def test_bad_period_rejected(self):
        bench = TestBench(BenchConfig(workload=MemcachedWorkload(), seed=1))
        with pytest.raises(ValueError):
            MachineTelemetry(bench.server, period_us=0.0)

    def test_core_series_shape(self):
        _, telemetry = loaded_bench()
        series = telemetry.core_series(0, "busy_fraction")
        assert series.size > 5


class TestMechanisms:
    def test_same_node_concentrates_irq_on_home_socket(self):
        """The nic factor's physical mechanism, observed directly."""
        _, telemetry = loaded_bench(affinity=AFFINITY_SAME_NODE)
        share = telemetry.irq_share_by_socket()
        assert share.get(0, 0.0) > 0.95

    def test_all_nodes_spreads_irq(self):
        _, telemetry = loaded_bench(affinity=AFFINITY_ALL_NODES)
        share = telemetry.irq_share_by_socket()
        assert 0.25 < share.get(1, 0.0) < 0.75

    def test_headroom_declines_from_cold_start(self):
        _, telemetry = loaded_bench(utilization=0.8)
        for socket in (0, 1):
            series = telemetry.headroom_series(socket)
            assert series.size > 5
            # Cold boot starts with full headroom; sustained load
            # erodes it.
            assert series[-1] < series[0]
            assert 0.0 <= series.min() <= series.max() <= 1.0

    def test_same_node_skews_busy_toward_socket0(self):
        _, telemetry = loaded_bench(affinity=AFFINITY_SAME_NODE)
        by_core = telemetry.mean_busy_by_core()
        socket0 = [s.busy_fraction for s in telemetry.samples if s.socket_index == 0]
        socket1 = [s.busy_fraction for s in telemetry.samples if s.socket_index == 1]
        assert np.mean(socket0) > np.mean(socket1)
