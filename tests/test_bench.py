"""Unit tests for the test-bench wiring."""

import pytest

from repro.core.bench import BenchConfig, TestBench, drive_until
from repro.workloads.memcached import MemcachedWorkload


def make_bench(seed=0, run_index=0):
    return TestBench(
        BenchConfig(workload=MemcachedWorkload(service_noise_sigma=0.0), seed=seed),
        run_index=run_index,
    )


class TestConstruction:
    def test_server_booted_on_build(self):
        bench = make_bench()
        assert bench.server.booted

    def test_duplicate_client_rejected(self):
        bench = make_bench()
        bench.add_client("c0")
        with pytest.raises(ValueError):
            bench.add_client("c0")

    def test_client_gets_capture_by_default(self):
        bench = make_bench()
        client = bench.add_client("c0")
        assert client.capture is not None
        assert "c0" in bench.captures

    def test_capture_optional(self):
        bench = make_bench()
        client = bench.add_client("c0", capture=False)
        assert client.capture is None

    def test_open_connections_unique_ids(self):
        bench = make_bench()
        a = bench.open_connections(3)
        b = bench.open_connections(2)
        assert len(set(a + b)) == 5

    def test_open_zero_connections_rejected(self):
        bench = make_bench()
        with pytest.raises(ValueError):
            bench.open_connections(0)

    def test_different_run_index_different_boot_state(self):
        boots = {make_bench(run_index=i).server.boot_quality for i in range(6)}
        assert len(boots) > 1

    def test_same_seed_same_run_reproducible(self):
        a = make_bench(seed=3, run_index=2).server.boot_quality
        b = make_bench(seed=3, run_index=2).server.boot_quality
        assert a == b


class TestRoundTrip:
    def test_request_travels_full_path(self):
        bench = make_bench()
        client = bench.add_client("c0")
        conn = bench.open_connections(1)[0]
        wl = bench.config.workload
        req = wl.sample_request(bench.rng.stream("t"), 0, conn)
        got = []
        client.response_handler = got.append
        client.issue(req)
        bench.sim.run()
        assert got == [req]
        assert req.user_latency_us > 0
        assert req.nic_latency_us > 0
        # The NIC-level view excludes client kernel+CPU time.
        assert req.nic_latency_us < req.user_latency_us
        # And the capture saw it.
        assert len(client.capture.latencies_us) == 1

    def test_cross_rack_client_has_higher_latency(self):
        bench = make_bench()
        near = bench.add_client("near")
        far = bench.add_client("far", rack="rack9")
        conns = bench.open_connections(2)
        wl = bench.config.workload
        results = {}
        for client, conn in ((near, conns[0]), (far, conns[1])):
            req = wl.sample_request(bench.rng.stream("t"), conn, conn)
            client.response_handler = lambda r, name=client.name: results.__setitem__(
                name, r.user_latency_us
            )
            client.issue(req)
            bench.sim.run()
        assert results["far"] > results["near"]


class TestRunControl:
    def test_run_until_predicate(self):
        bench = make_bench()
        bench.sim.schedule(10.0, lambda: None)
        bench.sim.schedule(20.0, lambda: None)
        drive_until(bench.sim, lambda: bench.sim.now >= 10.0, check_every=1)
        assert bench.sim.now >= 10.0

    def test_run_until_raises_on_drained_heap(self):
        bench = make_bench()
        with pytest.raises(RuntimeError):
            drive_until(bench.sim, lambda: False)

    def test_run_until_bad_check_every(self):
        bench = make_bench()
        with pytest.raises(ValueError):
            drive_until(bench.sim, lambda: True, check_every=0)
