#!/usr/bin/env python
"""Benchmark the execution layer: serial vs process pool vs cluster.

Runs a small fig12/tab04-style randomized 2^4 factorial (the paper's
Table IV shape) three times through :class:`repro.core.attribution.
AttributionStudy` — on a :class:`~repro.exec.SerialExecutor`, a
:class:`~repro.exec.ParallelExecutor`, and a
:class:`~repro.exec.LocalClusterExecutor` (the distributed backend
with local worker subprocesses) — asserts that the per-run metrics
are bit-identical across all three, and writes ``BENCH_exec.json``
so the perf trajectory is tracked across PRs.

Usage::

    PYTHONPATH=src python scripts/bench_exec.py [--jobs 4]
        [--cluster-workers 4] [--replications 2] [--samples 800]
        [--out BENCH_exec.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import __version__  # noqa: E402
from repro.core.attribution import AttributionConfig, AttributionStudy  # noqa: E402
from repro.exec import (  # noqa: E402
    LocalClusterExecutor,
    ParallelExecutor,
    SerialExecutor,
    Telemetry,
)
from repro.workloads.memcached import MemcachedWorkload  # noqa: E402


def build_study(executor, args) -> AttributionStudy:
    return AttributionStudy(
        AttributionConfig(
            workload=MemcachedWorkload(),
            target_utilization=0.7,
            replications=args.replications,
            num_instances=2,
            measurement_samples_per_instance=args.samples,
            warmup_samples=150,
            seed=7,
        ),
        executor=executor,
    )


def run_lane(label, executor, args):
    telemetry = Telemetry()
    t0 = time.perf_counter()
    with executor as ex:
        runs = build_study(ex, args).run_experiments(progress=telemetry)
    elapsed = time.perf_counter() - t0
    events_per_s = telemetry.summary()["events_per_second"]
    print(f"[bench_exec] {label:<22} {elapsed:6.1f}s ({events_per_s} sim events/s)")
    return runs, elapsed, telemetry


def identical(a, b) -> bool:
    return all(
        x.coded == y.coded and (x.samples == y.samples).all() for x, y in zip(a, b)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--cluster-workers", type=int, default=4)
    parser.add_argument("--replications", type=int, default=2)
    parser.add_argument("--samples", type=int, default=800)
    parser.add_argument("--out", default="BENCH_exec.json")
    args = parser.parse_args()

    n_experiments = 16 * args.replications
    print(
        f"[bench_exec] factorial: 2^4 configs x {args.replications} reps "
        f"= {n_experiments} experiments, {args.samples} samples/instance"
    )

    # One discarded warm-up run: the first trip through the simulator
    # pays interpreter cold-start (code-object caches, allocator
    # arenas) that the steady-state lanes should not include.
    from repro.exec.spec import RunSpec  # noqa: E402
    from repro.measure import measure_spec  # noqa: E402

    measure_spec(
        RunSpec(
            workload=MemcachedWorkload(),
            target_utilization=0.7,
            num_instances=2,
            measurement_samples_per_instance=200,
            warmup_samples=50,
            seed=7,
        )
    )

    serial, serial_s, serial_telemetry = run_lane(
        "serial:", SerialExecutor(), args
    )
    parallel, parallel_s, _ = run_lane(
        f"process --jobs {args.jobs}:", ParallelExecutor(max_workers=args.jobs), args
    )
    cluster, cluster_s, _ = run_lane(
        f"cluster --workers {args.cluster_workers}:",
        LocalClusterExecutor(workers=args.cluster_workers),
        args,
    )

    parallel_speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cluster_speedup = serial_s / cluster_s if cluster_s > 0 else float("inf")
    from repro.hostinfo import host_info, parallel_meaningful as _pm  # noqa: E402

    parallel_identical = identical(serial, parallel)
    cluster_identical = identical(serial, cluster)
    parallel_meaningful = _pm()
    print(
        f"[bench_exec] speedups: process {parallel_speedup:.2f}x, "
        f"cluster {cluster_speedup:.2f}x"
    )
    if not parallel_meaningful:
        print(
            "[bench_exec] note: single-CPU host — parallel/cluster lanes "
            "still verify output identity, but their wall-clock numbers "
            "are not meaningful speedup measurements"
        )
    print(
        f"[bench_exec] outputs identical: process={parallel_identical} "
        f"cluster={cluster_identical}"
    )

    payload = {
        "bench": "exec_factorial",
        "library_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        #: Host provenance: trajectory points are only comparable
        #: between hosts with the same fingerprint.
        "host": host_info(),
        "experiments": n_experiments,
        "samples_per_instance": args.samples,
        "jobs": args.jobs,
        "cluster_workers": args.cluster_workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "cluster_s": round(cluster_s, 3),
        "speedup": round(parallel_speedup, 3),
        "cluster_speedup": round(cluster_speedup, 3),
        "outputs_identical": parallel_identical,
        "cluster_outputs_identical": cluster_identical,
        "serial_events_per_s": serial_telemetry.summary()["events_per_second"],
        #: False on single-CPU hosts: speedup numbers there measure
        #: scheduling overhead, not parallelism.
        "parallel_meaningful": parallel_meaningful,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[bench_exec] wrote {args.out}")

    if not (parallel_identical and cluster_identical):
        print("[bench_exec] FAIL: outputs differ between executors")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
