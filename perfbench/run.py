#!/usr/bin/env python3
"""Whole-pipeline benchmark of the repro library.

Runs one workload (``table4_study``, ``scenario_suite`` or
``live_loopback``; see ``perfbench/README.md``) and prints a report
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and the spans are written as JSONL and Chrome trace-event JSON.

Usage::

    python3 perfbench/run.py --workload table4_study --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Exit codes: 0 correct, 1 a check failed or a run raised, 2 the library
could not be imported, 3 the hard deadline expired, 130 interrupted.
"""

import time

_T_START = time.perf_counter()  # origin of the main process's setup time

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import children, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    TAUS,
    WORKLOADS,
    check_fingerprints,
    make_workload,
)

#: Hard deadline of one invocation; the contract allows 180 s.
DEADLINE_S = 170.0
#: Fresh-process setups whose median is ``setup_s``.
SETUP_PROBES = 5
#: Most rounds one run makes, however short they are.
MAX_ROUNDS = 12
GOLDENS = os.path.join(HERE, "goldens.json")
#: End-to-end quantities that are reported but not gated: each is 0 on
#: some workload, or spreads on the live workload by more than any
#: bound a gate may have (see README.md).
UNGATED_UNITS = {"fit_s": "s", "latency_p50_us": "us", "latency_p99_us": "us",
                 "latency.samples": "count", "send_lag_mean_us": "us",
                 "late_fraction": "fraction", "error_rate": "fraction"}
UNGATED = tuple(k for k in UNGATED_UNITS if k != "error_rate")


class DeadlineExceeded(Exception):
    pass


class Interrupted(Exception):
    pass


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------
def setup_workload(args, tracer):
    """Import the library from this checkout and build the workload's
    inputs; everything a user pays before the first measured call."""
    os.makedirs(args.out_dir, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.quick, ROOT, args.out_dir)
    try:
        workload.pre_import(tracer)
        t0 = time.perf_counter()
        with tracer.span("setup.import"):
            sys.path.insert(0, os.path.join(ROOT, "src"))
            import repro
        workload.times["import_s"] = time.perf_counter() - t0
        expected = os.path.join(ROOT, "src", "repro")
        if os.path.dirname(os.path.realpath(repro.__file__)) != os.path.realpath(expected):
            raise ImportError(f"imported repro from {repro.__file__}, not from {expected}")
        with tracer.span("setup.build"):
            workload.build(tracer)
    except BaseException:
        workload.close()
        raise
    return workload


def probe_main(args):
    """``--setup-probe``: set up, say READY, tear down."""
    workload = setup_workload(args, tracing.Tracer(enabled=False))
    try:
        print("READY " + json.dumps(workload.times), flush=True)
    finally:
        workload.close()
    return 0


def run_setup_probes(args, count):
    """Setup seconds of ``count`` fresh processes, each timed from spawn
    to its READY line (interpreter start included)."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--out-dir", args.out_dir]
    if args.quick:
        argv.append("--quick")
    times, problems = [], []
    for i in range(count):
        t0 = time.perf_counter()
        proc = children.spawn(argv, ROOT, os.path.join(args.out_dir, "probe.log"))
        try:
            line = children.read_line(proc, time.monotonic() + 60.0, f"setup probe {i}")
            if not line.startswith("READY"):
                raise children.ChildError(f"setup probe {i}: unexpected line {line!r}")
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=30)
            if proc.returncode != 0:
                raise children.ChildError(f"setup probe {i}: exit code {proc.returncode}")
        except (children.ChildError, subprocess.TimeoutExpired) as exc:
            problems.append(str(exc))
        finally:
            children.stop(proc)
    return times, problems


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def run_rounds(workload, seconds):
    """Identical untraced rounds until the next would overrun ``seconds``."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rnd = workload.round(tracing.Tracer(enabled=False), len(rounds))
        rounds.append(rnd)
        last = time.perf_counter() - start
        if rnd.failed or len(rounds) >= MAX_ROUNDS:
            break
        if time.perf_counter() - t0 + last > seconds:
            break
    return rounds


def run_traced(workload, tracer):
    """One untraced round, one traced round and, for the simulator, one
    profiled round.  Returns (every round, module self-time shares); the
    traced and profiled rounds must reproduce the untraced one."""
    rounds = [workload.round(tracing.Tracer(enabled=False), 0)]
    with tracing.Instrumentation() as inst:
        tracing.install_layers(tracer, inst, workload.simulated)
        rounds.append(workload.round(tracer, 1))
    shares = {name: 0.0 for name in tracing.SELF_SHARE_MODULES}
    if workload.simulated:
        import cProfile

        profile = cProfile.Profile()
        rounds.append(workload.round(tracing.ProfilingTracer(profile, "measure.measure_spec"), 2))
        shares = tracing.module_self_shares(profile, os.path.join(ROOT, "src", "repro"))
    return rounds, shares


def check_rounds(workload, rounds, args):
    """Cross-round and golden checks; returns problems (each a failure)."""
    problems = []
    if not workload.simulated:
        return problems
    first = rounds[0]
    for i, rnd in enumerate(rounds[1:], start=1):
        if rnd.failed:
            continue
        problems += check_fingerprints(rnd.fingerprints, first.fingerprints, f"round {i} vs round 0")
        if rnd.fit_digest != first.fit_digest:
            problems.append(f"round {i}: fit digest differs from round 0")
    if args.quick or first.failed:
        return problems
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    if args.record_golden:
        goldens.setdefault(workload.name, {})[str(args.seed)] = {
            "runs": first.fingerprints, "fit": first.fit_digest}
        with open(GOLDENS, "w") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")
    golden = goldens.get(workload.name, {}).get(str(args.seed))
    if golden is not None:
        problems += check_fingerprints(first.fingerprints, golden["runs"], f"seed {args.seed} golden")
        if golden.get("fit", "") != first.fit_digest:
            problems.append(f"seed {args.seed}: fit digest {first.fit_digest[:12]} != golden")
    return problems


def robust_total(rounds, k, calibrated=True):
    """A round's wall (``k=0``) or CPU (``k=1``) seconds, as the sum over
    its measure_spec calls of each call's median across rounds, plus the
    median of the time outside those calls.  A per-call median drops a
    slow burst that hit one round where a median of round totals would
    keep it.  ``calibrated`` scales each call by the host speed factor
    measured just before it (see ``calibration.py``)."""
    med = statistics.median

    def scale(unit):
        return unit[k] * (unit[2] if calibrated else 1.0)

    calls = sum(med(scale(r.units[i]) for r in rounds) for i in range(len(rounds[0].units)))
    rest = med(
        ((r.cpu_s if k else r.simulate_s) - sum(u[k] for u in r.units))
        * (statistics.fmean(u[2] for u in r.units) if calibrated else 1.0)
        for r in rounds
    )
    return calls + rest


def latency(rounds, q):
    """A run's latency quantile.  Simulated rounds repeat each other, so
    any round's value is the run's.  Live rounds are independent runs:
    each instance's quantile is taken over its latencies from every
    round, then the instances are combined by their mean, as
    ``RunResult.metrics`` combines them.  Pooling keeps a burst of
    stalls in one round from deciding the tail alone."""
    import numpy as np

    if not rounds[0].raw_by_instance:
        return statistics.median(r.latency_us[q] for r in rounds)
    names = rounds[0].raw_by_instance
    return statistics.fmean(
        float(np.quantile(np.concatenate([r.raw_by_instance[n] for r in rounds]), q))
        for n in names
    )


def summary(rounds, setup_times, calibrated=True):
    """Every end-to-end quantity of a run, gated in ``BENCHMARK.json`` or
    not.  ``calibrated=False`` gives the raw host seconds, which the
    record keeps next to the calibrated ones."""
    med = statistics.median
    simulate_s = robust_total(rounds, 0, calibrated)
    # The fit is raw seconds: it is mostly numpy and scipy code, which
    # the host's slow spells stretch less than interpreter work, so
    # scaling it by the kernel's speed added noise instead of removing it.
    fit_s = med(r.fit_s for r in rounds)
    return {
        "setup_s": med(setup_times) if setup_times else float("nan"),
        "simulate_s": simulate_s,
        "answer_s": simulate_s + fit_s,
        "fit_s": fit_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "client_cpu_us_per_req":
            1e6 * robust_total(rounds, 1, calibrated) / med(r.requests for r in rounds),
        "latency_p50_us": latency(rounds, 0.5),
        "latency_p99_us": latency(rounds, 0.99),
        # Live quantiles pool every round's samples; simulated rounds repeat.
        "latency.samples": sum(r.latency_samples for r in rounds)
        if rounds[0].raw_by_instance else rounds[0].latency_samples,
        "send_lag_mean_us": med(r.live.get("send_lag_mean_us", 0.0) for r in rounds),
        "late_fraction": med(r.live.get("late_fraction", 0.0) for r in rounds),
    }


def per_layer(workload, base, traced, shares, tracer):
    """Every per-layer metric; zero where the layer did no work."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    measure = [s.duration for s in spans if s.name == "measure.measure_spec"]
    exec_self = sum(t for s, t in zip(spans, selfs) if s.name == "exec.execute_specs")
    sim_s = tracer.total("sim.run")
    c = tracer.counters
    live = traced.live
    out = {
        "exec.overhead_s": exec_self,
        "measure.run_s_p50": statistics.median(measure) if measure else 0.0,
        "measure.runs": len(measure),
        "core.build_s": tracer.total("core.build"),
        "core.report_s": tracer.total("core.report"),
        "core.subsample_s": tracer.total("core.subsample"),
        "sim.events": traced.events,
        "sim.events_per_request": traced.events / traced.requests if traced.events else 0.0,
        "sim.events_per_s": traced.events / sim_s if sim_s > 0 else 0.0,
    }
    # End-to-end quantities that are not gated, from the untraced round.
    untraced = summary([base], [])
    out.update({k: untraced[k] for k in UNGATED})
    out.update({f"self_share.{k}": v for k, v in shares.items()})
    executed = c.get("partition.executed", 0)
    out.update({
        "partition.windows": c.get("partition.windows", 0),
        "partition.boundary_event_fraction":
            c.get("partition.boundary_events", 0) / executed if executed else 0.0,
        "partition.drive_s": tracer.total("partition.drive"),
        "scenarios.compile_s": tracer.total("scenarios.compile"),
        "guards.evaluate_s": tracer.total("guards.evaluate"),
    })
    out.update({f"stats.fit_s.{tau:g}": tracer.total(f"stats.fit.{tau:g}") for tau in TAUS})
    out.update({
        "stats.quantile_calls": c.get("stats.quantile_calls", 0),
        "stats.quantreg_solves": c.get("stats.quantreg_solves", 0),
        "live.sends": live.get("sends", 0),
        "live.responses": live.get("responses", 0),
        "live.lost_sends": live.get("lost_sends", 0),
        "live.reconnects": live.get("reconnects", 0),
        "live.loop_lag_p99_us": live.get("loop_lag_p99_us", 0.0),
        "live.send_lag_p99_us": live.get("send_lag_p99_us", 0.0),
        "live.client_cpu_fraction": live.get("client_cpu_fraction", 0.0),
        "refserver.cpu_fraction": live.get("refserver_cpu_fraction", 0.0),
        "setup.import_s": tracer.total("setup.import"),
        "setup.refserver_ready_s": workload.times.get("refserver_ready_s", 0.0),
        "error_rate": base.failed / base.attempted if base.attempted else 0.0,
        "trace.spans": len(spans),
        "trace.overhead_fraction":
            traced.answer_s / base.answer_s - 1.0 if base.answer_s > 0 else 0.0,
    })
    return out


def provenance(workload, args):
    import numpy
    import scipy

    import repro
    from repro.hostinfo import host_info

    host = host_info()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "quick": bool(args.quick),
        "params": workload.params(),
        "host_fingerprint": host["fingerprint"],
        "host": host,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
    }


def _units(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(args):
    spec = _load_spec()
    tracer = tracing.Tracer(enabled=bool(args.trace))
    attempted = failed = 0
    problems = []
    workload = None
    try:
        try:
            workload = setup_workload(args, tracer)
        except children.ChildError as exc:
            # A server that never came up is one failed operation.
            print(f"error: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        main_setup_s = time.perf_counter() - _T_START
        if args.trace:
            rounds, shares = run_traced(workload, tracer)
        else:
            rounds = run_rounds(workload, args.seconds)
    finally:
        if workload is not None:
            workload.close()
    if not args.trace:
        setup_times, probe_problems = run_setup_probes(args, 1 if args.quick else SETUP_PROBES)
        attempted += len(setup_times) + len(probe_problems)
        failed += len(probe_problems)
        problems += probe_problems
    for rnd in rounds:
        attempted += rnd.attempted
        failed += rnd.failed
        problems += rnd.problems
    cross = check_rounds(workload, rounds, args)
    failed += len(cross)
    problems += cross

    record = {"provenance": provenance(workload, args), "setup_main_s": main_setup_s,
              "setup_times": workload.times, "rounds": len(rounds),
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted if attempted else 0.0,
              "problems": problems[:50]}
    if args.trace:
        metrics = per_layer(workload, rounds[0], rounds[1], shares, tracer)
        units = _units(spec, "per_layer")
        stem = os.path.join(args.out_dir, f"{workload.name}-seed{args.seed}")
        tracer.write_jsonl(stem + ".trace.jsonl")
        tracer.write_chrome(stem + ".chrome.json")
        record["trace_files"] = [stem + ".trace.jsonl", stem + ".chrome.json"]
    else:
        # A failed round is cut short; the metrics come from whole rounds.
        whole = [r for r in rounds if not r.failed]
        metrics = summary(whole, setup_times) if whole else {}
        record["ungated"] = {k: metrics[k] for k in UNGATED if k in metrics}
        record["raw_host_seconds"] = summary(whole, setup_times, calibrated=False) if whole else {}
        record["setup_probe_times"] = setup_times
        record["round_simulate_s"] = [r.simulate_s for r in rounds]
        record["round_fit_s"] = [r.fit_s for r in rounds]
        record["round_latency_us"] = [r.latency_us for r in rounds]
        units = _units(spec, "end_to_end")
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}
    with open(os.path.join(args.out_dir, f"{workload.name}-seed{args.seed}-"
                           f"{'trace' if args.trace else 'run'}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print_report(record)
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


def print_report(record):
    p = record["provenance"]
    print(f"# {p['workload']} seed={p['seed']} traced={p['traced']} rounds={record['rounds']} "
          f"host={p['host_fingerprint']} nproc={p['nproc']} python={p['python']} "
          f"numpy={p['numpy']} scipy={p['scipy']} repro={p['repro']}")
    print(f"#   params {json.dumps(p['params'], sort_keys=True)}")
    for name, m in record["metrics"].items():
        print(f"#   {name:34s} {m['value']:>16.6g} {m['unit']}")
    if not p["traced"]:
        ungated = dict(record["ungated"], error_rate=record["error_rate"])
        for name, value in ungated.items():
            unit = UNGATED_UNITS[name]
            print(f"#   {name:34s} {value:>16.6g} {unit}  (not gated)")
    print(f"#   attempted={record['attempted']} failed={record['failed']} correct={record['correct']}")
    for problem in record["problems"][:10]:
        print(f"#   problem: {problem}")


def run_all(args):
    """Every workload in its own process; one table at the end."""
    rows = []
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out-dir", args.out_dir]
        if args.quick:
            argv.append("--quick")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S + 10)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            rows.append((name, json.loads(lines[-1])))
        except (IndexError, ValueError):
            rows.append((name, {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        code = max(code, proc.returncode)
    print(f"{'workload':16s} {'metric':34s} {'value':>16s} unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:34s} {m['value']:>16.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
        print(f"{name:16s} {'error_rate':34s} {rate:>16.6g} fraction  correct={result['correct']}")
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's fingerprints as the expected ones "
                             "(only after a deliberate change of simulated results)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _raise(exc_type):
    def handler(signum, frame):
        raise exc_type(f"signal {signum}")
    return handler


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGTERM, _raise(Interrupted))
    signal.signal(signal.SIGALRM, _raise(DeadlineExceeded))
    signal.alarm(int(DEADLINE_S))
    # Last resort if cleanup itself hangs: children die with us
    # (PR_SET_PDEATHSIG), so exiting hard leaves nothing behind.
    hard_stop = threading.Timer(DEADLINE_S + 5.0, lambda: os._exit(3))
    hard_stop.daemon = True
    hard_stop.start()
    try:
        if args.setup_probe:
            return probe_main(args)
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    except DeadlineExceeded:
        print(f"error: {args.workload} exceeded the {DEADLINE_S:g} s deadline", file=sys.stderr)
        return 3
    except (KeyboardInterrupt, Interrupted):
        print(f"error: {args.workload} interrupted", file=sys.stderr)
        return 130
    finally:
        signal.alarm(0)
        hard_stop.cancel()


if __name__ == "__main__":
    sys.exit(main())
