#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``perfbench/run.py`` once per seed on each workload and reports,
for every end-to-end metric, the median of the runs and the distance
between their first and third quartiles as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  A spread at or above a third of the bound is
flagged.

Usage::

    python3 perfbench/spread.py --seeds 1-10 [--workload scenario_suite] [--out spread.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    ok = True
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: failed ({result['failed']} failures)")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  <-- at or above a third of the bound"
            rows[metric["name"]] = {"median": med, "spread": spread, "bound": metric["bound"],
                                    "values": vals}
            print(f"  {workload:16s} {metric['name']:24s} median {med:12.6g} "
                  f"spread {spread:7.4f} bound {metric['bound']}{flag}")
        report[workload] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
