#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

For every workload and seed this runs the command of ``BENCHMARK.json``
with ``--workload W --seed S --seconds T --trace X`` from the repository
root, reads the JSON object on the last line of its output, and prints
per metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a
share of the median.

    python3 vrbench/sweep.py --seeds 1-10 --trace 0

The workloads and the run length ``T`` are those of ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def seed_range(text):
    lo, hi = text.split("-", 1)
    return range(int(lo), int(hi) + 1)


def run_once(workload, seed, trace):
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed: {lines[-1]}")
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="a range, lo-hi")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        per_metric = {}
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, args.trace)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        print(f"\n{workload}")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name, m in per_metric.items():
            s = summarise(m["values"])
            print(f"  {name:<28} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g}"
                  f" {s['spread']:>8.4f} {m['unit']}")


if __name__ == "__main__":
    main()
