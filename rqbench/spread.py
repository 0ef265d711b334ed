#!/usr/bin/env python3
"""Measures how much the end-to-end metrics of one workload spread over seeds.

    python3 rqbench/spread.py --workload codec [--seeds 1-10 | --seeds 12345,987654,...] [--seconds S]

Runs rqbench/run.py once per seed (untraced, --seconds defaulting to
BENCHMARK.json's run_seconds) from the repository root and prints, per
end-to-end metric, the median, the quartiles by Python's
statistics.quantiles(n=4), and their distance as a share of the median next
to a third of the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(spec):
    """'1-10' is a range, '12345,987654' a list."""
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", a.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {m['bound'] / 3:>8.4f}")


if __name__ == "__main__":
    main()
