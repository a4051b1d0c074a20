#!/usr/bin/env python3
"""Repeatability check: run one workload N times and summarise each metric.

    python3 perfbench/repeat.py --workload corpus --runs 10 --seed 1

Runs perfbench/run.py N times with seeds SEED..SEED+N-1 and prints, per
metric, the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread IQR/median,
next to the metric's bound in BENCHMARK.json.  A spread at or above the
bound is marked; a run that fails or reports correct=false stops the
tool with a non-zero exit.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bounds(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("bound") for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    limits = bounds(args.trace)

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed + i
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("repeat: run with seed %d exited %d" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("repeat: run with seed %d reported correct=false" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d done" % seed, file=sys.stderr)

    print("%-30s %-6s %14s %14s %14s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        mark = " !" if bound is not None and spread >= bound else ""
        print("%-30s %-6s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, units[name], med, q1, q3, spread,
               "-" if bound is None else bound, mark))


if __name__ == "__main__":
    main()
