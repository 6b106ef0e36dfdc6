#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady its metrics are.

Run from the root of a checkout:

    python3 perfbench/steadiness.py                 # 10 runs per workload
    python3 perfbench/steadiness.py --runs 5 --workloads service_open

Each run uses another seed. For every end-to-end metric the script prints
the median and quartiles of the runs' values (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and that
spread as a share of the metric's bound in BENCHMARK.json. The target is a
spread below a third of the bound. Exits 1 when a run fails its output
checks or a spread other than setup_s's reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds)
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {args.first_seed + i}: output checks "
                      f"failed ({result['failed']}/{result['attempted']})")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}")
        for name, bound in bounds.items():
            median, q1, q3, rel = spread(values[name])
            share = rel / bound
            verdict = "ok" if share < 1 / 3 else (
                "wide" if share < 1 else "NOISY")
            if share >= 1 and name != "setup_s":
                ok = False
            print(f"  {name:<14}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{rel:>9.4f}{bound:>7.2f}{share:>8.2f}  {verdict}")
            print("      runs: " + " ".join(f"{v:.5g}" for v in values[name]))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
