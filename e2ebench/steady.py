#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 e2ebench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run from the repository root. Runs every workload (or the listed ones)
--runs times through run.py, each time with another seed, and prints for
each end-to-end metric its median, first and third quartile
(statistics.quantiles(values, n=4)) and the quartile spread (Q3 - Q1) as a
share of the median. A metric whose spread exceeds its bound in
BENCHMARK.json is flagged, except setup_s, whose spread is informational
(its bound applies to the median between two sets of runs). Exits non-zero
when a metric is flagged or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None, elapsed
    return result, elapsed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':<20} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            result, elapsed = run_once(workload, args.first_seed + i, args.seconds)
            walls.append(elapsed)
            if result is None:
                print(f"{workload}: run with seed {args.first_seed + i} failed")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if spread > bounds[name]:
                flag = "  (info)" if name == "setup_s" else "  <- exceeds bound"
                ok = ok and name == "setup_s"
            print(f"{workload:<20} {name:<16} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bounds[name]:>6}{flag}")
        print(f"{workload:<20} run wall s: median {statistics.median(walls):.1f}, "
              f"max {max(walls):.1f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
