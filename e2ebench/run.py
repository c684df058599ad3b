#!/usr/bin/env python3
"""Builds and runs the streamgpu end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
e2ebench CMake package (the streamgpu libraries from src/ plus the
e2e_bench program) into .bench_build/e2ebench; later calls rebuild
incrementally. Build output goes to stderr; stdout carries the benchmark's
report, whose last line is one JSON object (correct, attempted, failed,
metrics). The exit code is non-zero when the build fails, the run times
out, or any operation failed. README.md describes workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("quantile-long", "frequency-flows", "service-checkpoint")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def call(cmd, env, timeout, stdout):
    """Runs cmd to completion; False on a non-zero exit or a timeout."""
    try:
        return subprocess.run(cmd, env=env, timeout=timeout, stdout=stdout,
                              check=False).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"error: timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return False


def build(env):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "e2e_bench"]
    return (call(configure, env, BUILD_TIMEOUT_S, sys.stderr) and
            call(compile_, env, BUILD_TIMEOUT_S, sys.stderr))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tmp = os.path.join(BENCH_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(env):
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    trace_out = os.path.join(BENCH_DIR, "traces",
                             f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(BENCH_DIR, "scratch"), "--trace-out", trace_out]
    sys.stdout.flush()
    if not call(cmd, env, RUN_TIMEOUT_S, None):
        return 1
    if args.trace:
        print(f"# trace -> {os.path.relpath(trace_out, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
