#!/usr/bin/env python3
"""Kill-matrix recovery harness for the durability subsystem.

Drives build/tools/streamgpu_cli through a matrix of crash cells and checks
the headline durability claim end to end: a run that is killed mid-stream
(including *inside* a checkpoint commit), restarted with `restore`, and run
to completion must produce a report that is byte-identical to an
uninterrupted run with the same flags.

Each cell is:

  1. reference run        -> ref report (no kill, same flags)
  2. probe run            -> counts checkpoint commits so deterministic
                             crash ordinals land mid-stream
  3. kill run             -> STREAMGPU_DURABLE_CRASH_AT=<point>:<ordinal>
                             (exits 42) or a timing-randomized SIGKILL
  4. restore run          -> `streamgpu_cli restore <mode> ...` must exit 0
  5. byte-diff            -> restored report == reference report

Crash points (see src/durable/checkpoint.cc) cover every step of the
torn-write protocol: snapshot-partial (half-written .tmp), pre-rename
(complete .tmp, no rename), pre-manifest (renamed snapshot, no manifest
entry), manifest-partial (half-appended manifest record). The `double`
cell additionally crashes the *restore* run inside its own first commit,
then restores a second time -- exercising the manifest self-healing path.

Exit code 42 is the CLI's deliberate crash-injection exit; anything else
from a kill run (other than the SIGKILL we sent) fails the cell.

Usage:
  python3 tools/crash_harness.py --cli build/tools/streamgpu_cli
  python3 tools/crash_harness.py --cli ... --workers 4 --plans bitflip
  python3 tools/crash_harness.py --cli ... --modes serve --list
"""

import argparse
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

CRASH_POINTS = ["snapshot-partial", "pre-rename", "pre-manifest", "manifest-partial"]

MODE_FLAGS = {
    "quantiles": [
        "--n", "150000", "--epsilon", "0.005", "--seed", "11",
    ],
    "frequencies": [
        "--n", "150000", "--epsilon", "0.005", "--seed", "13",
        "--support", "0.01",
    ],
    "serve": [
        "--streams", "40", "--tenants", "5", "--n", "4000",
        "--epsilon", "0.01", "--seed", "17", "--shard-batch", "2000",
    ],
}

# Checkpoint cadence (windows between commits) for the checkpointed runs;
# the uninterrupted reference runs without checkpointing at all, so the
# byte-diff also proves checkpointing does not perturb the answers.
MODE_CADENCE = {"quantiles": "8", "frequencies": "8", "serve": "40"}

# Fault injection lives on the estimator ingest path (GPU pass simulation),
# so fault-plan cells run the estimator modes only.  With CPU fallback on
# (the default) a corrupted pass is recomputed exactly, so the report must
# stay byte-identical to the fault-free reference of the *same* plan.
BITFLIP_FLAGS = ["--sort-backend", "pbsn", "--fault-plan", "pass:bitflip:every=5",
                 "--fault-seed", "7"]

RUN_TIMEOUT_S = 300


def log(msg):
    print(msg, flush=True)


def run_cli(cmd, env_extra=None, timeout=RUN_TIMEOUT_S):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=timeout, text=True)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class Cell:
    def __init__(self, mode, workers, plan, point):
        self.mode = mode
        self.workers = workers
        self.plan = plan
        self.point = point  # crash point name, "sigkill", or "double"

    @property
    def name(self):
        return f"{self.mode}-w{self.workers}-{self.plan}-{self.point}"

    def base_flags(self):
        flags = list(MODE_FLAGS[self.mode]) + ["--workers", str(self.workers)]
        if self.plan == "bitflip":
            flags += BITFLIP_FLAGS
        return flags

    def checkpoint_flags(self, ckpt_dir):
        return ["--checkpoint-dir", ckpt_dir,
                "--checkpoint-every-windows", MODE_CADENCE[self.mode]]


class Harness:
    def __init__(self, cli, workdir, rng):
        self.cli = cli
        self.workdir = workdir
        self.rng = rng
        self.ref_cache = {}    # (mode, workers, plan) -> report bytes
        self.commit_cache = {}  # (mode, workers, plan) -> probe commit count

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def reference(self, cell):
        key = (cell.mode, cell.workers, cell.plan)
        if key in self.ref_cache:
            return self.ref_cache[key]
        report = self.path(f"ref-{cell.mode}-w{cell.workers}-{cell.plan}.txt")
        cmd = [self.cli, cell.mode] + cell.base_flags() + ["--report-out", report]
        proc = run_cli(cmd)
        if proc.returncode != 0:
            raise RuntimeError(
                f"reference run failed ({proc.returncode}):\n{proc.stderr}")
        self.ref_cache[key] = read_bytes(report)
        return self.ref_cache[key]

    def commit_count(self, cell):
        """Full checkpointed run; parse '# checkpoints: N -> dir' from stderr."""
        key = (cell.mode, cell.workers, cell.plan)
        if key in self.commit_cache:
            return self.commit_cache[key]
        ckpt = self.path(f"probe-{cell.name}")
        cmd = [self.cli, cell.mode] + cell.base_flags() + cell.checkpoint_flags(ckpt)
        proc = run_cli(cmd)
        if proc.returncode != 0:
            raise RuntimeError(f"probe run failed ({proc.returncode}):\n{proc.stderr}")
        count = None
        for line in proc.stderr.splitlines():
            if line.startswith("# checkpoints:"):
                count = int(line.split(":")[1].split("->")[0].strip())
        shutil.rmtree(ckpt, ignore_errors=True)
        if not count:
            raise RuntimeError(
                f"probe run for {cell.name} wrote no checkpoints -- "
                f"cadence misconfigured?\n{proc.stderr}")
        self.commit_cache[key] = count
        return count

    def kill_run(self, cell, ckpt_dir):
        """Start the run and kill it; returns a human-readable outcome."""
        cmd = [self.cli, cell.mode] + cell.base_flags() + cell.checkpoint_flags(ckpt_dir)
        if cell.point == "sigkill":
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            time.sleep(self.rng.uniform(0.05, 0.45))
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=RUN_TIMEOUT_S)
            if proc.returncode == -signal.SIGKILL:
                return "SIGKILLed mid-run"
            if proc.returncode == 0:
                return "completed before kill (restore must still match)"
            raise RuntimeError(f"kill run exited {proc.returncode} before SIGKILL")
        ordinal = self.commit_count(cell) // 2
        env = {"STREAMGPU_DURABLE_CRASH_AT": f"{cell.point}:{ordinal}"}
        proc = run_cli(cmd, env_extra=env)
        if proc.returncode != 42:
            raise RuntimeError(
                f"expected deliberate crash exit 42 at {cell.point}:{ordinal}, "
                f"got {proc.returncode}:\n{proc.stderr}")
        return f"crashed at {cell.point}:{ordinal} (exit 42)"

    def restore_run(self, cell, ckpt_dir, report, crash_env=None):
        cmd = ([self.cli, "restore", cell.mode] + cell.base_flags() +
               cell.checkpoint_flags(ckpt_dir) + ["--report-out", report])
        proc = run_cli(cmd, env_extra=crash_env)
        return proc

    def run_cell(self, cell):
        ref = self.reference(cell)
        ckpt = self.path(f"ckpt-{cell.name}")
        shutil.rmtree(ckpt, ignore_errors=True)
        report = self.path(f"out-{cell.name}.txt")

        if cell.point == "double":
            # Crash inside the first run, crash the restore inside its own
            # first commit, then restore again: the second restore must heal
            # the manifest tail and still reproduce the reference bit-for-bit.
            outcome = []
            env = {"STREAMGPU_DURABLE_CRASH_AT":
                   f"manifest-partial:{self.commit_count(cell) // 2}"}
            cmd = ([self.cli, cell.mode] + cell.base_flags() +
                   cell.checkpoint_flags(ckpt))
            proc = run_cli(cmd, env_extra=env)
            if proc.returncode != 42:
                raise RuntimeError(
                    f"first crash: expected 42, got {proc.returncode}:\n{proc.stderr}")
            outcome.append("crash#1 manifest-partial")
            proc = self.restore_run(cell, ckpt, report,
                                    crash_env={"STREAMGPU_DURABLE_CRASH_AT":
                                               "pre-rename:0"})
            if proc.returncode != 42:
                raise RuntimeError(
                    f"second crash: expected 42, got {proc.returncode}:\n{proc.stderr}")
            outcome.append("crash#2 pre-rename during restore")
            outcome_str = " -> ".join(outcome)
        else:
            outcome_str = self.kill_run(cell, ckpt)

        proc = self.restore_run(cell, ckpt, report)
        if proc.returncode != 0:
            raise RuntimeError(
                f"restore exited {proc.returncode}:\n{proc.stderr}")
        restored = read_bytes(report)
        if restored != ref:
            raise RuntimeError(
                "restored report differs from uninterrupted reference\n"
                f"--- reference ---\n{ref.decode(errors='replace')}\n"
                f"--- restored ---\n{restored.decode(errors='replace')}")
        shutil.rmtree(ckpt, ignore_errors=True)
        os.remove(report)
        return outcome_str


def build_cells(modes, workers_list, plans):
    cells = []
    for mode in modes:
        for workers in workers_list:
            for plan in plans:
                if plan == "bitflip" and mode == "serve":
                    continue  # no fault injection on the service path
                points = list(CRASH_POINTS) + ["sigkill"]
                for point in points:
                    cells.append(Cell(mode, workers, plan, point))
                if mode == "quantiles" and plan == "none":
                    cells.append(Cell(mode, workers, plan, "double"))
    return cells


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cli", required=True, help="path to streamgpu_cli binary")
    ap.add_argument("--modes", default="quantiles,frequencies,serve",
                    help="comma list of CLI modes to exercise")
    ap.add_argument("--workers", default="1,4",
                    help="comma list of worker counts (matrix axis)")
    ap.add_argument("--plans", default="none,bitflip",
                    help="comma list of fault plans: none, bitflip")
    ap.add_argument("--seed", type=int, default=20260809,
                    help="RNG seed for the timing-randomized SIGKILL cells")
    ap.add_argument("--workdir", default=None,
                    help="scratch dir (default: fresh temp dir, removed on pass)")
    ap.add_argument("--list", action="store_true",
                    help="print the cell matrix and exit")
    args = ap.parse_args()

    cells = build_cells([m.strip() for m in args.modes.split(",") if m.strip()],
                        [int(w) for w in args.workers.split(",")],
                        [p.strip() for p in args.plans.split(",") if p.strip()])
    if args.list:
        for cell in cells:
            log(cell.name)
        return 0

    cli = os.path.abspath(args.cli)
    if not os.access(cli, os.X_OK):
        log(f"error: {cli} is not an executable")
        return 2

    own_workdir = args.workdir is None
    workdir = args.workdir or tempfile.mkdtemp(prefix="crash-harness-")
    os.makedirs(workdir, exist_ok=True)
    harness = Harness(cli, workdir, random.Random(args.seed))

    failures = 0
    t0 = time.time()
    for i, cell in enumerate(cells, 1):
        try:
            outcome = harness.run_cell(cell)
            log(f"[{i:3d}/{len(cells)}] PASS {cell.name}: {outcome}; "
                "restored report bit-identical")
        except Exception as err:  # noqa: BLE001 -- report and keep going
            failures += 1
            log(f"[{i:3d}/{len(cells)}] FAIL {cell.name}: {err}")
    log(f"kill matrix: {len(cells) - failures}/{len(cells)} cells passed "
        f"in {time.time() - t0:.1f}s")
    if failures == 0 and own_workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    elif failures:
        log(f"artifacts kept in {workdir}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
