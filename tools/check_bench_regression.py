#!/usr/bin/env python3
"""Gate engine-benchmark regressions against the committed baseline.

Usage:
  check_bench_regression.py BASELINE.json NEW_ENGINE.json [--tolerance 1.2]
  check_bench_regression.py --fig3-overhead BASELINE.json NEW_FIG3.json \\
      [--overhead-tolerance 1.02]
  check_bench_regression.py --fig3-obs-overhead NEW_FIG3.json \\
      [--overhead-tolerance 1.02]
  check_bench_regression.py --fig3-backends BASELINE.json NEW_FIG3.json \\
      [--auto-slack 1.2]
  check_bench_regression.py --service BASELINE_SERVICE.json NEW_SERVICE.json \\
      [--rel-single-floor 0.9] [--tolerance 1.2] [--latency-tolerance 2.0]
  check_bench_regression.py --sketch BASELINE_SKETCH.json NEW_SKETCH.json \\
      [--tolerance 1.2]
  check_bench_regression.py --durable BASELINE_DURABLE.json NEW_DURABLE.json \\
      [--overhead-limit 1.05] [--tolerance 1.2] [--latency-tolerance 2.0]
  check_bench_regression.py --merge ENGINE.json FIG3.json [-o BENCH_sort.json]

Check mode compares the machine-normalized kernel ratios (``rel_memcpy`` =
ns/element divided by the machine's large-memcpy ns/byte) of a fresh
bench_engine run against the baseline's ``engine`` section. Raw nanoseconds
vary with the CI runner; the ratio to streaming-copy speed is stable enough
to gate on. Exit 1 if any kernel's ratio exceeds baseline * tolerance.

Fig3-overhead mode gates the estimator hot path's disabled-observability
overhead: it compares per-row ``rel_memcpy`` (PBSN sort ns/key over memcpy
ns/byte) of a fresh bench_fig3_sorting run against the baseline's
``fig3_sorting`` rows, matched by n, and fails if the geometric mean of the
new/baseline ratios exceeds the overhead tolerance (default 1.02 — the
"observability hooks cost < 2% when disabled" budget from
docs/OBSERVABILITY.md). The geometric mean across rows, rather than a
per-row gate, absorbs single-size timing noise.

Fig3-obs-overhead mode gates the ENABLED-observability cost within a single
bench_fig3_sorting run (no baseline file needed): each row carries a paired
best-of-N PBSN measurement with telemetry fully on (labeled counters, the GK
latency summary, an armed flight recorder) as ``obs_rel_memcpy`` next to the
plain ``rel_memcpy``, and the gate fails if the geometric mean of
obs/plain across rows exceeds the overhead tolerance (default 1.02). The
within-run pairing cancels machine speed entirely — only the telemetry
delta remains.

Fig3-backends mode validates the per-backend rows bench_fig3_sorting emits
under each row's ``backends`` object: every backend name must be one the
planner knows (unknown rows fail the gate — a misspelled backend in the
bench would otherwise silently escape gating), every backend present in the
baseline must still be present in the new run, and at every n >= 1M the
cost-model planner ("auto") must run within --auto-slack (default 1.2) of
the fastest other backend row of the same run, on host ns/key — the
docs/SORT_BACKENDS.md performance contract for the planner. The contract
is within-run and names no backend as slow: it fails only when the
planner's pick runs more than the slack slower than another backend the
same run measured.

Service mode gates the multi-tenant StreamService numbers from
bench_service against the committed BENCH_service.json baseline. The primary
contract is machine-independent: ``rel_single`` (aggregate service ingest
over a dedicated single-stream pipeline at the same worker count, measured
within one run) must stay above --rel-single-floor (default 0.9 — the
docs/SERVICE.md throughput contract) at every stream count >= 1000, and no
row's ratio may fall below baseline / --tolerance. Registry memory
(``bytes_per_idle_stream``, machine-stable) is gated at baseline *
--tolerance, and the batch-query p99 call latency — a raw wall-clock number
that does vary with the runner — only loosely at baseline *
--latency-tolerance (default 2.0).

Sketch mode gates the quantile-sketch shootout rows bench_fig7_quantiles
emits under ``sketch`` against the committed BENCH_sketch.json baseline.
Both gated quantities are deterministic on any machine (the sketches are
seeded and integer-scheduled), so the gate is tight: every row's
``observed_rel_error`` must stay within its own ``stated_rel_error`` (the
honest-bound contract of docs/SKETCHES.md), and ``summary_bytes`` may not
exceed baseline * --tolerance. Raw ns/update is machine-dependent and
reported but not gated. Every (sketch, epsilon) row in the baseline must
still be present. Regenerate with
``STREAMGPU_BENCH_JSON=BENCH_sketch.json build/bench/bench_fig7_quantiles``.

Durable mode gates the bench_durable numbers from docs/DURABILITY.md
against the committed BENCH_durable.json baseline. The headline contract is
within-run and therefore machine-independent: every ingest row the bench
marks ``gated`` (the coarse production cadence) must keep its
checkpointed/plain ingest ratio — the median over the run's interleaved
plain/checkpointed pairs — at or under --overhead-limit (default 1.05 —
checkpointing may cost at most 5%). Snapshot bytes are deterministic for
the seeded stream and gated at baseline * --tolerance. Each restore row
carries ``restore_per_reference``: the median of the run's nine restores
of one snapshot over the median of a fixed-work reference timed between
them (reading the snapshot file with plain stdio and copying its bytes
once), so a slow stretch of the host that moves both cancels. That ratio
is gated loosely at the baseline's * --latency-tolerance (default 2.0),
with every baseline stream count required to stay present; raw seconds
are printed, not gated.

Merge mode rebuilds the committed repo-root baseline from fresh
bench_engine + bench_fig3_sorting JSON outputs.
"""

import argparse
import json
import math
import sys

DEFAULT_TOLERANCE = 1.2
DEFAULT_OVERHEAD_TOLERANCE = 1.02
DEFAULT_AUTO_SLACK = 1.2
DEFAULT_REL_SINGLE_FLOOR = 0.9
DEFAULT_LATENCY_TOLERANCE = 2.0
DEFAULT_OVERHEAD_LIMIT = 1.05
REL_SINGLE_FLOOR_STREAMS = 1000
AUTO_GATE_N = 1 << 20

# The closed set of backend names the planner can emit (must match
# hwmodel::SortBackendName plus the dispatcher's own "auto" row).
KNOWN_BACKENDS = {"pbsn", "bitonic", "cpu", "stdsort", "cpu-radix", "sample",
                  "auto"}

MERGE_COMMENT = (
    "Blessed benchmark baseline. Regenerate with: "
    "STREAMGPU_BENCH_JSON=e.json build/bench/bench_engine && "
    "STREAMGPU_BENCH_JSON=f.json build/bench/bench_fig3_sorting, "
    "then merge (tools/check_bench_regression.py --merge e.json f.json). "
    "CI gates on machine-normalized engine ratios (rel_memcpy), not raw ns."
)


def load(path):
    with open(path) as f:
        return json.load(f)


def merge(engine_path, fig3_path, out_path):
    engine = load(engine_path)
    fig3 = load(fig3_path)
    merged = {
        "schema": 1,
        "comment": MERGE_COMMENT,
        "engine": engine["engine"],
        "fig3_sorting": fig3["fig3_sorting"],
    }
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path}")
    return 0


def check(baseline_path, new_path, tolerance):
    baseline = load(baseline_path)["engine"]["kernels"]
    new = load(new_path)["engine"]["kernels"]

    failures = []
    print(f"{'kernel':<16} {'baseline':>10} {'new':>10} {'ratio':>7}  "
          f"(rel_memcpy, limit {tolerance:.2f}x)")
    for name, base in sorted(baseline.items()):
        if name not in new:
            failures.append(f"{name}: missing from new results")
            continue
        b = base["rel_memcpy"]
        n = new[name]["rel_memcpy"]
        ratio = n / b if b > 0 else float("inf")
        flag = " REGRESSED" if ratio > tolerance else ""
        print(f"{name:<16} {b:>10.2f} {n:>10.2f} {ratio:>6.2f}x{flag}")
        if ratio > tolerance:
            failures.append(f"{name}: {b:.2f} -> {n:.2f} ({ratio:.2f}x)")

    if failures:
        print("\nFAIL: engine benchmark regressed beyond "
              f"{tolerance:.2f}x the committed baseline:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf the change is intentional, regenerate the baseline "
              "(see the comment in BENCH_sort.json).", file=sys.stderr)
        return 1
    print("\nOK: all kernels within tolerance.")
    return 0


def row_rel_memcpy(row, section):
    """rel_memcpy for a fig3 row; derived for pre-rel_memcpy baselines."""
    if "rel_memcpy" in row:
        return row["rel_memcpy"]
    per_byte = section.get("memcpy_ns_per_byte")
    if per_byte:
        return row["pbsn_ns_per_key"] / per_byte
    return None


def check_fig3_overhead(baseline_path, new_path, tolerance):
    baseline_doc = load(baseline_path)
    baseline = baseline_doc["fig3_sorting"]
    new = load(new_path)["fig3_sorting"]
    # Old baselines carry no memcpy calibration of their own; fall back to
    # the engine section's, measured in the same blessed run.
    if "memcpy_ns_per_byte" not in baseline and "engine" in baseline_doc:
        baseline = dict(baseline,
                        memcpy_ns_per_byte=baseline_doc["engine"]
                        .get("memcpy_ns_per_byte"))

    new_rows = {row["n"]: row for row in new["rows"]}
    ratios = []
    failures = []
    print(f"{'n':>10} {'baseline':>10} {'new':>10} {'ratio':>7}  "
          f"(rel_memcpy = pbsn ns/key over memcpy ns/B)")
    for base_row in baseline["rows"]:
        n = base_row["n"]
        if n not in new_rows:
            failures.append(f"n={n}: missing from new results")
            continue
        b = row_rel_memcpy(base_row, baseline)
        if b is None:
            failures.append(f"n={n}: baseline has no rel_memcpy and no "
                            "memcpy calibration to derive it")
            continue
        r = row_rel_memcpy(new_rows[n], new)
        ratio = r / b if b > 0 else float("inf")
        ratios.append(ratio)
        print(f"{n:>10} {b:>10.2f} {r:>10.2f} {ratio:>6.3f}x")

    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        flag = " EXCEEDS BUDGET" if geomean > tolerance else ""
        print(f"\ngeometric mean: {geomean:.3f}x "
              f"(overhead budget {tolerance:.2f}x){flag}")
        if geomean > tolerance:
            failures.append(f"geomean rel_memcpy {geomean:.3f}x > "
                            f"{tolerance:.2f}x budget")

    if failures:
        print("\nFAIL: disabled-observability overhead gate "
              "(bench_fig3_sorting ns/key vs the committed baseline):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nThe estimator hot path must stay within the < 2% "
              "disabled-observability budget (docs/OBSERVABILITY.md). If the "
              "machine changed, regenerate the baseline (see the comment in "
              "BENCH_sort.json).", file=sys.stderr)
        return 1
    print("OK: hot-path overhead within budget.")
    return 0


def check_fig3_obs_overhead(new_path, tolerance):
    new = load(new_path)["fig3_sorting"]

    ratios = []
    failures = []
    print(f"{'n':>10} {'plain':>10} {'obs':>10} {'ratio':>7}  "
          f"(rel_memcpy, enabled-telemetry budget {tolerance:.2f}x)")
    for row in new["rows"]:
        n = row["n"]
        plain = row.get("rel_memcpy")
        obs = row.get("obs_rel_memcpy")
        if obs is None:
            failures.append(f"n={n}: row has no obs_rel_memcpy (bench too old?)")
            continue
        ratio = obs / plain if plain and plain > 0 else float("inf")
        ratios.append(ratio)
        print(f"{n:>10} {plain:>10.2f} {obs:>10.2f} {ratio:>6.3f}x")

    if not ratios and not failures:
        failures.append("no rows found in fig3_sorting")
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        flag = " EXCEEDS BUDGET" if geomean > tolerance else ""
        print(f"\ngeometric mean: {geomean:.3f}x "
              f"(overhead budget {tolerance:.2f}x){flag}")
        if geomean > tolerance:
            failures.append(f"geomean obs/plain rel_memcpy {geomean:.3f}x > "
                            f"{tolerance:.2f}x budget")

    if failures:
        print("\nFAIL: enabled-observability overhead gate (paired PBSN "
              "measurements within one bench_fig3_sorting run):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nLabeled metrics + the flight recorder must add < 2% to the "
              "sort hot path when enabled (docs/OBSERVABILITY.md).",
              file=sys.stderr)
        return 1
    print("OK: enabled-telemetry overhead within budget.")
    return 0


def check_fig3_backends(baseline_path, new_path, auto_slack):
    baseline = load(baseline_path)["fig3_sorting"]
    new = load(new_path)["fig3_sorting"]

    failures = []
    baseline_backends = set()
    for row in baseline.get("rows", []):
        baseline_backends.update(row.get("backends", {}))

    print(f"{'n':>10} {'backend':<10} {'ns/key':>10} {'auto/row':>9}  "
          f"(auto must be <= {auto_slack:.2f}x the fastest other row at "
          f"n >= {AUTO_GATE_N})")
    seen_backends = set()
    for row in new["rows"]:
        n = row["n"]
        backends = row.get("backends")
        if backends is None:
            failures.append(f"n={n}: row has no per-backend results")
            continue
        unknown = set(backends) - KNOWN_BACKENDS
        for name in sorted(unknown):
            failures.append(f"n={n}: unknown backend row '{name}' "
                            f"(known: {', '.join(sorted(KNOWN_BACKENDS))})")
        seen_backends.update(backends)
        auto = backends.get("auto", {}).get("ns_per_key")
        others = {}
        for name in sorted(backends):
            ns = backends[name].get("ns_per_key")
            if ns is None:
                failures.append(f"n={n}: backend '{name}' has no ns_per_key")
                continue
            if name != "auto":
                others[name] = ns
            ratio = auto / ns if auto and ns > 0 else float("nan")
            print(f"{n:>10} {name:<10} {ns:>10.1f} {ratio:>8.2f}x")
        if n >= AUTO_GATE_N:
            if auto is None or not others:
                failures.append(f"n={n}: auto and at least one other backend "
                                f"row required at n >= {AUTO_GATE_N}")
                continue
            fastest = min(others, key=others.get)
            if auto > auto_slack * others[fastest]:
                failures.append(
                    f"n={n}: auto ({auto:.1f} ns/key) is "
                    f"{auto / others[fastest]:.2f}x the fastest other row, "
                    f"{fastest} ({others[fastest]:.1f}); the gate allows "
                    f"<= {auto_slack:.2f}x")

    missing = baseline_backends - seen_backends
    for name in sorted(missing):
        failures.append(f"backend '{name}' present in the baseline is missing "
                        "from the new run")

    if failures:
        print("\nFAIL: per-backend fig3 gate:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf a backend was intentionally added/removed or the "
              "performance contract changed, update docs/SORT_BACKENDS.md "
              "and regenerate the baseline (see the comment in "
              "BENCH_sort.json).", file=sys.stderr)
        return 1
    print("\nOK: backend rows valid; the planner runs within its slack of "
          "the fastest backend.")
    return 0


def check_service(baseline_path, new_path, rel_floor, tolerance,
                  latency_tolerance):
    baseline = load(baseline_path)["service"]
    new = load(new_path)["service"]

    failures = []
    base_rows = {row["streams"]: row for row in baseline["streams"]}
    new_rows = {row["streams"]: row for row in new["streams"]}
    print(f"{'streams':>10} {'baseline':>9} {'new':>9}  "
          f"(rel_single; floor {rel_floor:.2f} at >= "
          f"{REL_SINGLE_FLOOR_STREAMS} streams, slack {tolerance:.2f}x)")
    for streams, base_row in sorted(base_rows.items()):
        if streams not in new_rows:
            failures.append(f"streams={streams}: missing from new results")
            continue
        b = base_row["rel_single"]
        r = new_rows[streams]["rel_single"]
        flags = []
        if streams >= REL_SINGLE_FLOOR_STREAMS and r < rel_floor:
            flags.append("BELOW FLOOR")
            failures.append(
                f"streams={streams}: rel_single {r:.2f} < the {rel_floor:.2f} "
                "aggregate-throughput floor (docs/SERVICE.md)")
        if r < b / tolerance:
            flags.append("REGRESSED")
            failures.append(f"streams={streams}: rel_single {b:.2f} -> "
                            f"{r:.2f} (> {tolerance:.2f}x below baseline)")
        print(f"{streams:>10} {b:>9.2f} {r:>9.2f}  {' '.join(flags)}")

    b_mem = baseline["bytes_per_idle_stream"]
    n_mem = new["bytes_per_idle_stream"]
    print(f"\nbytes/idle stream: baseline {b_mem:.0f}, new {n_mem:.0f} "
          f"(limit {b_mem * tolerance:.0f})")
    if n_mem > b_mem * tolerance:
        failures.append(f"bytes_per_idle_stream {b_mem:.0f} -> {n_mem:.0f} "
                        f"(> {tolerance:.2f}x baseline)")

    b_p99 = baseline["batch_p99_call_seconds"]
    n_p99 = new["batch_p99_call_seconds"]
    print(f"batch-query p99:   baseline {b_p99 * 1e3:.1f} ms, new "
          f"{n_p99 * 1e3:.1f} ms (limit {b_p99 * latency_tolerance * 1e3:.1f} ms)")
    if n_p99 > b_p99 * latency_tolerance:
        failures.append(f"batch_p99_call_seconds {b_p99:.4f} -> {n_p99:.4f} "
                        f"(> {latency_tolerance:.2f}x baseline)")

    if failures:
        print("\nFAIL: StreamService benchmark gate:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf the change is intentional, regenerate the baseline as "
              "BENCH_service.json's comment and docs/SERVICE.md (\"The CI "
              "contract\") describe: the per-field median of ten "
              "build/bench/bench_service runs, keeping the file's comment. "
              "One run's output is not a baseline.", file=sys.stderr)
        return 1
    print("\nOK: service throughput, registry memory, and query latency "
          "within tolerance.")
    return 0


def check_sketch(baseline_path, new_path, tolerance):
    baseline = load(baseline_path)["sketch"]
    new = load(new_path)["sketch"]

    def keyed(section):
        return {(row["sketch"], row["epsilon"]): row for row in section["rows"]}

    base_rows = keyed(baseline)
    new_rows = keyed(new)

    failures = []
    print(f"{'sketch':<8} {'epsilon':>8} {'bytes':>8} {'limit':>8} "
          f"{'observed':>10} {'stated':>10}  (bytes limit = baseline x "
          f"{tolerance:.2f})")
    for key, base_row in sorted(base_rows.items()):
        name, eps = key
        if key not in new_rows:
            failures.append(f"{name}@eps={eps}: missing from new results")
            continue
        row = new_rows[key]
        limit = base_row["summary_bytes"] * tolerance
        observed = row["observed_rel_error"]
        stated = row["stated_rel_error"]
        flags = []
        if row["summary_bytes"] > limit:
            flags.append("BYTES REGRESSED")
            failures.append(
                f"{name}@eps={eps}: summary_bytes "
                f"{base_row['summary_bytes']} -> {row['summary_bytes']} "
                f"(> {tolerance:.2f}x baseline)")
        if observed > stated:
            flags.append("BOUND VIOLATED")
            failures.append(
                f"{name}@eps={eps}: observed_rel_error {observed:.5f} exceeds "
                f"the stated bound {stated:.5f} — the honest-bound contract "
                "is broken, not just a perf regression")
        print(f"{name:<8} {eps:>8g} {row['summary_bytes']:>8} {limit:>8.0f} "
              f"{observed:>10.5f} {stated:>10.5f}  {' '.join(flags)}")

    if failures:
        print("\nFAIL: quantile-sketch shootout gate:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf a sketch's space/accuracy trade changed intentionally, "
              "regenerate the baseline: STREAMGPU_BENCH_JSON=BENCH_sketch.json "
              "build/bench/bench_fig7_quantiles.", file=sys.stderr)
        return 1
    print("\nOK: sketch summary sizes and honest error bounds hold.")
    return 0


def check_durable(baseline_path, new_path, overhead_limit, tolerance,
                  latency_tolerance):
    baseline = load(baseline_path)["durable"]
    new = load(new_path)["durable"]

    failures = []
    base_ingest = {row["cadence"]: row for row in baseline["ingest"]}
    print(f"{'cadence':<8} {'commits':>8} {'overhead':>9} {'snapshot B':>12} "
          f"{'limit B':>12}  (gated rows: overhead <= {overhead_limit:.2f}x)")
    for row in new["ingest"]:
        cadence = row["cadence"]
        flags = []
        gated = bool(row.get("gated"))
        if gated and row["overhead"] > overhead_limit:
            flags.append("OVERHEAD EXCEEDED")
            failures.append(
                f"cadence={cadence}: checkpointed/plain ingest ratio "
                f"{row['overhead']:.3f}x > the {overhead_limit:.2f}x budget "
                "(docs/DURABILITY.md) — the median of the run's paired "
                "plain/checkpointed ingests")
        base_row = base_ingest.get(cadence)
        limit_bytes = ""
        if base_row is not None:
            limit = base_row["snapshot_bytes"] * tolerance
            limit_bytes = f"{limit:>12.0f}"
            if row["snapshot_bytes"] > limit:
                flags.append("BYTES REGRESSED")
                failures.append(
                    f"cadence={cadence}: snapshot_bytes "
                    f"{base_row['snapshot_bytes']} -> {row['snapshot_bytes']} "
                    f"(> {tolerance:.2f}x baseline)")
        print(f"{cadence:<8} {row['commits']:>8} {row['overhead']:>8.3f}x "
              f"{row['snapshot_bytes']:>12} {limit_bytes:>12}  "
              f"{'<- gated ' if gated else ''}{' '.join(flags)}")
    for cadence in base_ingest:
        if cadence not in {row["cadence"] for row in new["ingest"]}:
            failures.append(f"cadence={cadence}: missing from new results")

    base_restore = {row["streams"]: row for row in baseline["restore"]}
    new_restore = {row["streams"]: row for row in new["restore"]}
    print(f"\n{'streams':>10} {'restore s':>10} {'reference s':>12} "
          f"{'baseline':>9} {'ratio':>8} {'limit':>8}  (restore / reference, "
          f"loose {latency_tolerance:.1f}x)")
    for streams, base_row in sorted(base_restore.items()):
        if streams not in new_restore:
            failures.append(f"streams={streams}: missing from new results")
            continue
        row = new_restore[streams]
        if "restore_per_reference" not in base_row:
            failures.append(f"streams={streams}: the baseline has no "
                            "restore_per_reference; re-bless it")
            continue
        base_ratio = base_row["restore_per_reference"]
        limit = base_ratio * latency_tolerance
        ratio = row["restore_per_reference"]
        flag = ""
        if ratio > limit:
            flag = "REGRESSED"
            failures.append(
                f"streams={streams}: restore/reference ratio "
                f"{base_ratio:.2f}x -> {ratio:.2f}x "
                f"(> {latency_tolerance:.1f}x baseline) — the median "
                "RestoreFrom over the median file read + copy of the same run")
        print(f"{streams:>10} {row['restore_seconds']:>10.4f} "
              f"{row['reference_seconds']:>12.4f} {base_ratio:>8.2f}x "
              f"{ratio:>7.2f}x {limit:>7.2f}x  {flag}")

    if failures:
        print("\nFAIL: durability benchmark gate:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf the cost changed intentionally, regenerate the baseline as "
              "BENCH_durable.json's comment and docs/DURABILITY.md (\"Cost\") "
              "describe: the per-field median of ten build/bench/bench_durable "
              "runs (Release build), keeping the file's comment.",
              file=sys.stderr)
        return 1
    print("\nOK: checkpoint overhead, snapshot size, and restore time "
          "within tolerance.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+",
                        help="baseline.json new.json (two-input modes), "
                             "engine.json fig3.json (merge mode), or a single "
                             "fig3.json (--fig3-obs-overhead)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="max allowed new/baseline rel_memcpy ratio "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--fig3-overhead", action="store_true",
                        help="gate bench_fig3_sorting rel_memcpy (disabled-"
                             "observability hot-path overhead) instead of "
                             "the engine kernels")
    parser.add_argument("--overhead-tolerance", type=float,
                        default=DEFAULT_OVERHEAD_TOLERANCE,
                        help="max allowed geomean fig3 rel_memcpy ratio "
                             f"(default {DEFAULT_OVERHEAD_TOLERANCE})")
    parser.add_argument("--fig3-obs-overhead", action="store_true",
                        help="gate the ENABLED-telemetry overhead from the "
                             "paired obs_rel_memcpy/rel_memcpy rows of one "
                             "fig3 run (single input file)")
    parser.add_argument("--fig3-backends", action="store_true",
                        help="validate per-backend fig3 rows (unknown "
                             "backends fail) and gate the auto planner "
                             "against the fastest other backend at large n")
    parser.add_argument("--auto-slack", type=float,
                        default=DEFAULT_AUTO_SLACK,
                        help="max auto ns/key over the fastest other "
                             "backend's at n >= 1M "
                             f"(default {DEFAULT_AUTO_SLACK})")
    parser.add_argument("--service", action="store_true",
                        help="gate bench_service results against the "
                             "committed BENCH_service.json baseline")
    parser.add_argument("--sketch", action="store_true",
                        help="gate the bench_fig7_quantiles sketch-shootout "
                             "rows against the committed BENCH_sketch.json "
                             "baseline")
    parser.add_argument("--durable", action="store_true",
                        help="gate bench_durable results (checkpoint ingest "
                             "overhead, snapshot size, restore time) against "
                             "the committed BENCH_durable.json baseline")
    parser.add_argument("--overhead-limit", type=float,
                        default=DEFAULT_OVERHEAD_LIMIT,
                        help="max checkpointed/plain ingest ratio for gated "
                             f"bench_durable rows (default {DEFAULT_OVERHEAD_LIMIT})")
    parser.add_argument("--rel-single-floor", type=float,
                        default=DEFAULT_REL_SINGLE_FLOOR,
                        help="min service/dedicated ingest ratio at >= "
                             f"{REL_SINGLE_FLOOR_STREAMS} streams "
                             f"(default {DEFAULT_REL_SINGLE_FLOOR})")
    parser.add_argument("--latency-tolerance", type=float,
                        default=DEFAULT_LATENCY_TOLERANCE,
                        help="max allowed new/baseline ratio of the "
                             "batch-query p99 (--service) or of "
                             "restore/reference (--durable) "
                             f"(default {DEFAULT_LATENCY_TOLERANCE})")
    parser.add_argument("--merge", action="store_true",
                        help="merge engine+fig3 JSON into a new baseline")
    parser.add_argument("-o", "--output", default="BENCH_sort.json",
                        help="merge-mode output path (default BENCH_sort.json)")
    args = parser.parse_args()

    if args.fig3_obs_overhead:
        if len(args.inputs) != 1:
            parser.error("--fig3-obs-overhead takes exactly one fig3.json")
        return check_fig3_obs_overhead(args.inputs[0],
                                       args.overhead_tolerance)
    if len(args.inputs) != 2:
        parser.error("this mode takes exactly two input files")
    if args.merge:
        return merge(args.inputs[0], args.inputs[1], args.output)
    if args.service:
        return check_service(args.inputs[0], args.inputs[1],
                             args.rel_single_floor, args.tolerance,
                             args.latency_tolerance)
    if args.sketch:
        return check_sketch(args.inputs[0], args.inputs[1], args.tolerance)
    if args.durable:
        return check_durable(args.inputs[0], args.inputs[1],
                             args.overhead_limit, args.tolerance,
                             args.latency_tolerance)
    if args.fig3_overhead:
        return check_fig3_overhead(args.inputs[0], args.inputs[1],
                                   args.overhead_tolerance)
    if args.fig3_backends:
        return check_fig3_backends(args.inputs[0], args.inputs[1],
                                   args.auto_slack)
    return check(args.inputs[0], args.inputs[1], args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
