#!/usr/bin/env python3
"""Tests check_bench_regression.py --fig3-backends and --durable on fixture runs.

    python3 tools/check_bench_regression_test.py

The --fig3-backends gate holds the cost-model planner ("auto") within 1.2x
of the fastest other backend row at every n >= 1M, rejects backend names
the planner does not know, and requires every baseline backend in the new
run. The --durable gate holds each restore row's restore/reference ratio
within 2x of the blessed one.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")

# A baseline with the four backend rows bench_fig3_sorting emits.
BASELINE_BACKENDS = {"pbsn": 273.2, "sample": 34.4, "cpu-radix": 36.9,
                     "auto": 29.6}


def fig3(rows):
    """A bench_fig3_sorting document: {n: {backend: ns_per_key}}."""
    return {"fig3_sorting": {"rows": [
        {"n": n, "backends": {name: {"ns_per_key": ns}
                              for name, ns in backends.items()}}
        for n, backends in rows.items()]}}


def run_gate(mode, baseline, new):
    """Runs the gate in `mode` on two documents; returns the finished process."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("baseline.json", baseline), ("new.json", new)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        return subprocess.run([sys.executable, SCRIPT, mode, *paths],
                              capture_output=True, text=True, check=False)


class Fig3BackendsGateTest(unittest.TestCase):

    def run_gate(self, new_rows):
        return run_gate("--fig3-backends", fig3({1 << 20: BASELINE_BACKENDS}),
                        fig3(new_rows))

    def test_planner_within_slack_of_a_fast_pbsn_passes(self):
        # PBSN nearly as fast as the host backends at 1M keys: the planner
        # still runs within its slack of the fastest row.
        result = self.run_gate({
            1 << 18: {"pbsn": 24.9, "sample": 25.0, "cpu-radix": 18.5, "auto": 11.9},
            1 << 20: {"pbsn": 42.0, "sample": 35.0, "cpu-radix": 34.5, "auto": 34.0},
        })
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_planner_far_slower_than_the_fastest_row_fails(self):
        # 5.9x: the ratio of PBSN to the planner at 1M keys before PBSN ran
        # as a compare-exchange network.
        result = self.run_gate({
            1 << 20: {"pbsn": 176.7, "sample": 34.8, "cpu-radix": 29.8,
                      "auto": 5.9 * 29.8},
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("the fastest other row, cpu-radix", result.stderr)

    def test_unknown_backend_fails(self):
        result = self.run_gate({
            1 << 20: {**BASELINE_BACKENDS, "gpu-quicksort": 20.0},
        })
        self.assertEqual(result.returncode, 1)
        self.assertIn("unknown backend row 'gpu-quicksort'", result.stderr)

    def test_missing_baseline_backend_fails(self):
        rows = dict(BASELINE_BACKENDS)
        del rows["sample"]
        result = self.run_gate({1 << 20: rows})
        self.assertEqual(result.returncode, 1)
        self.assertIn("backend 'sample' present in the baseline is missing",
                      result.stderr)


# Blessed restore/reference ratios per stream count.
BASELINE_RESTORE_RATIOS = {1000: 9.5, 10000: 11.0, 100000: 10.2}


def durable(restore_ratios):
    """A bench_durable document: the gated coarse row within its budget and
    one restore row per {streams: restore/reference ratio}."""
    return {"durable": {
        "ingest": [{"cadence": "coarse", "commits": 1, "overhead": 1.0,
                    "snapshot_bytes": 4200574, "gated": 1}],
        "restore": [{"streams": streams, "restore_seconds": ratio * 0.001,
                     "reference_seconds": 0.001,
                     "restore_per_reference": ratio}
                    for streams, ratio in restore_ratios.items()]}}


class DurableRestoreGateTest(unittest.TestCase):

    def run_gate(self, restore_ratios):
        return run_gate("--durable", durable(BASELINE_RESTORE_RATIOS),
                        durable(restore_ratios))

    def test_blessed_ratios_pass(self):
        result = self.run_gate(BASELINE_RESTORE_RATIOS)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_a_ratio_past_twice_the_blessed_one_fails(self):
        ratios = dict(BASELINE_RESTORE_RATIOS)
        ratios[10000] *= 2.1
        result = self.run_gate(ratios)
        self.assertEqual(result.returncode, 1)
        self.assertIn("streams=10000: restore/reference ratio", result.stderr)


if __name__ == "__main__":
    unittest.main()
