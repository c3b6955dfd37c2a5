#!/usr/bin/env python3
"""Exit-code tests for check_bench_regression.py on tiny synthetic JSONs.

Each commit-path gate gets one candidate that must fail it, a candidate
missing a baseline row must fail, and a clean candidate must pass.

Usage: python3 tools/test_check_bench_regression.py

Stdlib only, like the checker.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")


def commit_path_doc():
    """Two fence schedules plus the no-logging reference, all gates held."""
    def row(engine, fences, clients, drains):
        return {"engine": engine, "fences": fences, "clients": clients,
                "drains_per_txn": drains}

    return {
        "bench": "commit_path",
        "results": [
            row("kamino-simple", "new", 8, 3.0),
            row("kamino-simple", "epoch", 8, 1.2),
            row("no-logging", "new", 8, 1.0),
        ],
        "summary": {
            "kamino_drains_per_txn_new_8c": 3.0,
            "kamino_update_p50_new_8c_us": 300.0,
            "kamino_drains_per_txn_epoch_8c": 1.2,
            "kamino_update_p50_epoch_8c_us": 110.0,
            "nolog_update_p50_8c_us": 100.0,
        },
    }


def set_drains(doc, fences, drains):
    doc["summary"][f"kamino_drains_per_txn_{fences}_8c"] = drains
    for r in doc["results"]:
        if r["engine"] == "kamino-simple" and r["fences"] == fences:
            r["drains_per_txn"] = drains


class CheckBenchRegressionTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def run_checker(self, baseline, candidate, threshold=0.25):
        paths = []
        for name, doc in (("baseline.json", baseline), ("candidate.json", candidate)):
            path = os.path.join(self.tmp.name, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, CHECKER, "--baseline", paths[0], "--candidate", paths[1],
             "--threshold", str(threshold)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def assert_fails(self, candidate, needle, baseline=None):
        code, out = self.run_checker(baseline or commit_path_doc(), candidate)
        self.assertEqual(code, 1, out)
        self.assertIn(needle, out)

    def test_clean_candidate_passes(self):
        code, out = self.run_checker(commit_path_doc(), commit_path_doc())
        self.assertEqual(code, 0, out)

    def test_new_drains_gate(self):
        base = commit_path_doc()
        cand = commit_path_doc()
        set_drains(cand, "new", 3.6)  # Within the 25% row drift, over 3.5.
        self.assert_fails(cand, "new drains/txn at 8 clients 3.600 > 3.5", base)

    def test_new_p50_gate(self):
        cand = commit_path_doc()
        cand["summary"]["kamino_update_p50_new_8c_us"] = 361.0
        self.assert_fails(cand, "new update p50 3.61x no-logging > 3.60x")

    def test_epoch_drains_gate(self):
        base = commit_path_doc()
        set_drains(base, "epoch", 1.5)
        cand = copy.deepcopy(base)
        set_drains(cand, "epoch", 1.55)  # Within the 25% row drift.
        self.assert_fails(cand, "epoch drains/txn at 8 clients 1.550 > 1.5", base)

    def test_epoch_p50_gate(self):
        cand = commit_path_doc()
        cand["summary"]["kamino_update_p50_epoch_8c_us"] = 151.0
        self.assert_fails(cand, "epoch update p50 1.51x no-logging > 1.50x")

    def test_missing_summary_metric_fails(self):
        cand = commit_path_doc()
        del cand["summary"]["nolog_update_p50_8c_us"]
        self.assert_fails(cand, "missing new summary metrics")

    def test_gates_apply_to_the_baseline_too(self):
        base = commit_path_doc()
        base["summary"]["kamino_update_p50_epoch_8c_us"] = 200.0
        self.assert_fails(commit_path_doc(), "epoch update p50 2.00x", base)

    def test_row_drift_fails(self):
        cand = commit_path_doc()
        cand["results"][2]["drains_per_txn"] = 1.3  # no-logging row, no gate.
        self.assert_fails(cand, "no-logging/new/8 drains_per_txn at 1.30x baseline")

    def test_missing_row_fails(self):
        cand = commit_path_doc()
        del cand["results"][2]
        self.assert_fails(cand, "no-logging/new/8: row missing from candidate")

    def test_missing_sweep_point_fails(self):
        def doc(threads):
            return {"bench": "applier_scaling",
                    "results": [{"applier_threads": t,
                                 "commit_to_applied_ops_per_sec": 1000.0}
                                for t in threads]}

        code, out = self.run_checker(doc([1, 2]), doc([1]))
        self.assertEqual(code, 1, out)
        self.assertIn("2 appliers: row missing from candidate", out)


if __name__ == "__main__":
    unittest.main()
