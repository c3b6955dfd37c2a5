#!/usr/bin/env python3
"""Exit-code tests for check_bench_regression.py on tiny synthetic JSONs.

Each commit-path gate gets one candidate that must fail it, a candidate
missing a baseline row must fail, and a clean candidate must pass. Further
cases cover what the generic checker must handle: a ">=" gate, an "of"
gate, an informational row, a gate name that is missing, and a candidate
whose declared compare or gates differ from the baseline's.

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


def doc(bench, key, metric, better, rows, summary=None, gates=(), informational=()):
    compare = {"key": key, "metric": metric, "better": better}
    if informational:
        compare["informational"] = list(informational)
    return {"bench": bench, "config": {}, "rows": rows, "summary": summary or {},
            "compare": compare, "gates": list(gates)}


def commit_path_doc():
    """Two fence schedules plus the no-logging reference, all gates held."""
    def row(engine, fences, clients, drains):
        return {"engine": engine, "fences": fences, "clients": clients,
                "drains_per_txn": drains}

    return doc(
        "commit_path", ["engine", "fences", "clients"], "drains_per_txn", "lower",
        rows=[
            row("kamino-simple", "new", 8, 3.0),
            row("kamino-simple", "epoch", 8, 1.2),
            row("no-logging", "new", 8, 1.0),
        ],
        summary={
            "kamino_drains_per_txn_new_8c": 3.0,
            "kamino_update_p50_new_8c_us": 300.0,
            "kamino_drains_per_txn_epoch_8c": 1.2,
            "kamino_update_p50_epoch_8c_us": 110.0,
            "nolog_update_p50_8c_us": 100.0,
        },
        gates=[
            {"metric": "kamino_drains_per_txn_new_8c", "op": "<=", "bound": 3.5},
            {"metric": "kamino_update_p50_new_8c_us", "op": "<=", "bound": 3.6,
             "of": "nolog_update_p50_8c_us"},
            {"metric": "kamino_drains_per_txn_epoch_8c", "op": "<=", "bound": 1.5},
            {"metric": "kamino_update_p50_epoch_8c_us", "op": "<=", "bound": 1.5,
             "of": "nolog_update_p50_8c_us"},
        ])


def set_drains(d, fences, drains):
    d["summary"][f"kamino_drains_per_txn_{fences}_8c"] = drains
    for r in d["rows"]:
        if r["engine"] == "kamino-simple" and r["fences"] == fences:
            r["drains_per_txn"] = drains


def backup_reads_doc(backup_inflation=1.1, main_inflation=1.6, main_p50=16.0):
    """Scan-interference phases; the main_scan row is informational."""
    def row(phase, p50, inflation):
        return {"phase": phase, "update_p50_us": p50, "p50_inflation": inflation}

    return doc(
        "backup_reads", ["phase"], "update_p50_us", "lower",
        rows=[row("baseline", 10.0, 1.0), row("main_scan", main_p50, main_inflation),
              row("backup_scan", 11.0, backup_inflation)],
        gates=[{"metric": "backup_scan.p50_inflation", "op": "<=", "bound": 1,
                "of": "main_scan.p50_inflation"}],
        informational=["main_scan"])


class CheckBenchRegressionTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def run_checker(self, baseline, candidate, threshold=0.25):
        paths = []
        for name, d in (("baseline.json", baseline), ("candidate.json", candidate)):
            path = os.path.join(self.tmp.name, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(d, f)
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
        self.assert_fails(cand, "kamino_drains_per_txn_new_8c = 3.6, gate <= 3.5", base)

    def test_new_p50_gate(self):
        cand = commit_path_doc()
        cand["summary"]["kamino_update_p50_new_8c_us"] = 361.0
        self.assert_fails(cand, "kamino_update_p50_new_8c_us = 361, gate <= 3.6 x "
                                "nolog_update_p50_8c_us = 360")

    def test_epoch_drains_gate(self):
        base = commit_path_doc()
        set_drains(base, "epoch", 1.5)
        cand = copy.deepcopy(base)
        set_drains(cand, "epoch", 1.55)  # Within the 25% row drift.
        self.assert_fails(cand, "kamino_drains_per_txn_epoch_8c = 1.55, gate <= 1.5", base)

    def test_epoch_p50_gate(self):
        cand = commit_path_doc()
        cand["summary"]["kamino_update_p50_epoch_8c_us"] = 151.0
        self.assert_fails(cand, "kamino_update_p50_epoch_8c_us = 151, gate <= 1.5 x "
                                "nolog_update_p50_8c_us = 150")

    def test_missing_summary_metric_fails(self):
        cand = commit_path_doc()
        del cand["summary"]["nolog_update_p50_8c_us"]
        self.assert_fails(cand, "gate on kamino_update_p50_new_8c_us: "
                                "nolog_update_p50_8c_us missing")

    def test_gates_apply_to_the_baseline_too(self):
        base = commit_path_doc()
        base["summary"]["kamino_update_p50_epoch_8c_us"] = 200.0
        self.assert_fails(commit_path_doc(), "baseline.json: kamino_update_p50_epoch_8c_us = 200",
                          base)

    def test_row_drift_fails(self):
        cand = commit_path_doc()
        cand["rows"][2]["drains_per_txn"] = 1.3  # no-logging row, no gate.
        self.assert_fails(cand, "no-logging/new/8 drains_per_txn at 1.30x baseline")

    def test_missing_row_fails(self):
        cand = commit_path_doc()
        del cand["rows"][2]
        self.assert_fails(cand, "no-logging/new/8: row missing from candidate")

    def test_missing_sweep_point_fails(self):
        def applier_doc(threads):
            return doc("applier_scaling", ["applier_threads"],
                       "commit_to_applied_ops_per_sec", "higher",
                       rows=[{"applier_threads": t, "commit_to_applied_ops_per_sec": 1000.0}
                             for t in threads])

        code, out = self.run_checker(applier_doc([1, 2]), applier_doc([1]))
        self.assertEqual(code, 1, out)
        self.assertIn("2: row missing from candidate", out)

    def test_at_least_gate(self):
        def recovery_doc(offline_spread):
            return doc("recovery", ["sweep"], "restart_to_full_ms", "lower",
                       rows=[{"sweep": "heap", "restart_to_full_ms": 100.0}],
                       summary={"offline_first_op_spread": offline_spread},
                       gates=[{"metric": "offline_first_op_spread", "op": ">=", "bound": 1.5}])

        code, out = self.run_checker(recovery_doc(4.8), recovery_doc(1.5))
        self.assertEqual(code, 0, out)
        self.assert_fails(recovery_doc(1.4), "offline_first_op_spread = 1.4, gate >= 1.5",
                          recovery_doc(4.8))

    def test_relative_gate(self):
        code, out = self.run_checker(backup_reads_doc(), backup_reads_doc(1.6, 1.6))
        self.assertEqual(code, 0, out)
        self.assert_fails(backup_reads_doc(1.25, 1.2),
                          "backup_scan.p50_inflation = 1.25, gate <= 1 x "
                          "main_scan.p50_inflation = 1.2", backup_reads_doc())

    def test_informational_row_drift_is_printed_not_failed(self):
        code, out = self.run_checker(backup_reads_doc(), backup_reads_doc(main_p50=40.0))
        self.assertEqual(code, 0, out)
        self.assertIn("2.50  (informational)", out)

    def test_missing_gate_metric_fails(self):
        cand = commit_path_doc()
        del cand["summary"]["kamino_drains_per_txn_new_8c"]
        self.assert_fails(cand, "gate on kamino_drains_per_txn_new_8c: "
                                "kamino_drains_per_txn_new_8c missing")
        cand = backup_reads_doc()
        del cand["rows"][1]["p50_inflation"]  # The "of" side, addressed by row.
        self.assert_fails(cand, "gate on backup_scan.p50_inflation: "
                                "main_scan.p50_inflation missing", backup_reads_doc())

    def test_changed_declarations_fail(self):
        cand = commit_path_doc()
        cand["gates"][0]["bound"] = 4.0
        self.assert_fails(cand, "'gates' differs from")
        cand = commit_path_doc()
        cand["compare"]["better"] = "higher"
        self.assert_fails(cand, "'compare' differs from")


if __name__ == "__main__":
    unittest.main()
