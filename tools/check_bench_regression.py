#!/usr/bin/env python3
"""Check bench runs against their committed baselines.

Every gated bench writes one JSON shape (bench/bench_report.h, DESIGN.md §14):

  {"bench": name, "config": {knobs}, "rows": [{...}], "summary": {...},
   "compare": {"key": [fields], "metric": field, "better": "lower"|"higher",
               "informational": [row labels]},   # informational is optional
   "gates": [{"metric": name, "op": "<="|">=", "bound": number,
              "of": name}]}                      # of is optional

The checker knows no bench by name. For each --baseline/--candidate pair
(repeat both flags; they are zipped in order) it fails when:

  * the candidate's "compare" or "gates" differ from the baseline's, so a
    gate changes only by an edit to the bench source and its baseline
    together;
  * a gate does not hold in either file. Gates are evaluated on both files,
    so a stale committed baseline cannot mask a regression. A gate holds if
    `metric op bound`, or with "of", `metric op bound x of`. A name is a
    summary key, or "<row label>.<field>" for one row's value; a missing
    name fails the gate;
  * a baseline row is missing from the candidate, or its metric moved the
    wrong way by more than --threshold (a fraction of the baseline value).
    Rows match on the "key" fields, and a row's label is their values joined
    by "/". Drift on an informational row is printed and does not fail.

Usage:
  tools/check_bench_regression.py \\
      --baseline BENCH_<bench>.json --candidate <fresh run>.json \\
      [--baseline ... --candidate ...] --threshold 0.25

Stdlib only by design: CI runners and the dev container have no pip.
"""

import argparse
import json
import operator
import sys

OPS = {"<=": operator.le, ">=": operator.ge}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    missing = [k for k in ("bench", "rows", "summary", "compare", "gates") if k not in doc]
    if missing:
        sys.exit(f"error: {path} lacks {', '.join(missing)}")
    spec = doc["compare"]
    if spec.get("better") not in ("lower", "higher"):
        sys.exit(f"error: {path}: compare.better must be 'lower' or 'higher'")
    if not doc["rows"] or any(f not in r for r in doc["rows"]
                              for f in spec["key"] + [spec["metric"]]):
        sys.exit(f"error: {path}: every row needs the compare key and metric")
    if any(g.get("op") not in OPS for g in doc["gates"]):
        sys.exit(f"error: {path}: a gate's op is not one of {', '.join(OPS)}")
    return doc


def label(doc, row):
    return "/".join(str(row[k]) for k in doc["compare"]["key"])


def lookup(doc, name):
    """A summary value, or "<row label>.<field>" for one row's; None if absent."""
    if name in doc["summary"]:
        return doc["summary"][name]
    row_label, _, field = name.rpartition(".")
    for row in doc["rows"]:
        if label(doc, row) == row_label:
            return row.get(field)
    return None


def check_gates(doc, path):
    failures = []
    for gate in doc["gates"]:
        metric, op, bound, of = gate["metric"], gate["op"], gate["bound"], gate.get("of")
        value = lookup(doc, metric)
        scale = 1.0 if of is None else lookup(doc, of)
        if value is None or scale is None:
            absent = metric if value is None else of
            failures.append(f"{path}: gate on {metric}: {absent} missing")
            print(f"{path}: {metric}: {absent} missing  << GATE FAILS")
            continue
        desc = f"{metric} = {value:g}, gate {op} {bound:g}"
        if of is not None:
            desc += f" x {of} = {bound * scale:g}"
        if OPS[op](value, bound * scale):
            print(f"{path}: {desc}  ok")
        else:
            failures.append(f"{path}: {desc}")
            print(f"{path}: {desc}  << GATE FAILS")
    return failures


def compare_rows(base, cand, threshold):
    """Per-row drift of compare.metric, baseline rows against the candidate's."""
    spec = base["compare"]
    metric = spec["metric"]
    informational = set(spec.get("informational", []))
    cand_rows = {label(cand, r): float(r[metric]) for r in cand["rows"]}
    failures = []
    print(f"{metric:>44} {'baseline':>12} {'candidate':>12} {'ratio':>7}")
    for row in base["rows"]:
        name = label(base, row)
        b = float(row[metric])
        if name not in cand_rows:
            failures.append(f"{name}: row missing from candidate")
            print(f"{name:>44} {b:>12.3f} {'missing':>12} {'-':>7}")
            continue
        c = cand_rows[name]
        ratio = c / b if b > 0 else 1.0
        worse = ratio > 1.0 + threshold if spec["better"] == "lower" else ratio < 1.0 - threshold
        flag = ""
        if worse and name in informational:
            flag = "  (informational)"
        elif worse:
            failures.append(f"{name} {metric} at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        print(f"{name:>44} {b:>12.3f} {c:>12.3f} {ratio:>7.2f}{flag}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, action="append",
                    help="committed baseline JSON (repeatable)")
    ap.add_argument("--candidate", required=True, action="append",
                    help="freshly produced JSON (repeatable, zipped with --baseline)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed fractional change per row (default 0.25)")
    args = ap.parse_args()

    if len(args.baseline) != len(args.candidate):
        sys.exit("error: --baseline and --candidate must be given the same "
                 f"number of times ({len(args.baseline)} vs {len(args.candidate)})")

    failures = []
    for base_path, cand_path in zip(args.baseline, args.candidate):
        base = load(base_path)
        cand = load(cand_path)
        if cand["bench"] != base["bench"]:
            sys.exit(f"error: bench mismatch: {base_path} is '{base['bench']}', "
                     f"{cand_path} is '{cand['bench']}'")
        print(f"== {base['bench']}: {cand_path} vs {base_path}")
        for field in ("compare", "gates"):
            if cand[field] != base[field]:
                failures.append(f"{cand_path}: '{field}' differs from {base_path}'s; "
                                "change the bench source and its baseline together")
        failures += check_gates(base, base_path) + check_gates(cand, cand_path)
        if cand["compare"] == base["compare"]:
            failures += compare_rows(base, cand, args.threshold)
        print()

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"OK: no row regressed more than {args.threshold:.0%}; all gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
