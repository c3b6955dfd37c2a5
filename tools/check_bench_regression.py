#!/usr/bin/env python3
"""Compare bench runs against their committed baselines.

Accepts one or more --baseline/--candidate pairs (repeat both flags; they are
zipped in order) and dispatches on each JSON's top-level "bench" field:

  applier_scaling:  sweep points matched by applier_threads; a point fails if
      commit_to_applied_ops_per_sec dropped by more than --threshold
      (fraction) relative to the baseline. Faster is never an error.

  commit_path:      rows matched by (engine, fences, clients); a row fails if
      drains_per_txn *rose* by more than --threshold (fewer fences is the
      point of the bench). Additionally, both files' summaries must uphold
      absolute drains/txn and update-p50 gates for each fence schedule
      (see check_commit_path).

recovery, sharding and backup_reads follow the same shape: per-row drift
past --threshold plus absolute gates on both files. In every checker a
baseline row missing from the candidate is a failure.

The applier and commit-path benches are latency-injection bound (the
injected drains *sleep*), so the metrics are mostly machine-independent and
a quick-mode run (fewer keys/ops) is comparable against the full baseline;
the threshold absorbs the residual noise.

Usage:
  tools/check_bench_regression.py \
      --baseline BENCH_applier_scaling.json \
      --candidate build/bench/BENCH_applier_scaling.json \
      --baseline BENCH_commit_path.json \
      --candidate build/bench/BENCH_commit_path.json \
      --threshold 0.25

Stdlib only by design: CI runners and the dev container have no pip.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def compare_rows(baseline, candidate, threshold, key, metric, label,
                 higher_is_worse):
    """Matches the two files' "results" rows by key(row) and prints a table
    of `metric`. A row fails if the metric moved the wrong way by more than
    threshold (fraction of the baseline), or if the candidate lacks it."""

    def rows(doc, path):
        out = {key(r): float(r[metric]) for r in doc.get("results", [])}
        if not out:
            sys.exit(f"error: {path} has no rows under 'results'")
        return out

    base = rows(*baseline)
    cand = rows(*candidate)
    failures = []
    print(f"{metric:>44} {'baseline':>12} {'candidate':>12} {'ratio':>7}")
    for k in sorted(base):
        name = label(k)
        if k not in cand:
            failures.append(f"{name}: row missing from candidate")
            print(f"{name:>44} {base[k]:>12.3f} {'missing':>12} {'-':>7}")
            continue
        ratio = cand[k] / base[k] if base[k] > 0 else 1.0
        flag = ""
        if (ratio > 1.0 + threshold) if higher_is_worse else (ratio < 1.0 - threshold):
            failures.append(f"{name} {metric} at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        print(f"{name:>44} {base[k]:>12.3f} {cand[k]:>12.3f} {ratio:>7.2f}{flag}")
    return failures


def check_applier_scaling(baseline, candidate, threshold):
    """Throughput per applier_threads; lower candidate is a regression."""
    return compare_rows(baseline, candidate, threshold,
                        key=lambda r: int(r["applier_threads"]),
                        metric="commit_to_applied_ops_per_sec",
                        label=lambda k: f"{k} appliers", higher_is_worse=False)


# Commit-path acceptance gates (DESIGN.md §8), all at 8 clients. The "new"
# bounds come from the pre-optimisation fence schedule, which measured 5.0
# drains/txn and an update p50 of at least 3.60x no-logging: 3.5 = 0.70 x 5.0
# demands a 30% cut, and 3.60 a p50 below that schedule's.
MAX_NEW_DRAINS_PER_TXN = 3.5
MAX_NEW_P50_VS_NOLOG = 3.60
MAX_EPOCH_DRAINS_PER_TXN = 1.5
MAX_EPOCH_P50_VS_NOLOG = 1.5


def check_commit_path(baseline, candidate, threshold):
    """Fence-schedule acceptance gates plus per-row drift. Absolute gates,
    enforced on both files so a stale committed baseline cannot mask a
    regression: kamino-simple drains/txn <= 3.5 ("new") and <= 1.5
    ("epoch"), and update p50 <= 3.60x ("new") and <= 1.5x ("epoch", at
    DRAM-commit return, acks settled) the no-logging engine's p50 from the
    same run. Rows are matched by (engine, fences, clients); a row fails if
    drains_per_txn rose by more than --threshold or is missing."""
    failures = []
    for doc, path in (baseline, candidate):
        s = doc.get("summary", {})
        nolog = float(s.get("nolog_update_p50_8c_us", 0.0))
        for fences, max_drains, max_p50_ratio in (
                ("new", MAX_NEW_DRAINS_PER_TXN, MAX_NEW_P50_VS_NOLOG),
                ("epoch", MAX_EPOCH_DRAINS_PER_TXN, MAX_EPOCH_P50_VS_NOLOG)):
            drains = float(s.get(f"kamino_drains_per_txn_{fences}_8c", 0.0))
            p50 = float(s.get(f"kamino_update_p50_{fences}_8c_us", 0.0))
            print(f"{path}: {fences} drains/txn 8c {drains:.3f}, "
                  f"update p50 {p50:.1f}us vs no-logging {nolog:.1f}us")
            if not drains or not p50 or not nolog:
                failures.append(f"{path}: missing {fences} summary metrics")
                continue
            if drains > max_drains:
                failures.append(f"{path}: {fences} drains/txn at 8 clients "
                                f"{drains:.3f} > {max_drains:.1f}")
            if p50 > max_p50_ratio * nolog:
                failures.append(f"{path}: {fences} update p50 {p50 / nolog:.2f}x "
                                f"no-logging > {max_p50_ratio:.2f}x at 8 clients")

    return failures + compare_rows(
        baseline, candidate, threshold,
        key=lambda r: (r["engine"], r["fences"], int(r["clients"])),
        metric="drains_per_txn", label=lambda k: f"{k[0]}/{k[1]}/{k[2]}",
        higher_is_worse=True)


MIN_REPLAY_SPEEDUP = 2.0
MAX_ONLINE_FIRST_OP_SPREAD = 3.0
MIN_OFFLINE_FIRST_OP_SPREAD = 1.5


def check_recovery(baseline, candidate, threshold):
    """Restart latency per sweep point; higher candidate is a regression.
    Also enforces each file's internal acceptance gates: parallel replay must
    speed up >= 2x from 1 to 4 workers, online restart-to-first-op must stay
    roughly flat across heap sizes (bounded by the dirty set, not the heap),
    and offline restart-to-first-op must visibly grow with the heap (it pays
    the whole reconcile sweep up front — that contrast is the point)."""
    failures = []
    for doc, path in (baseline, candidate):
        s = doc.get("summary", {})
        speedup = float(s.get("replay_speedup_1_to_4", 0.0))
        online = float(s.get("online_first_op_spread", 0.0))
        offline = float(s.get("offline_first_op_spread", 0.0))
        print(f"{path}: replay speedup 1->4 {speedup:.2f}x, first-op spread "
              f"online {online:.2f}x / offline {offline:.2f}x")
        if speedup < MIN_REPLAY_SPEEDUP:
            failures.append(f"{path}: replay speedup {speedup:.2f}x "
                            f"< {MIN_REPLAY_SPEEDUP:.1f}x (1 -> 4 workers)")
        if online > MAX_ONLINE_FIRST_OP_SPREAD:
            failures.append(f"{path}: online first-op spread {online:.2f}x "
                            f"> {MAX_ONLINE_FIRST_OP_SPREAD:.1f}x across heap sizes")
        if offline < MIN_OFFLINE_FIRST_OP_SPREAD:
            failures.append(f"{path}: offline first-op spread {offline:.2f}x "
                            f"< {MIN_OFFLINE_FIRST_OP_SPREAD:.1f}x — the offline/online "
                            "contrast vanished")

    return failures + compare_rows(
        baseline, candidate, threshold,
        key=lambda r: (r["sweep"], r["engine"], r["mode"], int(r["heap_mb"]),
                       int(r["dirty_txs"]), int(r["workers"])),
        metric="restart_to_full_ms",
        label=lambda k: f"{k[0]}/{k[1]}/{k[2]}/{k[3]}MB/d{k[4]}/w{k[5]}",
        higher_is_worse=True)


MIN_SHARD_SPEEDUP = 2.5
MAX_CROSS_SHARD_PENALTY = 3.0


def check_sharding(baseline, candidate, threshold):
    """Throughput per (shards, cross_shard_pct); lower candidate is a
    regression. Also enforces each file's internal acceptance gates: going
    from 1 to 4 shards at 0% cross-shard must speed throughput up >= 2.5x
    (the point of sharding the commit front-end), and a 20% cross-shard mix
    at 4 shards must cost no more than 3x vs the 0% mix (the 2PC tax stays
    bounded)."""
    failures = []
    for doc, path in (baseline, candidate):
        speedup = float(doc.get("speedup_1_to_4_shards", 0.0))
        penalty = float(doc.get("cross_shard_penalty_20pct", 0.0))
        print(f"{path}: 1->4 shard speedup {speedup:.2f}x, "
              f"20% cross-shard penalty {penalty:.2f}x")
        if speedup < MIN_SHARD_SPEEDUP:
            failures.append(f"{path}: shard speedup {speedup:.2f}x "
                            f"< {MIN_SHARD_SPEEDUP:.1f}x (1 -> 4 shards, 0% cross)")
        if penalty > MAX_CROSS_SHARD_PENALTY:
            failures.append(f"{path}: 20% cross-shard penalty {penalty:.2f}x "
                            f"> {MAX_CROSS_SHARD_PENALTY:.1f}x at 4 shards")

    return failures + compare_rows(
        baseline, candidate, threshold,
        key=lambda r: (int(r["shards"]), int(r["cross_shard_pct"])),
        metric="ops_per_sec", label=lambda k: f"{k[0]} shards/{k[1]}% cross",
        higher_is_worse=False)


MAX_BACKUP_SCAN_P50_INFLATION = 1.3
MIN_STALE_VS_HEAD = 1.8


def check_backup_reads(baseline, candidate, threshold):
    """Backup-epoch read-path acceptance gates (DESIGN.md §12). Absolute
    gates, enforced on both files so a stale committed baseline cannot mask
    a regression: a concurrent full-keyspace scan through the backup path
    (SnapshotScanChunked) inflates the writers' update p50 by at most 1.3x
    of the no-scan baseline AND by no more than the main-path (lock-taking)
    scan does; at 3 replicas, round-robined stale reads deliver >= 1.8x the
    throughput of the linearizable head-path reads. Per-phase p50 drift
    between the files still fails past --threshold."""

    failures = []
    for doc, path in (baseline, candidate):
        phases = doc.get("interference", {})
        backup = phases.get("backup_scan", {})
        main = phases.get("main_scan", {})
        backup_infl = float(backup.get("p50_inflation", 0.0))
        main_infl = float(main.get("p50_inflation", 0.0))
        stale = float(doc.get("chain", {}).get("replicas_3", {})
                      .get("stale_vs_head", 0.0))
        views = int(backup.get("snapshot_views", 0))
        errors = int(backup.get("scan_errors", 0)) + int(main.get("scan_errors", 0))
        print(f"{path}: backup-scan p50 inflation {backup_infl:.2f}x "
              f"(main-path {main_infl:.2f}x), stale-vs-head at 3 replicas "
              f"{stale:.2f}x, {views} snapshot views")
        if not backup_infl or not main_infl or not stale:
            failures.append(f"{path}: missing backup_reads metrics "
                            "(interference p50_inflation / chain stale_vs_head)")
            continue
        if backup_infl > MAX_BACKUP_SCAN_P50_INFLATION:
            failures.append(f"{path}: backup-scan update p50 inflation "
                            f"{backup_infl:.2f}x > "
                            f"{MAX_BACKUP_SCAN_P50_INFLATION:.1f}x baseline")
        if backup_infl > main_infl:
            failures.append(f"{path}: backup-scan p50 inflation {backup_infl:.2f}x "
                            f"exceeds the main-path scan's {main_infl:.2f}x — "
                            "the contention-free path contends more than 2PL")
        if stale < MIN_STALE_VS_HEAD:
            failures.append(f"{path}: stale reads at 3 replicas {stale:.2f}x "
                            f"head-path < {MIN_STALE_VS_HEAD:.1f}x")
        if views == 0:
            failures.append(f"{path}: backup_scan phase opened no snapshot "
                            "views — the scan never took the backup path")
        if errors:
            failures.append(f"{path}: {errors} scan errors during interference "
                            "phases")

    # Phase-level p50 drift between the two files. The main_scan row is
    # informational only: it measures 2PL lock-wait latency under a scanner,
    # which is wildly run-to-run noisy on small hosts, and its only gating
    # role — an upper bound the backup path must beat — is already enforced
    # absolutely above (backup_infl <= main_infl).
    base_doc, base_path = baseline
    cand_doc, cand_path = candidate
    print(f"{'phase':>14} {'baseline':>10} {'candidate':>10} {'ratio':>7}")
    for phase in ("baseline", "main_scan", "backup_scan"):
        b = float(base_doc.get("interference", {}).get(phase, {})
                  .get("update_p50_us", 0.0))
        c = float(cand_doc.get("interference", {}).get(phase, {})
                  .get("update_p50_us", 0.0))
        if b <= 0 or c <= 0:
            if b > 0:
                failures.append(f"{phase}: phase missing from candidate")
            print(f"{phase:>14} {b:>10.1f} {'missing' if c <= 0 else c:>10} {'-':>7}")
            continue
        ratio = c / b
        flag = ""
        if ratio > 1.0 + threshold and phase != "main_scan":
            failures.append(f"{phase} update p50 at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        elif ratio > 1.0 + threshold:
            flag = "  (informational)"
        print(f"{phase:>14} {b:>10.1f} {c:>10.1f} {ratio:>7.2f}{flag}")
    return failures


CHECKERS = {
    "applier_scaling": check_applier_scaling,
    "backup_reads": check_backup_reads,
    "commit_path": check_commit_path,
    "recovery": check_recovery,
    "sharding": check_sharding,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, action="append",
                    help="committed baseline JSON (repeatable)")
    ap.add_argument("--candidate", required=True, action="append",
                    help="freshly produced JSON (repeatable, zipped with --baseline)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed fractional change per point (default 0.25)")
    args = ap.parse_args()

    if len(args.baseline) != len(args.candidate):
        sys.exit("error: --baseline and --candidate must be given the same "
                 f"number of times ({len(args.baseline)} vs {len(args.candidate)})")

    failures = []
    for base_path, cand_path in zip(args.baseline, args.candidate):
        base = load(base_path)
        cand = load(cand_path)
        bench = base.get("bench", "")
        if cand.get("bench", "") != bench:
            sys.exit(f"error: bench mismatch: {base_path} is '{bench}', "
                     f"{cand_path} is '{cand.get('bench', '')}'")
        checker = CHECKERS.get(bench)
        if checker is None:
            sys.exit(f"error: {base_path}: unknown bench '{bench}' "
                     f"(known: {', '.join(sorted(CHECKERS))})")
        print(f"== {bench}: {cand_path} vs {base_path}")
        failures += checker((base, base_path), (cand, cand_path), args.threshold)
        print()

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"OK: no metric regressed more than {args.threshold:.0%}; "
          "all internal gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
