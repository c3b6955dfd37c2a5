// Systematic crash-point enumeration (the counterpart of the randomized
// fuzz_crash_test): run a deterministic workload once to discover its
// persistence-event space, then re-run it once per event k, power-failing the
// machine exactly at event k, recovering, and checking invariants.
//
// Workload: N single-transaction operations against one persistent B+Tree.
// Every operation's transaction also upserts a progress-marker key with the
// operation's 1-based index, so the marker is atomic with the operation. The
// post-recovery marker value j therefore names the exact committed prefix,
// and atomicity demands the recovered tree equal the model after op j —
// nothing more, nothing less.
//
// Checked invariants per crash point k (strong tier; `check_data` true):
//   1. Recovery succeeds (heap attach + engine recovery).
//   2. Determinism: events 1..k-1 of the injection run carry the same
//      (kind, site) sequence as the count pass — otherwise ordinals would
//      name different moments in different runs and the sweep proves nothing.
//   3. Tree structural invariants hold (Validate()).
//   4. Atomicity: recovered contents == model state after op j.
//   5. Durability: j >= the number of operations whose final persistence
//      event precedes k (an acknowledged op may not be lost).
//
// Weak tier (`check_data` false; the NoLogging engine, which provides no
// atomicity by design): only invariants 1 and 2.
//
// Failures carry a replayable trace: engine, workload size, crash ordinal,
// and the site tag of the fatal event.

#ifndef TESTS_CRASH_POINTS_CRASH_POINT_HARNESS_H_
#define TESTS_CRASH_POINTS_CRASH_POINT_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/txn/engine.h"
#include "tests/crash_points/crash_scheduler.h"

namespace kamino::testing {

struct CrashPointOptions {
  txn::EngineType engine = txn::EngineType::kKaminoSimple;

  // Number of workload operations. Keep small: the sweep runs one full
  // system lifecycle per persistence event.
  uint64_t num_ops = 6;

  // Sweep every `stride`-th crash point starting at `start` (budgeted mode
  // for CI smoke runs; stride 1 = full enumeration).
  uint64_t start = 1;
  uint64_t stride = 1;
  // Upper bound on injection runs; 0 = unlimited.
  uint64_t max_points = 0;

  uint64_t pool_size = 24ull << 20;
  // With the default global-ordinal coordinates, >1 breaks event-stream
  // determinism; set `per_site` to sweep multi-applier configurations.
  int applier_threads = 1;

  // Commit-path fence schedule under test: epoch_commit off (the default,
  // per-transaction group commit) or on. A solo committer in epoch mode
  // elects itself leader deterministically, so global-ordinal sweeps stay
  // valid with epoch_commit on.
  txn::LogOptions log;

  // Per-site crash coordinates: injection point k crashes at the
  // (kind, site, occurrence) triple of count-pass event k instead of at
  // global ordinal k. Per-site occurrence streams stay meaningful when
  // multiple applier threads interleave unrelated sites nondeterministically,
  // so this unlocks applier_threads > 1 sweeps. The determinism and
  // durability invariants (which are defined over the global ordinal stream)
  // are skipped; recovery, structural and atomicity invariants still hold.
  // A coordinate that never fires in its injection run (a benign interleave
  // gave that site fewer events) is recorded as not fired, not a failure.
  bool per_site = false;

  // Weak tier: skip tree attach / data checks after recovery.
  bool check_data = true;

  // Deliberately-broken variant: veto every event of `suppress_kind` tagged
  // with `suppress_site`, modeling an engine missing that persistence
  // barrier. Empty = disabled.
  std::string suppress_site;
  nvm::PersistEventKind suppress_kind = nvm::PersistEventKind::kFlush;
};

struct CrashPointFailure {
  uint64_t crash_ordinal = 0;
  std::string site;     // Site tag of the fatal event (from the count pass).
  std::string message;  // Diagnosis + replay instructions.
};

struct CrashPointReport {
  uint64_t total_events = 0;   // Size of the event space (count pass).
  uint64_t points_tested = 0;  // Injection runs actually performed.
  uint64_t points_fired = 0;   // Runs where the crash point actually hit.
  std::vector<CrashPointFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

// Runs the count pass + injection sweep described above.
CrashPointReport EnumerateCrashPoints(const CrashPointOptions& options);

// --- Crash-during-recovery enumeration (DESIGN.md §10) -----------------------
//
// Stages a crashed system with real recovery work pending — committed-and-
// applied transactions, committed-but-unapplied ones (Kamino engines, via
// PauseApplier), and one in-flight transaction leaked mid-write — then
// enumerates power failures *inside recovery itself*: a count pass over
// Attach + Open + WaitForRecovery + WaitIdle discovers recovery's own
// persistence-event space, and each injection run kills the machine at
// event k of a fresh recovery, recovers again cleanly, and asserts the
// second recovery converges to the exact same state (progress markers, tree
// contents, structural invariants). This is the crash-idempotence contract:
// every persist site reached during recovery ("engine/recover/*",
// "backup/reconcile/*", and the log/backup sites recovery calls into) must
// be safe to lose.
struct RecoveryCrashOptions {
  txn::EngineType engine = txn::EngineType::kKaminoSimple;

  // Staged work: `num_ops` fully applied ops, then `unapplied_ops` committed
  // ops frozen before the applier ran (Kamino engines only — inline engines
  // have no committed-unapplied window), then one leaked running
  // transaction.
  uint64_t num_ops = 4;
  uint64_t unapplied_ops = 2;

  uint64_t pool_size = 24ull << 20;
  int applier_threads = 1;

  // Recovery pipeline shape under test (workers, online, reconcile_backup).
  // Nondeterministic shapes (workers > 1, online) are still sound to sweep:
  // an ordinal-k power cut is a legitimate crash of *that* run, and the
  // invariant checked is convergence, not event-stream equality.
  txn::RecoveryOptions recovery;

  // Sweep budget, as in CrashPointOptions.
  uint64_t start = 1;
  uint64_t stride = 1;
  uint64_t max_points = 0;
};

CrashPointReport EnumerateRecoveryCrashPoints(const RecoveryCrashOptions& options);

const char* EngineName(txn::EngineType engine);

}  // namespace kamino::testing

#endif  // TESTS_CRASH_POINTS_CRASH_POINT_HARNESS_H_
