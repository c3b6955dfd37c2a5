// The atomicity-engine interface.
//
// All engines sit behind the same NVML-shaped transactional API (paper
// Table 2) and differ only in what declaring a write intent
// (OpenWriteBatch), committing, aborting and recovering do. This mirrors the
// paper's deployment story — "any application that works with NVML just
// needs to be re-linked to work with Kamino-Tx" — and keeps baseline
// comparisons honest: every code path outside the atomicity mechanism is
// identical. The logged Alloc and Free, and the Commit, Abort and Recover of
// the engines that resolve inline (undo, redo, CoW), are written once, in
// EngineBase; those engines supply only their per-intent steps. Kamino's
// cross-shard 2PC calls (Prepare, PersistDecision, FinishPrepared) are
// KaminoEngine members, not part of this interface. Every call borrows the
// transaction's context (TxContext*), which lives on the thread that made it
// until Tx retires it; a committed Kamino transaction outlives its context
// only as its intent-log slot, which the applier reads (DESIGN.md §6).
//
//   KaminoSimpleEngine   in-place updates, full asynchronous backup (§3).
//   KaminoDynamicEngine  in-place updates, partial (α) backup (§4).
//   UndoLogEngine        NVML-faithful undo logging: object snapshots copied
//                        into the log in the critical path.
//   CowEngine            copy-on-write: edits go to shadow copies installed
//                        at commit.
//   RedoLogEngine        redo logging: edits go to staging copies in the log,
//                        installed after the commit record.
//   NoLoggingEngine      no atomicity (Figure 1's "No Logging" bound).

#ifndef SRC_TXN_ENGINE_H_
#define SRC_TXN_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/status.h"
#include "src/nvm/pool.h"
#include "src/txn/tx_context.h"

namespace kamino::txn {

enum class EngineType {
  kKaminoSimple,
  kKaminoDynamic,
  kUndoLog,
  kCow,
  kRedoLog,
  kNoLogging,
  // Kamino-Tx-Chain non-head replica (paper §5): in-place updates with
  // intent logging but NO local backup — the chain neighbours serve as the
  // copies to roll forward/back during recovery, so local aborts are not
  // supported (only committed transactions are admitted downstream).
  kChainReplica,
};

const char* EngineTypeName(EngineType type);

// Knobs for the two-phase recovery pipeline (parallel log replay + online
// backup reconciliation). Defaults are the classic shape: single-threaded
// replay, fully offline, no backup re-verification — and, crucially, a
// deterministic persistence-event stream, so crash-point ordinals are
// reproducible from run to run.
struct RecoveryOptions {
  // Recovery workers replaying disjoint partitions of the intent log. The
  // disjoint-write-set invariant (DESIGN.md §6) makes any partition of the
  // recovered transactions safe to replay in parallel. Worker 0 runs on the
  // recovering thread, so 1 = no replay thread (deterministic event stream).
  int workers = 1;

  // Online recovery: committed-but-unapplied transactions are handed to the
  // applier pool (under re-acquired write locks) instead of rolled forward
  // by the replay workers before Open returns, and backup reconciliation (if
  // any) drains in the background while the engine serves traffic. Either
  // way they are rolled forward by the applier's batch step. Operations
  // touching a not-yet-reconciled range block on the dirty map until it is
  // clean.
  bool online = false;

  // Re-verify the full backup mirror against the main heap after replay
  // (main -> backup copy of every allocated object), tracked by a persistent
  // dirty map so the sweep is crash-resumable. This is the untrusted-backup
  // restart model (e.g. a promoted chain head); offline it runs before the
  // engine opens, online it drains in the background behind the dirty-map
  // fence. Meaningful for the full (mirror) backup; the dynamic store's
  // persistent table is already authoritative after replay.
  bool reconcile_backup = false;

  // Background reconcile threads (online mode only).
  int reconcile_workers = 1;

  // Dirty-map granularity over the allocator region.
  uint64_t reconcile_chunk_bytes = 1ull << 20;
};

struct EngineStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t applied = 0;        // Transactions fully synced to the backup.
  uint64_t recovered_forward = 0;
  uint64_t recovered_back = 0;

  // Transaction Coordinator pipeline (Kamino engines only; zero elsewhere).
  uint64_t applier_queue_depth = 0;  // Committed but not yet applied, now.
  uint64_t apply_batches = 0;        // ApplyBatch runs that applied a range.
  uint64_t helper_apply_batches = 0; // Applier batches run by blocked waiters.
  uint64_t coalesced_ranges = 0;     // Ranges merged away inside batches.
  uint64_t apply_lag_p50_ns = 0;     // Commit-enqueue -> fully-applied lag.
  uint64_t apply_lag_p99_ns = 0;

  // Backup-epoch read model (Kamino engines only; zero elsewhere). See
  // DESIGN.md §12.
  uint64_t backup_epoch = 0;             // Durable backup-read cut stamp.
  uint64_t backup_read_hits = 0;         // Snapshot reads served from backup.
  uint64_t backup_read_misses = 0;       // Epoch-checked main-heap fallbacks.
  uint64_t backup_snapshot_views = 0;    // SnapshotViews opened.
  uint64_t backup_cut_fence_waits = 0;   // Views that blocked on an apply batch.

  // Commit critical path (engines with an intent log; zero elsewhere).
  uint64_t log_blocked_acquires = 0;   // Slot acquisitions that had to block.
  uint64_t log_blocked_wait_ns = 0;    // Total time blocked on slot backpressure.
  uint64_t group_commit_commits = 0;   // Commits durably covered by a group drain.
  uint64_t group_commit_leader_drains = 0;  // Drains leaders actually issued.

  // Recovery pipeline observability (engines with recovery work; zero
  // elsewhere). See DESIGN.md §10.
  uint64_t recovery_replay_ns = 0;          // Wall time of the replay phase.
  uint64_t recovery_reconciled_bytes = 0;   // main -> backup bytes re-copied.
  uint64_t recovery_dirty_chunks = 0;       // Dirty-map size at open.
  uint64_t recovery_dirty_chunks_left = 0;  // Not yet reconciled, now.
  uint64_t recovery_fence_waits = 0;        // Ops that blocked on a dirty range.
  uint64_t recovery_ondemand_reconciles = 0;  // Chunks reconciled by fenced ops.
};

// One span of a multi-intent write declaration (OpenWriteBatch).
struct WriteSpan {
  uint64_t offset = 0;
  uint64_t size = 0;  // 0 = the whole object at `offset`.
};

// Durability receipt of a commit given an ack (epoch pipeline, DESIGN.md
// §8): the transaction is committed in DRAM order when Commit returns, but
// its acknowledgement — TxManager::WaitCommitDurable(ack) — blocks until the
// epoch drain covering the commit has completed. ticket == 0 means the
// commit was already durable at return (read-only transactions, engines
// without an epoch pipeline, LogOptions::epoch_commit off).
struct CommitAck {
  uint64_t ticket = 0;
};

class AtomicityEngine {
 public:
  virtual ~AtomicityEngine() = default;

  virtual EngineType type() const = 0;

  // Declares write intent on `count` spans and returns each span's
  // write-through pointer in `out[i]`: the in-place location for in-place
  // engines, the shadow or staging copy for CoW and redo. Logging engines
  // flush one intent record per span and pay a single drain for the whole
  // batch ("N flushes, one fence") before any pointer is released. Blocks if
  // a span is part of another transaction's pending set (dependent
  // transaction). Tx::OpenWrite is the one-span case.
  virtual Status OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                void** out) = 0;

  // Transactionally allocates `size` bytes. The new object is write-locked
  // and rolled back (freed) if the transaction does not commit.
  virtual Result<uint64_t> Alloc(TxContext* ctx, uint64_t size) = 0;

  // Transactionally frees the object at `offset`; takes effect only if the
  // transaction commits.
  virtual Status Free(TxContext* ctx, uint64_t offset) = 0;

  // Commits. The context stays the caller's, and is done with on return:
  // the Kamino engines queue the transaction's log slot for the
  // asynchronous applier, which later reads the intents from the slot,
  // syncs the backup and releases the write locks the intents name; other
  // engines resolve everything inline. With `ack` null
  // the commit is durable on return. With an ack, an engine that has an
  // epoch pipeline may return at DRAM-commit and store the epoch ticket in
  // `ack`; the caller then acknowledges only after WaitCommitDurable(*ack).
  // Every other commit leaves `ack` as the caller set it (Tx::Commit zeroes
  // it). Dependent transactions are safe without waiting: write locks
  // release only after the (durability-gated) backup apply, so any txn the
  // lock table marks as reading the write set blocks on the epoch ticket
  // structurally.
  virtual Status Commit(TxContext* ctx, CommitAck* ack) = 0;

  // Aborts, rolling back every declared intent, and releases all locks.
  virtual Status Abort(TxContext* ctx) = 0;

  // Crash recovery: resolves every transaction left in the intent log
  // (incomplete transactions are treated as aborted, paper §3).
  virtual Status Recover() = 0;

  // Blocks until all committed transactions are fully applied (backup in
  // sync, locks released). Used by tests, benchmarks and shutdown.
  virtual void WaitIdle() {}

  // Blocks until online recovery work (background backup reconciliation)
  // has fully drained. No-op for engines without online recovery, and after
  // an offline recovery. Note this does NOT wait for handed-off
  // committed-but-unapplied transactions — that is WaitIdle's job.
  virtual void WaitForRecovery() {}

  // Blocks until the readable backup cut (DESIGN.md §12) covers every
  // transaction committed before the call. No-op for engines without one.
  virtual void SyncCut() {}

  // NVM bytes used beyond the main heap (backup pools), for Table 1.
  virtual uint64_t backup_bytes() const { return 0; }

  virtual EngineStats stats() const = 0;
};

}  // namespace kamino::txn

#endif  // SRC_TXN_ENGINE_H_
