// Kamino-Tx atomicity engine (paper §3 "Kamino-Tx-Simple", §4 "-Dynamic").
//
// Transactions edit the main heap *in place*. The only critical-path
// persistence work is the intent log (object addresses — one cache line per
// object) and the final flush of the modified ranges. After the commit
// record is durable the transaction returns; a background Transaction
// Coordinator then copies the modified objects to the backup version and
// only afterwards releases the objects' write locks. Dependent writers —
// whose write set intersects a pending write set — block on those locks
// until main and backup agree (paper's Safety 1 & 2).
//
// Readers wait less. At durable commit (Commit; the epoch durability
// callback; FinishPrepared) the engine marks the writer's lock entries
// committed, and readers pass a committed entry: main already holds the
// committed bytes. A transaction that passed a writer and also writes
// waits at its own commit for that writer's release (Tx::Commit), so the
// backup cut stays causally closed (DESIGN.md §6, §12.1).
//
// The coordinator is sharded: each applier thread owns a private queue
// (mutex + cv + a fixed ring of contexts) and Commit round-robins committed
// contexts across them. This is safe because write locks are held until
// apply completes, so any two queued transactions have disjoint write sets
// and their backup applies commute — order across shards is irrelevant.
// Every queued context holds a log slot, so a ring of LogManager::num_slots
// entries per shard never overflows. See DESIGN.md, "Transaction
// Coordinator pipeline".
//
// Cooperative apply: the applier's batch step (DrainBatch) is also the
// lock table's contention hook, so a dependent transaction about to block
// on a committed-but-unapplied writer runs batches off the queues itself
// and sleeps only when there is nothing left to apply; a reader that passes
// a committed entry runs one such pass without waiting. A helper batch is
// exactly what an extra applier shard would run — claimed under the shard
// mutex, applied inside the cut gate, stamped after its slot release — so
// one apply path serves both (DESIGN.md §6, §12.1).
//
// Aborts copy the untouched backup values over the main version in the
// aborting thread (aborts are rare; Figure 6). Recovery treats incomplete
// transactions as aborted: committed-but-unapplied transactions are rolled
// forward into the backup through the same batch step (ApplyBatch),
// everything else is rolled back from it.
//
// The Simple/Dynamic distinction is entirely inside the BackupStore: a full
// mirror never costs anything at OpenWrite time, while the dynamic (partial)
// store pays one critical-path copy per cold object (paper §4).

#ifndef SRC_TXN_KAMINO_ENGINE_H_
#define SRC_TXN_KAMINO_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/stats/histogram.h"
#include "src/txn/backup_store.h"
#include "src/txn/dirty_map.h"
#include "src/txn/engine_base.h"

namespace kamino::txn {

class KaminoEngine : public EngineBase {
 public:
  // `store` outlives the engine; `dynamic` selects the Dynamic flavour
  // (enables pinning + critical-path copies on cold objects).
  KaminoEngine(heap::Heap* heap, LogManager* log, LockManager* locks, BackupStore* store,
               bool dynamic, int applier_threads = 1, RecoveryOptions recovery = {});
  ~KaminoEngine() override;

  EngineType type() const override {
    return dynamic_ ? EngineType::kKaminoDynamic : EngineType::kKaminoSimple;
  }

  Status OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                        void** out) override;
  // Under the epoch pipeline (LogOptions::epoch_commit, DESIGN.md §8) a
  // commit given an ack returns at DRAM-commit with `ack` carrying the epoch
  // durability ticket; without an ack it waits for that epoch's drain. The
  // context reaches the applier only through the epoch's durability
  // callback, so the backup never runs ahead of the log.
  Status Commit(TxContextPtr ctx, CommitAck* ack) override;
  Status Abort(TxContext* ctx) override;
  // --- Cross-shard 2PC (DESIGN.md §11) -------------------------------------
  // Kamino-only: Tx reaches these through TxManager's Kamino engine and
  // answers kNotSupported on any other engine.
  //
  // Prepare: flush the write set and durably persist a prepared record
  // carrying (gtxid, coord_shard) in place of a commit record. The context
  // stays owned by the caller; write locks remain held. After a successful
  // Prepare the transaction may only be finished via FinishPrepared.
  Status Prepare(TxContext* ctx, uint64_t gtxid, uint64_t coord_shard);
  // Coordinator only: durably flip the prepared slot to the commit decision
  // (exactly one drain) WITHOUT handing the context to the applier — the
  // coordinator's slot must stay occupied until every participant is
  // durably committed, or presumed-abort breaks.
  Status PersistDecision(TxContext* ctx);
  // Resolves a prepared context per the decision: commit follows the normal
  // commit tail (hand to the applier; no second commit mark when the slot
  // already carries the decision record), abort follows Abort's backup
  // rollback.
  Status FinishPrepared(TxContextPtr ctx, bool commit);
  // Two-phase recovery (DESIGN.md §10): parallel log replay, then backup
  // reconciliation — inline (offline) or in the background behind dirty-map
  // fences (online). Errors are aggregated, never early-returned: every
  // recovered transaction is resolved on its own. A failed rollback keeps its
  // log slot so a retry (or the next recovery) sees it again; a failed
  // roll-forward releases it with its batch, as on the live path.
  Status Recover() override;
  void WaitIdle() override;
  void WaitForRecovery() override;
  uint64_t backup_bytes() const override { return store_->backup_bytes(); }
  // Blocks until the backup cut covers every transaction committed before
  // the call (epoch mode: every commit up to the current seal), helping the
  // appliers through DrainBatch. Returns early while PauseApplier holds.
  void SyncCut() override;

  // Adds the coordinator-pipeline counters (queue depth, commit->applied lag
  // percentiles, batch/coalescing totals) to the base engine stats.
  EngineStats stats() const override;

  BackupStore* store() { return store_; }

  // --- Crash-test hooks -------------------------------------------------
  // Pausing stops appliers from dequeuing new work, freezing committed
  // transactions in the "committed but not applied" window so tests can
  // crash there deterministically.
  void PauseApplier(bool paused);
  // Drops all queued (unapplied) contexts, modelling the process dying
  // before the Transaction Coordinator ran. Locks they held are NOT
  // released — callers are about to throw the whole manager away.
  void DiscardPendingForCrashTest();

 private:
  // One applier thread's private work queue. Sharding removes the single
  // dispatch mutex from the commit path and lets appliers drain
  // independently; correctness rests on the disjoint-write-set invariant
  // noted above.
  struct ApplierShard {
    explicit ApplierShard(size_t capacity)
        : ring(std::make_unique<TxContextPtr[]>(capacity)), ring_size(capacity) {
      active.reserve(kActiveReserve);
    }

    std::mutex mu;
    std::condition_variable cv;
    // Per-shard enqueue sequence numbers, guarded by mu. Contexts [0,
    // claimed) have left the queue, [claimed, enqueued) are still queued,
    // context `seq` at ring[seq % ring_size]; `active` holds the first
    // sequence number of every claimed batch that has not finished. Helpers
    // make batches finish out of order, so the applied point is a low
    // watermark, not a count.
    std::unique_ptr<TxContextPtr[]> ring;
    const size_t ring_size;
    uint64_t enqueued = 0;
    uint64_t claimed = 0;
    std::vector<uint64_t> active;
    // Every context with a sequence number below this is applied, released
    // and stamped into the cut. Written under mu, read lock-free (SyncCut
    // waits on idle_cv_, which every batch notifies after writing it).
    std::atomic<uint64_t> applied_through{0};
  };

  // Bounds how many releases share one fence; also bounds how long write
  // locks of the first transaction in a batch stay held past its apply.
  static constexpr size_t kMaxApplyBatch = 32;
  // Batches of one shard in flight at once (its applier plus helpers) that
  // fit before ApplierShard::active first grows.
  static constexpr size_t kActiveReserve = 16;

  // The applier's batch step, run by applier threads and by helpers alike:
  // claims up to kMaxApplyBatch contexts from `shard` (none while paused),
  // runs ApplyBatch on them and retires them from the shard's watermark and
  // from in_flight_. Returns the number of contexts applied.
  size_t DrainBatch(ApplierShard& shard);
  // The only way a committed transaction is rolled forward, live or in
  // recovery: applies `n` <= kMaxApplyBatch contexts inside the cut gate,
  // releases their slots behind one fence, stamps and publishes the cut,
  // then finishes them (locks released). Every context is finished even if
  // an apply fails; returns the first error.
  Status ApplyBatch(TxContextPtr* batch, size_t n);
  // Blocks on the shard's cv until there is work (or shutdown), then
  // DrainBatch; one per applier thread.
  void ApplierLoop(size_t shard_index);
  // The lock table's contention hook: seals the open epoch (epoch mode, and
  // only for a `waiting` caller) and runs one batch off every shard. True if
  // anything was applied.
  bool HelpApply(bool waiting);
  // Marks every write lock of `ctx` committed (LockManager::MarkCommitted),
  // letting readers pass them; called once the commit is durable and before
  // the context is handed to the applier.
  void MarkCommitted(const TxContext* ctx);
  // Round-robins a committed context across the applier shards, giving it
  // the shard's next enqueue sequence number. In epoch mode this runs inside
  // the epoch's durability callback (on the leader thread); recovery uses it
  // for contexts handed off by online replay. Callers count in_flight_
  // themselves.
  void EnqueueCommitted(TxContextPtr ctx);
  // Rolls a committed transaction forward into the backup (one batched
  // apply, at most one drain) and runs its deferred frees; returns the first
  // error. ApplyBatch then releases the whole batch's slots behind one fence
  // and calls FinishApplied per transaction (deferred-free reservations,
  // write locks, stats).
  Status ApplyCommitted(TxContext* ctx);
  void FinishApplied(TxContext* ctx);

  // --- Recovery pipeline (DESIGN.md §10) --------------------------------
  // Replays one partition of the recovered transactions (worker 0 on the
  // recovering thread, the others on their own). Incomplete transactions
  // are rolled back here. Committed ones become applier contexts under
  // re-acquired write locks: offline the worker runs ApplyBatch over them
  // before returning; online they are left in `handoff` for the applier
  // pool. First error wins, the loop continues.
  Status ReplayPartition(const std::vector<RecoveredTx>& txs,
                         std::vector<TxContextPtr>* handoff);
  Status RollBackRecovered(const RecoveredTx& tx);
  // Rebuilds an applier-ready context for a recovered committed transaction,
  // re-acquiring its write locks. Fails only on lock timeout, and then the
  // transaction keeps its slot.
  Result<TxContextPtr> BuildHandoff(const RecoveredTx& tx);

  // Arms the dirty map over the allocator region: snapshots the live
  // allocations per chunk, trusts chunks below a persisted resume cursor,
  // and marks object-free chunks clean. Replay must be complete first.
  void BuildDirtyMap();
  // Copies every snapshotted object of `chunk` main -> backup.
  Status ReconcileChunk(uint64_t chunk);
  // Blocks until every chunk overlapping [offset, size) is clean. No-op
  // unless an online reconcile is active. Alloc calls it too: a background
  // reconcile reading a new object's chunk while the caller writes it would
  // race on the main heap.
  Status FenceRange(uint64_t offset, uint64_t size) override;
  void ReconcileLoop();
  // Persists the dirty map's contiguous clean frontier into the log header
  // if it advanced past the last persisted value.
  void MaybePersistCursor();
  void FinishReconcile();

  BackupStore* store_;
  bool dynamic_;
  const RecoveryOptions recovery_;

  std::vector<std::unique_ptr<ApplierShard>> shards_;
  std::atomic<uint64_t> next_shard_{0};
  // Committed-but-not-yet-applied transactions (queued + being applied).
  std::atomic<uint64_t> in_flight_{0};
  // Backup-read cut accounting (DESIGN.md §12): transactions whose backup
  // applies are complete AND whose log slots are durably released. Each
  // applier adds its batch after its own ReleaseSlots fence, then publishes
  // the sum as the epoch stamp; seeded from the durable stamp at open.
  std::atomic<uint64_t> cut_released_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  // WaitIdle and SyncCut block here; DrainBatch notifies after every batch.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  // Coordinator observability.
  std::atomic<uint64_t> apply_batches_{0};
  std::atomic<uint64_t> helper_apply_batches_{0};  // DrainBatch runs by helpers.
  std::atomic<uint64_t> coalesced_ranges_{0};
  stats::LatencyHistogram apply_lag_;  // Commit-enqueue -> fully applied.

  std::vector<std::thread> appliers_;

  // --- Online-reconcile state -------------------------------------------
  // dirty_map_ and chunk_objects_ are built single-threaded in Recover()
  // before reconcile_active_ is published (release) and before any worker
  // or handed-off context exists; they are read-only afterwards.
  std::unique_ptr<DirtyMap> dirty_map_;
  std::vector<std::vector<ApplyRange>> chunk_objects_;  // Keyed by start chunk.
  std::atomic<bool> reconcile_active_{false};
  std::atomic<bool> reconcile_stop_{false};
  std::vector<std::thread> reconcilers_;
  std::atomic<uint64_t> reconciled_bytes_{0};

  // Cursor persistence is serialized (several reconcilers may race to
  // publish the frontier) and monotone.
  std::mutex cursor_mu_;
  uint64_t last_persisted_cursor_ = 0;

  std::mutex reconcile_done_mu_;
  std::condition_variable reconcile_done_cv_;
  bool reconcile_finished_ = false;  // FinishReconcile runs once.

  // Replay-phase wall time; read-only once Recover() returns.
  uint64_t recovery_replay_ns_ = 0;
};

}  // namespace kamino::txn

#endif  // SRC_TXN_KAMINO_ENGINE_H_
