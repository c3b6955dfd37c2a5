// Public transactional API over a persistent heap (paper Table 2).
//
// A TxManager binds a heap to one of the five atomicity engines and owns the
// log manager, the lock manager and (for the Kamino engines) the backup
// store + pool. The per-transaction handle `Tx` mirrors NVML's macros:
//
//   NVML                      Kamino-Tx library
//   ------------------------  -----------------------------
//   TX_BEGIN(pop)             Tx tx = mgr->Begin();
//   TX_ADD(obj) + D_RW(obj)   T* p = tx.OpenWrite(pptr);
//   TX_ZALLOC(size)           tx.Alloc(size) / tx.AllocObject<T>()
//   TX_FREE(obj)              tx.Free(offset)
//   TX_COMMIT                 tx.Commit()
//   TX_ABORT                  tx.Abort()
//
// Usage:
//   auto mgr = txn::TxManager::Create(heap.get(), options).value();
//   Status st = mgr->Run([&](txn::Tx& tx) -> Status {
//     auto node = tx.OpenWrite(node_ptr);
//     if (!node.ok()) return node.status();
//     (*node)->value = 42;
//     return Status::Ok();
//   });

#ifndef SRC_TXN_TX_MANAGER_H_
#define SRC_TXN_TX_MANAGER_H_

#include <atomic>
#include <cstring>
#include <memory>

#include "src/common/cacheline.h"
#include "src/common/function_ref.h"
#include "src/heap/heap.h"
#include "src/txn/backup_store.h"
#include "src/txn/engine.h"
#include "src/txn/lock_manager.h"
#include "src/txn/log_manager.h"

namespace kamino::txn {

class KaminoEngine;

struct TxManagerOptions {
  EngineType engine = EngineType::kKaminoSimple;
  LogOptions log;
  LockOptions lock;

  // Kamino applier threads (background Transaction Coordinator workers).
  int applier_threads = 1;

  // Kamino-Tx-Dynamic: backup copy budget as a fraction of the heap's object
  // capacity (the paper's α), plus the lookup-table geometry.
  double alpha = 0.2;
  uint64_t dynamic_lookup_buckets = 1 << 16;

  // Backup pool placement. If `external_backup_pool` is set the manager
  // borrows it (required for crash/restart tests, where the pool must
  // outlive the manager); otherwise a pool is created and owned internally.
  nvm::Pool* external_backup_pool = nullptr;
  std::string backup_path;  // Backing file for an internally created pool.
  uint32_t backup_flush_latency_ns = 0;
  uint32_t backup_drain_latency_ns = 0;
  // Forwarded to the backup pool: make injected latency sleep (overlappable)
  // instead of spin. See nvm::PoolOptions.
  bool backup_sleep_latency = false;
  // Forwarded to an internally created backup pool's PoolOptions::site_prefix
  // so a sharded store's backup events are shard-attributed like the main
  // pool's (external pools carry their own prefix).
  std::string site_prefix;

  // Open() only: attach without running engine recovery. Used by chain
  // replicas, whose recovery needs a neighbour's state (paper §5.3) and is
  // driven by the chain layer instead.
  bool skip_recovery = false;

  // Recovery pipeline shape (parallel replay, online backup reconcile).
  // Defaults reproduce the classic offline single-threaded recovery.
  RecoveryOptions recovery;
};

class TxManager;

// Move-only transaction handle. Destroying an active transaction aborts it.
class Tx {
 public:
  Tx(Tx&& other) noexcept = default;
  Tx& operator=(Tx&& other) noexcept;
  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;
  ~Tx();

  // Declares write intent on [offset, offset+size) and returns the pointer
  // to write through (main copy, CoW shadow or redo staging copy). size == 0
  // means "the whole object starting at offset". May block on dependent
  // transactions. The one-span case of OpenWriteBatch.
  Result<void*> OpenWrite(uint64_t offset, uint64_t size = 0);

  template <typename T>
  Result<T*> OpenWrite(heap::PPtr<T> p) {
    Result<void*> r = OpenWrite(p.offset, sizeof(T));
    if (!r.ok()) {
      return r.status();
    }
    return static_cast<T*>(*r);
  }

  // Declares write intent on `count` spans at once (the engine batches the
  // intent-record fences: N flushes, one drain). out[i] receives span i's
  // write-through pointer. Spans already open in this transaction are
  // allowed and resolve to their existing pointer.
  Status OpenWriteBatch(const WriteSpan* spans, size_t count, void** out);

  // Takes a read lock on the object at `offset` for the duration of the
  // transaction — this is what makes reads of pending objects dependent. A
  // running or prepared writer of the object blocks it; a Kamino writer
  // whose commit is durable does not (LockManager::AcquireRead), and the
  // read returns its committed bytes.
  Status ReadLock(uint64_t offset);

  // If this transaction already opened `offset` for write, returns the
  // pointer writes must go through (the CoW shadow, or the in-place
  // location); nullptr otherwise. Lets data-structure code re-read objects
  // it has modified earlier in the same transaction without knowing which
  // engine is underneath.
  void* OpenedPointer(uint64_t offset);

  // Transactionally allocates `size` bytes (zeroed by default, like NVML's
  // TX_ZALLOC). Rolled back if the transaction does not commit.
  Result<uint64_t> Alloc(uint64_t size, bool zero = true);

  template <typename T>
  Result<heap::PPtr<T>> AllocObject() {
    Result<uint64_t> off = Alloc(sizeof(T), /*zero=*/true);
    if (!off.ok()) {
      return off.status();
    }
    return heap::PPtr<T>(*off);
  }

  // Transactionally frees the object at `offset` (takes effect at commit).
  Status Free(uint64_t offset);

  // Commits; durable on return when `ack` is nullptr. A transaction that
  // writes and whose reads passed committed-but-unapplied writers first
  // waits, helping the applier, until those writers are released; on a
  // timeout it returns kTxConflict and stays active (abort it). A read-only
  // transaction never waits. With an ack the commit
  // may be persist-behind (LogOptions::epoch_commit, DESIGN.md §8): it
  // returns at DRAM-commit with `ack` carrying the epoch durability ticket,
  // and must not be acknowledged to any external party before
  // TxManager::WaitCommitDurable(*ack) returns. Ticket 0 means durable on
  // return (epoch mode off, read-only transactions, non-Kamino engines).
  Status Commit(CommitAck* ack = nullptr);
  Status Abort();

  // --- Cross-shard 2PC (driven by shard::ShardedStore; DESIGN.md §11) -------
  // Kamino engines only: on any other engine Prepare returns kNotSupported
  // and leaves the transaction active.
  // Prepare waits for passed writers as Commit does, then durably votes yes:
  // the write set is flushed and a prepared record
  // (carrying the cross-shard txid and the coordinator's shard index) is
  // persisted in place of a commit record. The handle stays alive in the
  // prepared state — it must be resolved with FinishPrepared. On failure the
  // transaction returns to the active state and may be aborted normally.
  Status Prepare(uint64_t gtxid, uint64_t coord_shard);
  // Coordinator only: durably persist the commit decision on this prepared
  // transaction's slot (the cross-shard commit point) without releasing it.
  Status PersistDecision();
  // Resolves a prepared transaction: commit queues its log slot for the
  // applier, abort rolls it back. Consumes the handle.
  Status FinishPrepared(bool commit);
  bool prepared() const { return ctx_ != nullptr && ctx_->prepared; }

  bool active() const { return ctx_ != nullptr && ctx_->active; }
  uint64_t txid() const { return ctx_ ? ctx_->txid : 0; }

  // Test-only: drops the transaction WITHOUT aborting — no rollback, no lock
  // release, the log slot stays Running. Models a process dying
  // mid-transaction; only meaningful right before a simulated crash.
  void LeakForCrashTest() {
    if (ctx_) {
      ctx_->active = false;
      ctx_.reset();
    }
  }

 private:
  friend class TxManager;
  Tx(TxManager* mgr, TxContextPtr ctx) : mgr_(mgr), ctx_(std::move(ctx)) {}

  void ReleaseReadLocks();
  // The commit-time wait: a transaction that writes returns from here only
  // once every committed writer its reads passed has been applied and has
  // released its key, so it can never reach the backup ahead of data it
  // read (DESIGN.md §12.1). kTxConflict on a lock timeout.
  Status WaitPassedWriters();
  // Destructor/move-assign path: resolves a still-owned context — prepared
  // ones via FinishPrepared (commit iff the decision record is durable,
  // presumed abort otherwise), active ones via Abort.
  void ResolveAbandoned();

  TxManager* mgr_ = nullptr;
  TxContextPtr ctx_;
};

class TxManager {
 public:
  // Formats the heap's log region and builds fresh engine state.
  static Result<std::unique_ptr<TxManager>> Create(heap::Heap* heap,
                                                   const TxManagerOptions& options);

  // Attaches to an existing log region (and backup, for Kamino engines) and
  // runs crash recovery. The post-restart path.
  static Result<std::unique_ptr<TxManager>> Open(heap::Heap* heap,
                                                 const TxManagerOptions& options);

  ~TxManager();

  // Begins a transaction. The engine attaches nothing here (the log slot is
  // acquired on the first write intent), so this does not fail today.
  Result<Tx> Begin();

  // Runs `body` in a transaction: commits if it returns OK, aborts otherwise
  // (returning the body's error). A body may also call tx.Abort() itself.
  // `body` is borrowed for the call (no std::function is built per call).
  // The commit is Tx::Commit(ack): with an ack it may be persist-behind, and
  // the caller owns the acknowledgement — nothing may be reported durable to
  // an external party before WaitCommitDurable(*ack). A body that commits
  // or aborts explicitly gets ticket 0 (its own call decided durability).
  Status Run(FunctionRef<Status(Tx&)> body, CommitAck* ack = nullptr);

  // Like Run, but retries bodies that fail with kTxConflict (lock timeout),
  // up to kMaxAttempts runs in all.
  static constexpr int kMaxAttempts = 8;
  Status RunWithRetries(FunctionRef<Status(Tx&)> body, CommitAck* ack = nullptr);

  // Blocks until all committed transactions are fully applied.
  void WaitIdle() { engine_->WaitIdle(); }

  // Blocks until the epoch drain covering `ack` has completed — the
  // acknowledgement fence of Tx::Commit(ack). The caller may be elected
  // epoch leader and pay the drain itself. Returns immediately for ticket 0
  // (commit was durable on return).
  void WaitCommitDurable(const CommitAck& ack) {
    if (ack.ticket != 0) {
      log_->EpochWait(ack.ticket);
    }
  }

  // Blocks until online recovery (background backup reconcile) has drained.
  // Returns immediately for offline recovery or non-Kamino engines.
  void WaitForRecovery() { engine_->WaitForRecovery(); }

  heap::Heap* heap() { return heap_; }
  AtomicityEngine* engine() { return engine_.get(); }
  LockManager* locks() { return locks_.get(); }
  LogManager* log() { return log_.get(); }
  BackupStore* backup_store() { return backup_store_.get(); }
  // The backup pool (Kamino engines), owned or borrowed; nullptr otherwise.
  nvm::Pool* backup_pool() { return backup_pool_; }

  struct Footprint {
    uint64_t main_bytes = 0;
    uint64_t backup_bytes = 0;
  };
  // NVM storage accounting for Table 1 / Figure 16.
  Footprint footprint() const;

 private:
  friend class Tx;

  TxManager(heap::Heap* heap, const TxManagerOptions& options);

  Status Init(bool attach_existing);

  heap::Heap* heap_;
  TxManagerOptions options_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<nvm::Pool> owned_backup_pool_;
  nvm::Pool* backup_pool_ = nullptr;
  std::unique_ptr<BackupStore> backup_store_;
  std::unique_ptr<AtomicityEngine> engine_;
  // engine_ when it is a KaminoEngine (the 2PC calls live there), else null.
  KaminoEngine* kamino_ = nullptr;
  // One global monotone counter (recovery orders by txid and reseeds it from
  // the largest recovered one). On its own line: every Begin bumps it, and
  // every operation reads the pointers above.
  alignas(kCacheLineSize) std::atomic<uint64_t> next_txid_{1};
};

}  // namespace kamino::txn

#endif  // SRC_TXN_TX_MANAGER_H_
