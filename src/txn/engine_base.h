// What the logging engines share, written once: the logged two-phase Alloc,
// the deferred Free, lazy log-slot acquisition, write-lock bookkeeping, the
// batched flush of a transaction's write set, the outcome counters, and the
// inline resolve — Commit, Abort and Recover for the engines that finish a
// transaction on the committing thread (undo, redo, CoW).
//
// The inline resolve owns every step that does not depend on the logging
// scheme: the read-only early-out, the commit record, the release tail
// (deferred frees, slot release, reservation and lock release, counters),
// the aborted record, and the recovery loop over the scanned log. The
// read-only early-out is FinishUnlogged, which Kamino's paths share. An engine
// supplies only its per-intent steps: PersistWriteSet and InstallWriteSet
// around the commit record, FinishCommitted before the slot is released,
// RollBack for aborted and unfinished transactions, RollForward for
// committed ones found in the log. Kamino and NoLogging override Commit,
// Abort and Recover with their own paths (the applier hand-off; no log).
// Every engine adds OpenWriteBatch, plus FenceRange where allocation must
// wait on recovery (Kamino). NoLoggingEngine overrides Alloc and Free with
// an unlogged pair.

#ifndef SRC_TXN_ENGINE_BASE_H_
#define SRC_TXN_ENGINE_BASE_H_

#include <atomic>

#include "src/common/checksum.h"
#include "src/common/thread_stripe.h"
#include "src/heap/heap.h"
#include "src/txn/engine.h"
#include "src/txn/lock_manager.h"
#include "src/txn/log_manager.h"

namespace kamino::txn {

class EngineBase : public AtomicityEngine {
 public:
  EngineStats stats() const override {
    EngineStats s;
    s.committed = counters_.Sum(kCommitted);
    s.aborted = counters_.Sum(kAborted);
    s.applied = counters_.Sum(kApplied);
    s.apply_batches = counters_.Sum(kApplyBatches);
    s.helper_apply_batches = counters_.Sum(kHelperApplyBatches);
    s.coalesced_ranges = counters_.Sum(kCoalescedRanges);
    s.recovered_forward = recovered_forward_.load(std::memory_order_relaxed);
    s.recovered_back = recovered_back_.load(std::memory_order_relaxed);
    if (log_ != nullptr) {
      const LogStats ls = log_->stats();
      s.log_blocked_acquires = ls.blocked_acquires;
      s.log_blocked_wait_ns = ls.blocked_wait_ns;
      s.group_commit_commits = ls.group_commit_commits;
      s.group_commit_leader_drains = ls.group_commit_leader_drains;
    }
    return s;
  }

  // Two-phase logged allocation: reserve, lock the new object (trivially
  // uncontended — it is not yet reachable), then make the kAlloc intent
  // durable *before* any persistent allocator metadata changes, so recovery
  // can always compensate.
  Result<uint64_t> Alloc(TxContext* ctx, uint64_t size) override {
    KAMINO_RETURN_IF_ERROR(EnsureSlot(ctx));
    Result<alloc::Reservation> resv = heap_->allocator()->PrepareAlloc(size);
    if (!resv.ok()) {
      return resv.status();
    }
    Status st = FenceRange(resv->offset, resv->size);
    if (st.ok()) {
      st = LockWrite(ctx, resv->offset);
    }
    if (st.ok()) {
      st = log_->AppendRecord(ctx->slot, IntentKind::kAlloc, resv->offset, resv->size);
    }
    if (!st.ok()) {
      heap_->allocator()->CancelAlloc(*resv);
      return st;
    }
    heap_->allocator()->CommitAlloc(*resv);
    ctx->AddOpenIntent(Intent{IntentKind::kAlloc, resv->offset, resv->size, 0});
    return resv->offset;
  }

  // Deferred free: the record is appended with drain=false. The free runs
  // only after commit, so the record matters only if the transaction
  // commits — and the commit-point drain (or any earlier append's drain)
  // makes it durable by then. A lost kFree record means a never-performed
  // free, never corruption (DESIGN.md §8).
  Status Free(TxContext* ctx, uint64_t offset) override {
    KAMINO_RETURN_IF_ERROR(EnsureSlot(ctx));
    Result<uint64_t> size = ResolveSize(offset, 0);
    if (!size.ok()) {
      return size.status();
    }
    KAMINO_RETURN_IF_ERROR(LockWrite(ctx, offset));
    KAMINO_RETURN_IF_ERROR(log_->AppendRecord(ctx->slot, IntentKind::kFree, offset, *size, 0,
                                              /*drain=*/false));
    ctx->intents.push_back(Intent{IntentKind::kFree, offset, *size, 0});
    return Status::Ok();
  }

  // The inline resolve. Commit: PersistWriteSet, the commit record,
  // InstallWriteSet, FinishCommitted per intent, slot release, then the
  // deferred frees' reservations and the write locks. Durable on return, so
  // `ack` is left as the caller set it.
  Status Commit(TxContext* ctx, CommitAck* ack) override;
  // The aborted record, RollBack per intent (newest first) under
  // `abort_site`, slot release, lock release.
  Status Abort(TxContext* ctx) override;
  // One pass over the scanned log: RollForward per intent of a committed
  // transaction, RollBack per intent of any other (newest first, unless the
  // engine rolls back oldest first), then the slot is released. The first
  // error stops the pass with the failing slot still held.
  Status Recover() override;

 protected:
  // `abort_site` tags live Abort's rollback (nullptr: the caller's tag).
  // `recover_oldest_first` walks an unfinished transaction's intents in
  // append order during recovery, instead of newest first as Abort does.
  EngineBase(heap::Heap* heap, LogManager* log, LockManager* locks,
             const char* abort_site = nullptr, bool recover_oldest_first = false)
      : heap_(heap),
        log_(log),
        locks_(locks),
        abort_site_(abort_site),
        recover_oldest_first_(recover_oldest_first) {}

  // --- Per-intent steps of the inline resolve -------------------------------
  // Makes the write set durable ahead of the commit record. Default: the
  // in-place write set (FlushWriteRanges).
  virtual void PersistWriteSet(TxContext* ctx) { FlushWriteRanges(ctx); }
  // Runs right after the commit record. Default: nothing is staged.
  virtual void InstallWriteSet(TxContext* ctx) { (void)ctx; }
  // Finishes one intent of a committed transaction before its slot is
  // released. Default: performs a deferred free, keeping the block reserved
  // until the slot release is durable.
  virtual Status FinishCommitted(const Intent& in);
  // Undoes one intent of a transaction that did not commit, live or found
  // by recovery. Default: frees an allocation.
  virtual Status RollBack(const Intent& in);
  // Redoes one intent of a committed transaction recovery found unreleased.
  // Default: re-executes a deferred free.
  virtual Status RollForward(const Intent& in);

  // Redo and CoW: flushes every `staged` intent's copy (at aux) and every
  // object allocated in the transaction, then drains once, under `site`.
  void FlushStaged(TxContext* ctx, IntentKind staged, const char* site);
  // Redo and CoW: copies every `staged` intent's copy over its original,
  // flushing each, then drains once, under `site`.
  void InstallStaged(TxContext* ctx, IntentKind staged, const char* site);
  // Recovery's single-intent install: copy aux over the original, persist.
  void InstallOne(const Intent& in);

  nvm::Pool* pool() { return heap_->pool(); }

  // Blocks until [offset, offset+size) may be stored to. Alloc calls it
  // between reserving the new object and locking it; only Kamino's online
  // recovery has ranges to wait on.
  virtual Status FenceRange(uint64_t offset, uint64_t size) {
    (void)offset;
    (void)size;
    return Status::Ok();
  }

  // Log slots are acquired lazily on the first write intent: read-only
  // transactions (the bulk of YCSB B/C/D) never touch the log at all, as in
  // NVML, and never involve the asynchronous applier.
  Status EnsureSlot(TxContext* ctx) {
    if (ctx->slot.valid()) {
      return Status::Ok();
    }
    Result<SlotHandle> slot = log_->AcquireSlot(ctx->txid);
    if (!slot.ok()) {
      return slot.status();
    }
    ctx->slot = *slot;
    return Status::Ok();
  }

  // Resolves a caller-supplied size: 0 means "the whole object at offset".
  Result<uint64_t> ResolveSize(uint64_t offset, uint64_t size) {
    if (size != 0) {
      return size;
    }
    const uint64_t object = heap_->ObjectSize(offset);
    if (object == 0) {
      return Status::InvalidArgument("offset is not an allocation start; pass a size");
    }
    return object;
  }

  // Acquires the write lock on `key` and records it for release.
  Status LockWrite(TxContext* ctx, uint64_t key) {
    Status st = locks_->AcquireWrite(key, ctx->txid);
    if (!st.ok()) {
      return st;
    }
    ctx->write_lock_keys.push_back(key);
    return Status::Ok();
  }

  void ReleaseWriteLocks(TxContext* ctx) {
    for (uint64_t key : ctx->write_lock_keys) {
      locks_->ReleaseWrite(key, ctx->txid);
    }
    ctx->write_lock_keys.clear();
  }

  // Flushes every kWrite/kAlloc range in the write set, then drains once.
  // This is the only data-persistence work common to all engines' commits.
  void FlushWriteRanges(TxContext* ctx) {
    nvm::PersistSiteScope site("engine/flush-write-set");
    bool flushed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kWrite || in.kind == IntentKind::kAlloc) {
        pool()->Flush(pool()->At(in.offset), in.size);
        flushed = true;
      }
    }
    if (flushed) {
      pool()->Drain();
    }
  }

  // Epoch-commit variant: flushes the write set WITHOUT draining (the epoch
  // drain covers it) and computes the CRC the checked commit record carries
  // — recovery's roll-forward gate. Returns the CRC; `*range_count` gets the
  // number of kWrite/kAlloc ranges, in intent order — the same order
  // ScanForRecovery recomputes in.
  uint64_t FlushWriteRangesChecked(TxContext* ctx, uint64_t* range_count) {
    nvm::PersistSiteScope site("engine/flush-write-set");
    uint64_t crc = 0;
    uint64_t ranges = 0;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kWrite || in.kind == IntentKind::kAlloc) {
        void* p = pool()->At(in.offset);
        pool()->Flush(p, in.size);
        crc = Crc64(p, in.size, crc);
        ++ranges;
      }
    }
    *range_count = ranges;
    return crc;
  }

  heap::Heap* heap_;
  LogManager* log_;
  LockManager* locks_;
  const char* const abort_site_;
  const bool recover_oldest_first_;

  // Outcome counts, bumped once per transaction by every client (and, for
  // kApplied, by appliers and helping clients), and the Kamino applier's
  // batch counts (EngineStats has their meaning): striped per thread.
  enum Counter : size_t {
    kCommitted, kAborted, kApplied, kApplyBatches, kHelperApplyBatches, kCoalescedRanges,
    kNumCounters
  };

  // The read-only early-out of every logged Commit and Abort: a transaction
  // that never took a log slot persisted nothing, so it only releases its
  // write locks and counts `outcome`. Returns false, doing nothing, when
  // the transaction holds a slot.
  bool FinishUnlogged(TxContext* ctx, Counter outcome) {
    if (ctx->slot.valid()) {
      return false;
    }
    ReleaseWriteLocks(ctx);
    counters_.Add(outcome);
    return true;
  }

  StripedCounters<kNumCounters> counters_;
  std::atomic<uint64_t> recovered_forward_{0};
  std::atomic<uint64_t> recovered_back_{0};
};

}  // namespace kamino::txn

#endif  // SRC_TXN_ENGINE_BASE_H_
