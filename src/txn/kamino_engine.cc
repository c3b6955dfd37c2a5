#include "src/txn/kamino_engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstring>

namespace kamino::txn {

KaminoEngine::KaminoEngine(heap::Heap* heap, LogManager* log, LockManager* locks,
                           BackupStore* store, bool dynamic, int applier_threads,
                           RecoveryOptions recovery)
    : EngineBase(heap, log, locks), store_(store), dynamic_(dynamic), recovery_(recovery) {
  if (applier_threads < 1) {
    applier_threads = 1;
  }
  shards_.reserve(static_cast<size_t>(applier_threads));
  appliers_.reserve(static_cast<size_t>(applier_threads));
  for (int i = 0; i < applier_threads; ++i) {
    shards_.push_back(std::make_unique<ApplierShard>(static_cast<size_t>(log_->num_slots())));
  }
  for (int i = 0; i < applier_threads; ++i) {
    appliers_.emplace_back([this, i] { ApplierLoop(static_cast<size_t>(i)); });
  }
  // Cooperative apply (DESIGN.md §6): write locks are held until the backup
  // apply, so a blocked acquirer is usually waiting on a committed but
  // not-yet-applied writer. The waiter runs the applier's batch step itself
  // instead of sleeping until an applier thread reaches its blocker. Under
  // the epoch pipeline the blocker may also be parked in the open epoch, and
  // with every client blocked nobody else would seal it — HelpApply drains
  // the epoch first (a no-op once it is durable).
  if (locks_ != nullptr) {
    locks_->SetContentionHook([this](bool waiting) { return HelpApply(waiting); });
  }
  // Seed the backup-read cut from the durable stamp (zero on Create). Every
  // apply batch advances it from here, recovery's roll-forward included.
  if (store_ != nullptr && log_ != nullptr) {
    const uint64_t seed = log_->backup_epoch();
    store_->InitCutEpoch(seed);
    cut_released_.store(seed, std::memory_order_relaxed);
  }
}

KaminoEngine::~KaminoEngine() {
  // Reconcilers go first: they may still be fencing handed-off contexts
  // through the appliers, so the applier pool must outlive them.
  reconcile_stop_.store(true, std::memory_order_seq_cst);
  for (auto& t : reconcilers_) {
    t.join();
  }
  {
    std::lock_guard<std::mutex> lk(reconcile_done_mu_);
  }
  reconcile_done_cv_.notify_all();

  // Seal any open epoch: parked durability callbacks own committed contexts,
  // and must run before the applier pool shuts down. With the appliers
  // paused the contexts merely land in the shard queues and are freed with
  // them — no leak either way.
  if (log_ != nullptr && log_->epoch_commit()) {
    log_->DrainEpoch();
  }

  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
  }
  for (auto& shard : shards_) {
    shard->cv.notify_all();
  }
  for (auto& t : appliers_) {
    t.join();
  }
  if (locks_ != nullptr) {
    locks_->SetContentionHook(nullptr);
  }
}

Status KaminoEngine::OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                    void** out) {
  // One intent-record flush per span, a single drain for the whole batch,
  // and only then are the write-through pointers released to the caller —
  // every record is durable before the first in-place store can happen.
  // Declaring write intent = taking the object lock (paper §3): a span whose
  // object is pending (a prior transaction's backup sync is outstanding)
  // blocks here — the dependent-transaction wait.
  bool appended = false;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t offset = spans[i].offset;
    out[i] = nullptr;
    if (ctx->FindOpen(offset) != nullptr) {
      continue;  // Already open (possibly via Alloc or an earlier span).
    }
    Result<uint64_t> resolved = ResolveSize(offset, spans[i].size);
    if (!resolved.ok()) {
      return resolved.status();
    }
    const uint64_t size = *resolved;
    // Online recovery: the range's backup chunks must be reconciled before
    // the pre-image below can be trusted (free once the map has drained).
    KAMINO_RETURN_IF_ERROR(FenceRange(offset, size));
    KAMINO_RETURN_IF_ERROR(EnsureSlot(ctx));
    KAMINO_RETURN_IF_ERROR(LockWrite(ctx, offset));
    // A consistent pre-transaction copy must exist before the first in-place
    // store. Free for the full backup; a critical-path copy on a dynamic miss.
    KAMINO_RETURN_IF_ERROR(store_->EnsureBackupCopy(offset, size, /*pin=*/true));
    Status st = log_->AppendRecord(ctx->slot, IntentKind::kWrite, offset, size, 0,
                                   /*drain=*/false);
    if (!st.ok()) {
      // The intent never existed, so Abort will not unpin this range — drop
      // the pin here or the copy is stuck unevictable forever.
      store_->Unpin(offset);
      return st;
    }
    // Record the intent immediately so a failure on a later span leaves
    // every appended span visible to Abort's rollback/unpin.
    ctx->AddOpenIntent(Intent{IntentKind::kWrite, offset, size, 0});
    appended = true;
  }
  if (appended) {
    log_->DrainAppends();
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = pool()->At(spans[i].offset);
  }
  return Status::Ok();
}

void KaminoEngine::EnqueueCommitted(TxContextPtr ctx) {
  ApplierShard& shard =
      *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size()];
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    // Every queued context holds a log slot, so this shard holds at most
    // num_slots of them and the ring cannot be full.
    assert(shard.enqueued - shard.claimed < shard.ring_size);
    shard.ring[shard.enqueued % shard.ring_size] = std::move(ctx);
    ++shard.enqueued;
  }
  shard.cv.notify_one();
}

void KaminoEngine::MarkCommitted(const TxContext* ctx) {
  for (uint64_t key : ctx->write_lock_keys) {
    locks_->MarkCommitted(key, ctx->txid);
  }
}

Status KaminoEngine::Commit(TxContextPtr ctx, CommitAck* ack) {
  if (!ctx->slot.valid()) {
    // Read-only transaction: nothing persistent happened; no applier trip.
    ReleaseWriteLocks(ctx.get());
    counters_.Add(kCommitted);
    return Status::Ok();
  }
  if (!log_->epoch_commit()) {
    // PR 4 schedule: write-set drain, then the commit record's group-commit
    // drain. Durable before the applier ever sees the context.
    // 1. Make the in-place edits durable (batched: one drain).
    FlushWriteRanges(ctx.get());
    // 2. Durable commit point: readers may pass the write locks from here.
    log_->SetState(ctx->slot, TxState::kCommitted);
    MarkCommitted(ctx.get());
    counters_.Add(kCommitted);
    // 3. Hand the context to the asynchronous Transaction Coordinator. The
    //    write locks remain held until the backup is in sync — the
    //    transaction itself is done: no data was copied on this thread.
    //    Round-robin across applier shards; the disjoint-write-set invariant
    //    makes the resulting cross-shard apply order irrelevant.
    ctx->commit_enqueue_ns = stats::NowNanos();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    EnqueueCommitted(std::move(ctx));
    return Status::Ok();
  }
  // Epoch pipeline (DESIGN.md §8): flush everything, drain nothing — the
  // commit is in DRAM order once the checked mark is staged, and exactly one
  // shared epoch drain ("log/epoch-drain") later covers intents, write set
  // and mark together. The mark carries the write-set CRC so recovery can
  // tell a durable commit from a mark that leaked ahead of torn data.
  uint64_t ranges = 0;
  const uint64_t crc = FlushWriteRangesChecked(ctx.get(), &ranges);
  log_->SetCommittedChecked(ctx->slot, crc, ranges);
  counters_.Add(kCommitted);
  ctx->commit_enqueue_ns = stats::NowNanos();
  // Counted here, not in the callback: WaitIdle must see this transaction as
  // in flight from the moment it committed, even while its epoch is open.
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  // The applier consumes only durable epochs: the enqueue lives in the
  // durability callback, run by the epoch leader after the covering drain —
  // the backup can never run ahead of the log. The callback owns the context
  // (released to a raw pointer: std::function requires copyable captures)
  // and runs exactly once; WaitIdle/shutdown seal the epoch via DrainEpoch.
  // The callback may run (on a concurrent leader) before RegisterEpochCommit
  // returns here — `raw` must not be touched after this call. Readers pass
  // the write locks only from the callback on, once the commit is durable.
  TxContext* raw = ctx.release();
  const uint64_t ticket = log_->RegisterEpochCommit([this, raw] {
    MarkCommitted(raw);
    EnqueueCommitted(TxContextPtr(raw));
  });
  if (ack != nullptr) {
    // DRAM-commit return: the caller acknowledges only after
    // TxManager::WaitCommitDurable(ack). Dependent transactions are gated
    // structurally — write locks release only after the durability-gated
    // backup apply.
    ack->ticket = ticket;
    return Status::Ok();
  }
  log_->EpochWait(ticket);
  return Status::Ok();
}

Status KaminoEngine::Prepare(TxContext* ctx, uint64_t gtxid, uint64_t coord_shard) {
  ctx->gtxid = gtxid;
  ctx->coord_shard = coord_shard;
  if (ctx->slot.valid()) {
    // Same critical-path persistence as Commit, except the durable mark is a
    // prepared record (carrying the coordinator pointer) instead of a commit
    // record. The write set is already in the log — no data is copied.
    FlushWriteRanges(ctx);
    log_->SetPrepared(ctx->slot, gtxid, coord_shard);
  }
  // Read-only participants have nothing in doubt: no slot, no record — the
  // vote is an implicit yes and FinishPrepared only releases locks.
  ctx->prepared = true;
  return Status::Ok();
}

Status KaminoEngine::PersistDecision(TxContext* ctx) {
  if (!ctx->prepared) {
    return Status::InvalidArgument("decision on an unprepared context");
  }
  if (ctx->slot.valid()) {
    log_->SetDecision(ctx->slot);
  }
  // The context is deliberately NOT handed to the applier here: the
  // coordinator's slot is the decision record every participant's recovery
  // consults, so it must stay occupied (un-releasable) until all participants
  // have durably left kPrepared. The caller enqueues it via FinishPrepared
  // once that holds.
  ctx->decided = true;
  return Status::Ok();
}

Status KaminoEngine::FinishPrepared(TxContextPtr ctx, bool commit) {
  if (!ctx->prepared) {
    return Status::InvalidArgument("finish on an unprepared context");
  }
  if (!commit) {
    // Prepared-then-aborted rolls back exactly like a live abort: the
    // prepared slot takes a durable Aborted mark, the backup restores the
    // pre-images, locks and slot are released.
    return Abort(ctx.get());
  }
  if (!ctx->slot.valid()) {
    ReleaseWriteLocks(ctx.get());
    counters_.Add(kCommitted);
    return Status::Ok();
  }
  if (!ctx->decided) {
    // Participant: durably convert the prepared record into a commit record
    // so this shard's recovery no longer depends on the coordinator.
    log_->SetState(ctx->slot, TxState::kCommitted);
  }
  // The decision (or the commit record above) is durable: same tail as
  // Commit — readers may pass the write locks, count it and hand the
  // context to the Transaction Coordinator.
  MarkCommitted(ctx.get());
  counters_.Add(kCommitted);
  ctx->commit_enqueue_ns = stats::NowNanos();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  EnqueueCommitted(std::move(ctx));
  return Status::Ok();
}

Status KaminoEngine::ApplyCommitted(TxContext* ctx) {
  // Roll the whole write set forward in one batched apply: per-range flushes
  // and a single drain inside the store, instead of a full Persist per
  // object.
  nvm::PersistSiteScope site("applier/roll-forward");
  // Scratch kept across transactions so the apply allocates nothing. It is
  // per thread, not per applier shard: a helper and the shard's own applier
  // may be applying two batches claimed from one shard at the same time.
  thread_local std::vector<ApplyRange> ranges;
  ranges.clear();
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kWrite || in.kind == IntentKind::kAlloc) {
      ranges.push_back(ApplyRange{in.offset, in.size});
    }
  }
  Status result = Status::Ok();
  if (!ranges.empty()) {
    // Handed-off recovered transactions reach the applier without a fenced
    // OpenWrite, so their ranges may still be dirty: a concurrent background
    // reconcile of the same chunk would race with the apply's backup writes.
    // (Foreground transactions fenced at OpenWrite; this hits the lock-free
    // clean fast path.)
    for (const ApplyRange& r : ranges) {
      (void)FenceRange(r.offset, r.size);
    }
    uint64_t coalesced = 0;
    result = store_->ApplyBatchFromMain(&ranges, &coalesced);
    apply_batches_.fetch_add(1, std::memory_order_relaxed);
    coalesced_ranges_.fetch_add(coalesced, std::memory_order_relaxed);
  }
  for (const Intent& in : ctx->intents) {
    switch (in.kind) {
      case IntentKind::kWrite:
        store_->Unpin(in.offset);
        break;
      case IntentKind::kFree: {
        store_->Invalidate(in.offset);
        Status st = heap_->allocator()->FreeRawKeepReserved(in.offset);
        if (!st.ok() && result.ok()) {
          result = st;
        }
        break;
      }
      default:
        break;
    }
  }
  // The batch apply has returned, so the backup is durable — the caller may
  // now release the slot (a crash before that re-rolls the transaction
  // forward, which is idempotent). Slot release and the post-release steps
  // live in FinishApplied so ApplyBatch can share one release fence across
  // a whole batch of transactions (LogManager::ReleaseSlots).
  return result;
}

void KaminoEngine::FinishApplied(TxContext* ctx) {
  // Freed objects become reusable only after the intent log no longer refers
  // to them (a recovered re-free must never hit a re-allocated object).
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kFree) {
      heap_->allocator()->ReleaseReservation(in.offset);
    }
  }
  ReleaseWriteLocks(ctx);
  counters_.Add(kApplied);
  if (ctx->commit_enqueue_ns != 0) {
    apply_lag_.Record(stats::NowNanos() - ctx->commit_enqueue_ns);
  }
}

size_t KaminoEngine::DrainBatch(ApplierShard& shard) {
  std::array<TxContextPtr, kMaxApplyBatch> batch;
  size_t n = 0;
  uint64_t first = 0;
  {
    // Leaving the queue under shard.mu is the whole claim protocol: exactly
    // one thread — applier or helper — ever holds a given context. A paused
    // engine hands out nothing, so crash tests keep their frozen
    // committed-but-unapplied window even while dependents are blocked.
    std::lock_guard<std::mutex> lk(shard.mu);
    if (paused_.load(std::memory_order_relaxed)) {
      return 0;
    }
    while (shard.claimed + n < shard.enqueued && n < kMaxApplyBatch) {
      batch[n] = std::move(shard.ring[(shard.claimed + n) % shard.ring_size]);
      ++n;
    }
    if (n == 0) {
      return 0;
    }
    first = shard.claimed;
    shard.claimed += n;
    shard.active.push_back(first);
  }
  // A failed apply leaves a dynamic-store miss, and a miss means main is
  // authoritative; the batch finishes either way (see ApplyBatch).
  (void)ApplyBatch(batch.data(), n);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.active.erase(std::find(shard.active.begin(), shard.active.end(), first));
    const uint64_t through =
        shard.active.empty() ? shard.claimed
                             : *std::min_element(shard.active.begin(), shard.active.end());
    shard.applied_through.store(through, std::memory_order_release);
  }
  // The decrement happens under idle_mu_ so a WaitIdle caller that observes
  // in_flight_ == 0 also inherits a happens-before edge from the batch's
  // ReleaseSlots/FinishApplied writes (e.g. a state-transfer snapshot
  // reading the pool right after WaitIdle returns).
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    in_flight_.fetch_sub(n, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
  return n;
}

Status KaminoEngine::ApplyBatch(TxContextPtr* batch, size_t n) {
  assert(n <= kMaxApplyBatch);
  std::array<SlotHandle, kMaxApplyBatch> slots;
  Status result = Status::Ok();
  // Apply batches run strictly between snapshot views (the BackupStore cut
  // gate), so any state a backup reader observes lies on a transaction
  // boundary — the epoch-cut invariant (DESIGN.md §12).
  store_->EnterApplyCut();
  for (size_t i = 0; i < n; ++i) {
    Status st = ApplyCommitted(batch[i].get());
    if (!st.ok() && result.ok()) {
      result = st;
    }
    slots[i] = batch[i]->slot;
    batch[i]->slot = SlotHandle{};
  }
  store_->ExitApplyCut();
  // Every backup apply in the batch is durable; one shared fence frees all
  // the slots (see LogManager::ReleaseSlots for the ordering argument). A
  // failed apply releases its slot too: keeping it while FinishApplied drops
  // the write locks would let a new writer overlap a slot that replay still
  // holds, breaking the disjoint-write-set invariant (DESIGN.md §6, §10).
  log_->ReleaseSlots(slots.data(), n);
  // Stamp the cut only after the slots are durably released: a crash from
  // here on may undercount the stamp (a safe floor — recovery re-rolls
  // exactly the unreleased slots, never anything the stamp counts) but can
  // never overcount it. SetBackupEpoch is a monotone ratchet, so concurrent
  // batches (applier shards, helpers, recovery workers) publish in any order
  // without regressing the frontier.
  const uint64_t epoch = cut_released_.fetch_add(n, std::memory_order_acq_rel) + n;
  log_->SetBackupEpoch(epoch);
  store_->PublishCutEpoch(epoch);
  for (size_t i = 0; i < n; ++i) {
    FinishApplied(batch[i].get());
  }
  return result;
}

void KaminoEngine::ApplierLoop(size_t shard_index) {
  ApplierShard& shard = *shards_[shard_index];
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(shard.mu);
      shard.cv.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               (!paused_.load(std::memory_order_relaxed) && shard.claimed != shard.enqueued);
      });
      // Drain remaining work on shutdown unless a crash test froze the
      // applier with PauseApplier.
      if (stop_.load(std::memory_order_relaxed) &&
          (shard.claimed == shard.enqueued || paused_.load(std::memory_order_relaxed))) {
        return;
      }
    }
    // Zero when a helper claimed the work first; wait again.
    (void)DrainBatch(shard);
  }
}

bool KaminoEngine::HelpApply(bool waiting) {
  if (waiting && log_->epoch_commit()) {
    log_->DrainEpoch();
  }
  bool applied = false;
  for (auto& shard : shards_) {
    if (DrainBatch(*shard) > 0) {
      helper_apply_batches_.fetch_add(1, std::memory_order_relaxed);
      applied = true;
    }
  }
  return applied;
}

void KaminoEngine::SyncCut() {
  if (log_->epoch_commit()) {
    // Seals the open epoch and returns once every commit up to the seal has
    // been handed to the applier queues.
    log_->DrainEpoch();
  }
  for (auto& shard_ptr : shards_) {
    ApplierShard& shard = *shard_ptr;
    uint64_t target = 0;
    {
      std::lock_guard<std::mutex> lk(shard.mu);
      target = shard.enqueued;
    }
    while (shard.applied_through.load(std::memory_order_acquire) < target) {
      if (DrainBatch(shard) > 0) {
        helper_apply_batches_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Nothing to claim: the queue is empty, so every context below the
      // target is in a batch another thread is applying, and that batch's
      // finish notifies idle_cv_ (or the engine is paused).
      std::unique_lock<std::mutex> lk(idle_mu_);
      idle_cv_.wait(lk, [&] {
        return paused_.load(std::memory_order_relaxed) ||
               shard.applied_through.load(std::memory_order_acquire) >= target;
      });
      if (paused_.load(std::memory_order_relaxed)) {
        return;
      }
    }
  }
}

void KaminoEngine::WaitIdle() {
  if (log_ != nullptr && log_->epoch_commit()) {
    // Seal the open epoch first: parked durability callbacks hold committed
    // contexts that are already counted in in_flight_ but have not reached
    // the appliers yet — waiting without sealing could block forever.
    log_->DrainEpoch();
  }
  std::unique_lock<std::mutex> lk(idle_mu_);
  idle_cv_.wait(lk, [&] {
    return paused_.load(std::memory_order_relaxed) ||
           in_flight_.load(std::memory_order_relaxed) == 0;
  });
}

void KaminoEngine::PauseApplier(bool paused) {
  paused_.store(paused, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
  }
  for (auto& shard : shards_) {
    shard->cv.notify_all();
  }
  { std::lock_guard<std::mutex> lk(idle_mu_); }
  idle_cv_.notify_all();
}

void KaminoEngine::DiscardPendingForCrashTest() {
  uint64_t discarded = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    discarded += shard->enqueued - shard->claimed;
    // Dropped contexts count as claimed, so the applied watermark moves past
    // them once the batches in flight finish.
    for (; shard->claimed < shard->enqueued; ++shard->claimed) {
      shard->ring[shard->claimed % shard->ring_size].reset();
    }
    if (shard->active.empty()) {
      shard->applied_through.store(shard->claimed, std::memory_order_release);
    }
  }
  // A WaitIdle caller may be blocked on exactly the work just discarded; the
  // decrement goes under idle_mu_ for the same reason as in DrainBatch.
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    in_flight_.fetch_sub(discarded, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
}

EngineStats KaminoEngine::stats() const {
  EngineStats s = EngineBase::stats();
  s.applier_queue_depth = in_flight_.load(std::memory_order_relaxed);
  s.apply_batches = apply_batches_.load(std::memory_order_relaxed);
  s.helper_apply_batches = helper_apply_batches_.load(std::memory_order_relaxed);
  s.coalesced_ranges = coalesced_ranges_.load(std::memory_order_relaxed);
  if (apply_lag_.count() > 0) {
    s.apply_lag_p50_ns = apply_lag_.PercentileNs(50.0);
    s.apply_lag_p99_ns = apply_lag_.PercentileNs(99.0);
  }
  s.recovery_replay_ns = recovery_replay_ns_;
  if (dirty_map_ != nullptr) {
    const DirtyMapStats d = dirty_map_->stats();
    s.recovery_dirty_chunks = d.initially_dirty;
    s.recovery_dirty_chunks_left = d.dirty_remaining;
    s.recovery_fence_waits = d.fence_waits;
    s.recovery_ondemand_reconciles = d.ondemand_reconciles;
  }
  s.recovery_reconciled_bytes = reconciled_bytes_.load(std::memory_order_relaxed);
  if (log_ != nullptr) {
    s.backup_epoch = log_->backup_epoch();
  }
  if (store_ != nullptr) {
    const BackupStats b = store_->stats();
    s.backup_read_hits = b.read_hits;
    s.backup_read_misses = b.read_misses;
    s.backup_snapshot_views = b.snapshot_views;
    s.backup_cut_fence_waits = b.cut_fence_waits;
  }
  return s;
}

Status KaminoEngine::Abort(TxContext* ctx) {
  if (!ctx->slot.valid()) {
    ReleaseWriteLocks(ctx);
    counters_.Add(kAborted);
    return Status::Ok();
  }
  log_->SetState(ctx->slot, TxState::kAborted);
  nvm::PersistSiteScope site("engine/abort-rollback");
  // Roll the main version back from the backup, newest intent first. A
  // failed restore must not short-circuit the loop: the remaining intents
  // still need their rollback/unpin, and the slot and write locks must be
  // released regardless (an early return here used to leak both, wedging
  // every dependent transaction). Best effort; first error wins.
  Status result = Status::Ok();
  for (auto it = ctx->intents.rbegin(); it != ctx->intents.rend(); ++it) {
    switch (it->kind) {
      case IntentKind::kWrite: {
        Status st = store_->RestoreToMain(it->offset, it->size);
        store_->Unpin(it->offset);
        if (!st.ok() && result.ok()) {
          result = st;
        }
        break;
      }
      case IntentKind::kAlloc: {
        Status st = heap_->allocator()->FreeRaw(it->offset);
        if (!st.ok() && result.ok()) {
          result = st;
        }
        break;
      }
      case IntentKind::kFree:
        break;  // Deferred; nothing happened.
      default:
        break;
    }
  }
  log_->ReleaseSlot(ctx->slot);
  ReleaseWriteLocks(ctx);
  counters_.Add(kAborted);
  return result;
}

// --- Recovery pipeline (DESIGN.md §10) ---------------------------------------

Status KaminoEngine::RollBackRecovered(const RecoveredTx& tx) {
  // Running or aborted: incomplete transactions are treated as aborted
  // (paper §3) — restore the pre-transaction values from the backup, newest
  // intent first. Same continue-and-aggregate discipline as Abort().
  Status result = Status::Ok();
  for (auto it = tx.intents.rbegin(); it != tx.intents.rend(); ++it) {
    Status st = Status::Ok();
    switch (it->kind) {
      case IntentKind::kWrite:
        st = store_->RestoreToMain(it->offset, it->size);
        break;
      case IntentKind::kAlloc:
        st = heap_->allocator()->FreeRaw(it->offset);
        break;
      case IntentKind::kFree:
        break;
      default:
        break;
    }
    if (!st.ok() && result.ok()) {
      result = st;
    }
  }
  return result;
}

Result<TxContextPtr> KaminoEngine::BuildHandoff(const RecoveredTx& tx) {
  TxContextPtr ctx = NewTxContext();
  ctx->txid = tx.txid;
  ctx->slot = log_->HandleForRecovered(tx);
  ctx->intents = tx.intents;
  // Re-acquire the write locks the transaction held at crash time so
  // dependent transactions block until the applier has synced the backup —
  // exactly the pre-crash protocol. Acquisition is re-entrant per txid, so
  // duplicate offsets across intents are harmless; contention is impossible
  // (recovered write sets are pairwise disjoint and the engine is not yet
  // serving), so a failure here is exceptional.
  for (const Intent& in : tx.intents) {
    Status st = locks_->AcquireWrite(in.offset, tx.txid);
    if (!st.ok()) {
      for (uint64_t key : ctx->write_lock_keys) {
        locks_->ReleaseWrite(key, tx.txid);
      }
      return st;
    }
    ctx->write_lock_keys.push_back(in.offset);
  }
  return ctx;
}

Status KaminoEngine::ReplayPartition(const std::vector<RecoveredTx>& txs,
                                     std::vector<TxContextPtr>* handoff) {
  Status result = Status::Ok();
  auto keep_first = [&result](const Status& st) {
    if (!st.ok() && result.ok()) {
      result = st;
    }
  };
  for (const RecoveredTx& tx : txs) {
    if (tx.state == TxState::kPrepared) {
      // In doubt: the outcome lives in the coordinator shard's decision
      // record, which a standalone engine cannot consult — and the main heap
      // holds the transaction's uncommitted in-place data, so neither rolling
      // forward nor back is safe unilaterally. Keep the slot and report;
      // ShardedStore::Open durably resolves every in-doubt slot across all
      // shards *before* running per-shard recovery (DESIGN.md §11).
      keep_first(Status::Unavailable(
          "in-doubt prepared transaction requires sharded open to resolve"));
      continue;
    }
    if (tx.state == TxState::kCommitted) {
      // Rolled forward by the applier's batch step, like a live commit: the
      // context holds the slot and the write locks until its batch is done.
      Result<TxContextPtr> ctx = BuildHandoff(tx);
      if (!ctx.ok()) {
        // Keep the slot: the next Recover() (or a retry) must see it again.
        // The rest are unaffected — their write sets are disjoint.
        keep_first(ctx.status());
        continue;
      }
      handoff->push_back(std::move(*ctx));
      recovered_forward_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Status st = RollBackRecovered(tx);
    if (!st.ok()) {
      keep_first(st);
      continue;
    }
    recovered_back_.fetch_add(1, std::memory_order_relaxed);
    SlotHandle handle = log_->HandleForRecovered(tx);
    log_->ReleaseSlot(handle);
  }
  if (!recovery_.online) {
    // Offline, the worker applies its own contexts before it returns, on its
    // own thread and never through a shard queue: background appliers cannot
    // race for the backlog, and one worker's event stream is deterministic.
    for (size_t i = 0; i < handoff->size(); i += kMaxApplyBatch) {
      keep_first(ApplyBatch(handoff->data() + i, std::min(kMaxApplyBatch, handoff->size() - i)));
    }
    handoff->clear();
  }
  return result;
}

void KaminoEngine::BuildDirtyMap() {
  const alloc::Allocator* allocator = heap_->allocator();
  dirty_map_ = std::make_unique<DirtyMap>(allocator->region_offset(), allocator->region_size(),
                                          recovery_.reconcile_chunk_bytes);
  const uint64_t num_chunks = dirty_map_->num_chunks();
  chunk_objects_.assign(num_chunks, {});
  // Snapshot the live allocations *after* replay: rolled-back allocations are
  // gone, recovered frees are applied. The snapshot is what reconcile copies;
  // objects allocated after the engine opens are synced by the normal applier
  // path (their chunks are fenced clean at Alloc time first).
  heap_->allocator()->ForEachAllocation([&](uint64_t offset, uint64_t size) {
    chunk_objects_[dirty_map_->chunk_of(offset)].push_back(ApplyRange{offset, size});
  });

  // Resume from the persisted frontier of an interrupted sweep: chunks below
  // it stayed consistent across the crash (replay only re-applies ranges in
  // ways that preserve mirror equality — see DESIGN.md §10). kReconcileDone
  // means no sweep was in progress; this sweep starts from scratch.
  uint64_t resume = log_->reconcile_cursor();
  if (resume == LogManager::kReconcileDone) {
    resume = 0;
    log_->SetReconcileCursor(0);  // The sweep is now (durably) in progress.
  }
  for (uint64_t c = 0; c < num_chunks; ++c) {
    if (c < resume || chunk_objects_[c].empty()) {
      dirty_map_->MarkCleanInitial(c);
    }
  }
  dirty_map_->Seal();
  {
    std::lock_guard<std::mutex> lk(cursor_mu_);
    last_persisted_cursor_ = resume;
  }
}

Status KaminoEngine::ReconcileChunk(uint64_t chunk) {
  Result<uint64_t> bytes = store_->ReconcileRanges(chunk_objects_[chunk]);
  if (!bytes.ok()) {
    return bytes.status();
  }
  reconciled_bytes_.fetch_add(*bytes, std::memory_order_relaxed);
  return Status::Ok();
}

Status KaminoEngine::FenceRange(uint64_t offset, uint64_t size) {
  if (!reconcile_active_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  return dirty_map_->EnsureClean(offset, size,
                                 [this](uint64_t chunk) { return ReconcileChunk(chunk); });
}

void KaminoEngine::MaybePersistCursor() {
  std::lock_guard<std::mutex> lk(cursor_mu_);
  const uint64_t frontier = dirty_map_->clean_frontier();
  if (frontier > last_persisted_cursor_) {
    log_->SetReconcileCursor(frontier);
    last_persisted_cursor_ = frontier;
  }
}

void KaminoEngine::FinishReconcile() {
  {
    std::lock_guard<std::mutex> lk(reconcile_done_mu_);
    if (reconcile_finished_) {
      return;
    }
    reconcile_finished_ = true;
  }
  // Every chunk is clean: the mirror is whole again. Clear the persistent
  // cursor *after* the fact — a crash in between merely re-runs a sweep that
  // finds everything resumable.
  log_->SetReconcileCursor(LogManager::kReconcileDone);
  {
    std::lock_guard<std::mutex> lk(reconcile_done_mu_);
    reconcile_active_.store(false, std::memory_order_release);
  }
  reconcile_done_cv_.notify_all();
}

void KaminoEngine::ReconcileLoop() {
  nvm::PersistSiteScope site("backup/reconcile");
  while (!reconcile_stop_.load(std::memory_order_relaxed)) {
    uint64_t chunk = 0;
    if (dirty_map_->ClaimNext(&chunk)) {
      Status st = ReconcileChunk(chunk);
      dirty_map_->FinishChunk(chunk, st.ok());
      if (st.ok()) {
        MaybePersistCursor();
      } else {
        // The chunk went back to dirty; back off before the wrap-around scan
        // picks it up again so a persistent failure cannot spin.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    if (dirty_map_->all_clean()) {
      MaybePersistCursor();
      FinishReconcile();
      return;
    }
    // Remaining dirty chunks are claimed by fencing threads; wait for them.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Status KaminoEngine::Recover() {
  nvm::PersistSiteScope site("engine/recover");
  std::vector<RecoveredTx> txs = log_->ScanForRecovery();

  // Phase 1: replay. The disjoint-write-set invariant (any two non-free
  // slots at crash time hold transactions with pairwise disjoint write sets,
  // DESIGN.md §6) makes any partition safe to replay in parallel. Worker 0
  // runs on this thread, so one worker starts no thread and its event
  // stream is deterministic.
  const uint64_t replay_start = stats::NowNanos();
  size_t workers = recovery_.workers < 1 ? 1 : static_cast<size_t>(recovery_.workers);
  workers = std::min(workers, txs.empty() ? size_t{1} : txs.size());
  std::vector<std::vector<RecoveredTx>> parts =
      LogManager::PartitionForRecovery(std::move(txs), workers);
  std::vector<Status> statuses(workers);
  std::vector<std::vector<TxContextPtr>> handoffs(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    threads.emplace_back([this, w, &parts, &statuses, &handoffs] {
      nvm::PersistSiteScope worker_site("engine/recover");
      statuses[w] = ReplayPartition(parts[w], &handoffs[w]);
    });
  }
  statuses[0] = ReplayPartition(parts[0], &handoffs[0]);
  for (auto& t : threads) {
    t.join();
  }
  Status result = Status::Ok();
  for (const Status& st : statuses) {
    if (!st.ok() && result.ok()) {
      result = st;
    }
  }
  recovery_replay_ns_ = stats::NowNanos() - replay_start;
  store_->CompactAfterRecovery();

  // Phase 2: backup reconciliation. Offline it drains here; online the
  // dirty map is armed, workers spawn, and the engine opens immediately —
  // operations fence on the chunks they touch.
  if (recovery_.reconcile_backup) {
    BuildDirtyMap();
    if (recovery_.online) {
      reconcile_active_.store(true, std::memory_order_release);
      const int n = recovery_.reconcile_workers < 1 ? 1 : recovery_.reconcile_workers;
      reconcilers_.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        reconcilers_.emplace_back([this] { ReconcileLoop(); });
      }
    } else {
      uint64_t chunk = 0;
      while (dirty_map_->ClaimNext(&chunk)) {
        Status st = ReconcileChunk(chunk);
        dirty_map_->FinishChunk(chunk, st.ok());
        if (!st.ok()) {
          if (result.ok()) {
            result = st;
          }
          break;  // Leave the rest dirty; the cursor resumes the sweep.
        }
        MaybePersistCursor();
      }
      if (dirty_map_->all_clean()) {
        log_->SetReconcileCursor(LogManager::kReconcileDone);
        std::lock_guard<std::mutex> lk(reconcile_done_mu_);
        reconcile_finished_ = true;
      }
    }
  }

  // Online, hand the committed-but-unapplied transactions to the applier
  // pool only *after* the dirty map is armed: their applies must fence, or a
  // background reconcile of the same chunk would race with the apply. This
  // happens even if replay reported an error — handed-off contexts are
  // independent of the failed ones (disjoint write sets) and idempotent.
  // (Offline, every worker has already applied its own.)
  for (auto& part : handoffs) {
    in_flight_.fetch_add(part.size(), std::memory_order_relaxed);
    for (auto& ctx : part) {
      EnqueueCommitted(std::move(ctx));
    }
  }
  return result;
}

void KaminoEngine::WaitForRecovery() {
  std::unique_lock<std::mutex> lk(reconcile_done_mu_);
  reconcile_done_cv_.wait(lk, [&] {
    return !reconcile_active_.load(std::memory_order_acquire) ||
           reconcile_stop_.load(std::memory_order_relaxed);
  });
}

}  // namespace kamino::txn
