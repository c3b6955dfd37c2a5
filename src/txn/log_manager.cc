#include "src/txn/log_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "src/common/cacheline.h"
#include "src/common/checksum.h"

namespace kamino::txn {

namespace {

// Generation keys make per-thread cache-cell lookups safe across LogManager
// lifetimes: a thread-local entry from a destroyed manager can never match a
// live manager's generation, so its dangling cell pointer is never followed.
std::atomic<uint64_t> g_next_generation{1};

struct TlsCacheEntry {
  uint64_t generation = 0;
  void* cell = nullptr;
};
// Small per-thread table of (manager generation -> cache cell). Eviction is
// round-robin; an evicted entry's cell stays owned (and steal-scannable) by
// its manager, so no slot is ever lost.
constexpr int kTlsCacheEntries = 8;
thread_local TlsCacheEntry t_cells[kTlsCacheEntries];
thread_local uint32_t t_cells_rr = 0;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

LogManager::LogManager(nvm::Pool* pool, uint64_t region_offset)
    : pool_(pool),
      region_offset_(region_offset),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

LogManager::~LogManager() = default;

Result<std::unique_ptr<LogManager>> LogManager::Create(nvm::Pool* pool, uint64_t region_offset,
                                                       uint64_t region_size,
                                                       const LogOptions& options) {
  if (pool == nullptr) {
    return Status::InvalidArgument("null pool");
  }
  auto lm = std::unique_ptr<LogManager>(new LogManager(pool, region_offset));
  Status st = lm->Format(region_size, options);
  if (!st.ok()) {
    return st;
  }
  return lm;
}

Result<std::unique_ptr<LogManager>> LogManager::Open(nvm::Pool* pool, uint64_t region_offset,
                                                     const LogOptions* runtime_options) {
  if (pool == nullptr) {
    return Status::InvalidArgument("null pool");
  }
  auto lm = std::unique_ptr<LogManager>(new LogManager(pool, region_offset));
  if (runtime_options != nullptr) {
    lm->num_stripes_ = runtime_options->freelist_stripes;
    lm->group_commit_window_ns_ = runtime_options->group_commit_window_ns;
    lm->legacy_fences_ = runtime_options->legacy_fences;
    lm->epoch_commit_ = runtime_options->epoch_commit;
  } else {
    lm->num_stripes_ = LogOptions{}.freelist_stripes;
  }
  Status st = lm->Attach();
  if (!st.ok()) {
    return st;
  }
  return lm;
}

void LogManager::InitFreelists(const LogOptions& options) {
  num_stripes_ = std::max<uint64_t>(1, std::min(options.freelist_stripes, num_slots_));
  group_commit_window_ns_ = options.group_commit_window_ns;
  legacy_fences_ = options.legacy_fences;
  // Legacy wins: the pre-PR4 schedule drained everywhere, so the epoch
  // pipeline (which removes drains) would not reproduce it.
  epoch_commit_ = options.epoch_commit && !options.legacy_fences;
  stripes_ = std::make_unique<Stripe[]>(num_stripes_);
  for (uint64_t s = 0; s < num_stripes_; ++s) {
    stripes_[s].head.store(kNilIndex, std::memory_order_relaxed);
  }
  next_ = std::make_unique<std::atomic<uint32_t>[]>(num_slots_);
  for (uint64_t i = 0; i < num_slots_; ++i) {
    next_[i].store(kNilIndex, std::memory_order_relaxed);
  }
}

Status LogManager::Format(uint64_t region_size, const LogOptions& options) {
  if (options.num_slots == 0 || options.max_records == 0) {
    return Status::InvalidArgument("log options must be non-zero");
  }
  if (options.num_slots >= kNilIndex) {
    return Status::InvalidArgument("num_slots exceeds freelist index width");
  }
  const uint64_t min_slot = kSlotHeaderSize + options.max_records * kRecordSize;
  if (options.slot_size < min_slot) {
    return Status::InvalidArgument("slot_size too small for header + records");
  }
  const uint64_t need = kSlotHeaderSize + options.num_slots * options.slot_size;
  if (need > region_size) {
    return Status::InvalidArgument("log region too small for requested slots");
  }
  num_slots_ = options.num_slots;
  slot_size_ = options.slot_size;
  max_records_ = options.max_records;
  InitFreelists(options);

  nvm::PersistSiteScope site("log/format");
  for (uint64_t i = 0; i < num_slots_; ++i) {
    SlotHeader* h = SlotHeaderAt(i);
    h->state = static_cast<uint64_t>(TxState::kFree);
    h->txid = 0;
    pool_->Flush(h, sizeof(SlotHeader));
    PushStripe(HomeStripe(static_cast<uint32_t>(i)), static_cast<uint32_t>(i));
  }
  pool_->Drain();

  auto* hdr = static_cast<LogHeader*>(pool_->At(region_offset_));
  hdr->magic = kMagic;
  hdr->version = 1;
  hdr->num_slots = num_slots_;
  hdr->slot_size = slot_size_;
  hdr->max_records = max_records_;
  hdr->checksum = Crc64(hdr, offsetof(LogHeader, checksum));
  hdr->reconcile_cursor = kReconcileDone;
  hdr->backup_epoch = 0;
  pool_->Persist(hdr, sizeof(LogHeader));
  return Status::Ok();
}

Status LogManager::Attach() {
  const auto* hdr = static_cast<const LogHeader*>(pool_->At(region_offset_));
  if (hdr->magic != kMagic) {
    return Status::Corruption("log header magic mismatch");
  }
  if (hdr->checksum != Crc64(hdr, offsetof(LogHeader, checksum))) {
    return Status::Corruption("log header checksum mismatch");
  }
  num_slots_ = hdr->num_slots;
  slot_size_ = hdr->slot_size;
  max_records_ = hdr->max_records;
  if (num_slots_ == 0 || num_slots_ >= kNilIndex) {
    return Status::Corruption("log header num_slots out of range");
  }
  {
    LogOptions runtime;
    runtime.freelist_stripes = num_stripes_;
    runtime.group_commit_window_ns = group_commit_window_ns_;
    runtime.legacy_fences = legacy_fences_;
    runtime.epoch_commit = epoch_commit_;
    InitFreelists(runtime);
  }

  for (uint64_t i = 0; i < num_slots_; ++i) {
    const SlotHeader* h = SlotHeaderAt(i);
    max_recovered_txid_ = std::max(max_recovered_txid_, h->txid);
    if (static_cast<TxState>(h->state) == TxState::kFree) {
      PushStripe(HomeStripe(static_cast<uint32_t>(i)), static_cast<uint32_t>(i));
    }
    // Non-free slots stay held until recovery resolves them.
  }
  return Status::Ok();
}

uint64_t LogManager::PreferredStripe() const {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % num_stripes_;
}

void LogManager::PushStripe(uint64_t stripe, uint32_t slot) {
  auto& head = stripes_[stripe].head;
  uint64_t old = head.load(std::memory_order_relaxed);
  for (;;) {
    next_[slot].store(static_cast<uint32_t>(old), std::memory_order_relaxed);
    const uint64_t aba = (old >> 32) + 1;
    const uint64_t desired = (aba << 32) | slot;
    if (head.compare_exchange_weak(old, desired, std::memory_order_release,
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

bool LogManager::PopStripe(uint64_t stripe, uint32_t* out) {
  auto& head = stripes_[stripe].head;
  uint64_t old = head.load(std::memory_order_acquire);
  for (;;) {
    const uint32_t index = static_cast<uint32_t>(old);
    if (index == kNilIndex) {
      return false;
    }
    const uint32_t next = next_[index].load(std::memory_order_relaxed);
    const uint64_t aba = (old >> 32) + 1;
    const uint64_t desired = (aba << 32) | next;
    if (head.compare_exchange_weak(old, desired, std::memory_order_acquire,
                                   std::memory_order_acquire)) {
      *out = index;
      return true;
    }
  }
}

bool LogManager::TryPopAnyStripe(uint32_t* out) {
  const uint64_t preferred = PreferredStripe();
  for (uint64_t i = 0; i < num_stripes_; ++i) {
    if (PopStripe((preferred + i) % num_stripes_, out)) {
      return true;
    }
  }
  return false;
}

bool LogManager::StealFromCells(uint32_t* out) {
  std::lock_guard<std::mutex> lk(cells_mu_);
  for (auto& cell : cells_) {
    const uint64_t v = cell->slot.exchange(kNoCachedSlot, std::memory_order_acq_rel);
    if (v != kNoCachedSlot) {
      *out = static_cast<uint32_t>(v);
      return true;
    }
  }
  return false;
}

LogManager::CacheCell* LogManager::FindMyCell() const {
  for (const auto& e : t_cells) {
    if (e.generation == generation_) {
      return static_cast<CacheCell*>(e.cell);
    }
  }
  return nullptr;
}

LogManager::CacheCell* LogManager::MyCellOrRegister() {
  if (CacheCell* cell = FindMyCell()) {
    return cell;
  }
  auto owned = std::make_unique<CacheCell>();
  CacheCell* cell = owned.get();
  {
    std::lock_guard<std::mutex> lk(cells_mu_);
    cells_.push_back(std::move(owned));
  }
  int victim = -1;
  for (int i = 0; i < kTlsCacheEntries; ++i) {
    if (t_cells[i].generation == 0) {
      victim = i;
      break;
    }
  }
  if (victim < 0) {
    victim = static_cast<int>(t_cells_rr++ % kTlsCacheEntries);
  }
  t_cells[victim] = TlsCacheEntry{generation_, cell};
  return cell;
}

Result<SlotHandle> LogManager::AcquireSlot(uint64_t txid) {
  uint32_t index = kNilIndex;
  CacheCell* cell = MyCellOrRegister();
  const uint64_t cached = cell->slot.exchange(kNoCachedSlot, std::memory_order_acq_rel);
  if (cached != kNoCachedSlot) {
    index = static_cast<uint32_t>(cached);
  } else if (!TryPopAnyStripe(&index)) {
    // Slow path: every freelist looked empty. Announce ourselves as a
    // waiter, then re-scan (including other threads' cache cells) — the
    // seq_cst fence pairs with the one in ReleaseSlot so a concurrent
    // releaser either sees waiters_ > 0 (and publishes + notifies) or its
    // publish is visible to our scan.
    const uint64_t t0 = NowNs();
    std::unique_lock<std::mutex> lk(mu_);
    blocked_acquires_.fetch_add(1, std::memory_order_relaxed);
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (;;) {
      if (StealFromCells(&index) || TryPopAnyStripe(&index)) {
        break;
      }
      slot_available_.wait(lk);
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    lk.unlock();
    blocked_wait_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  }

  SlotHeader* h = SlotHeaderAt(index);
  // txid and state share one cache line: a single flush covers both. The
  // new txid also invalidates every record left behind by the slot's previous
  // occupant (their txid_tag no longer matches). The header is flushed but
  // not drained: if it never becomes durable, the slot's durably-Free prior
  // header stands and recovery ignores the slot; any later drain (first
  // append, write-set, or commit) makes it durable before it matters.
  h->txid = txid;
  h->state = static_cast<uint64_t>(TxState::kRunning);
  {
    nvm::PersistSiteScope site("log/acquire-slot");
    if (legacy_fences_) {
      pool_->Persist(h, sizeof(SlotHeader));
    } else {
      pool_->Flush(h, sizeof(SlotHeader));
    }
  }

  SlotHandle s;
  s.slot_index = index;
  s.txid = txid;
  return s;
}

uint64_t LogManager::RecordCrc(const Record& r) {
  return Crc64(&r, offsetof(Record, crc));
}

bool LogManager::RecordValid(const Record& r, uint64_t txid, uint64_t index) const {
  if (r.txid_tag != txid) {
    return false;
  }
  const uint64_t kind = r.kind_seq >> 56;
  const uint64_t seq = r.kind_seq & ((1ull << 56) - 1);
  if (kind == 0 || kind > static_cast<uint64_t>(IntentKind::kRedoWrite) || seq != index) {
    return false;
  }
  return r.crc == RecordCrc(r);
}

Status LogManager::AppendRecord(SlotHandle& slot, IntentKind kind, uint64_t offset,
                                uint64_t size, uint64_t aux, bool drain, uint64_t aux2) {
  if (!slot.valid()) {
    return Status::InvalidArgument("append on invalid (released) slot handle");
  }
  if (slot.num_records >= max_records_) {
    return Status::OutOfMemory("intent log slot record capacity exceeded");
  }
  Record* r = RecordAt(slot.slot_index, slot.num_records);
  r->offset = offset;
  r->size = size;
  r->kind_seq = (static_cast<uint64_t>(kind) << 56) | slot.num_records;
  r->aux = aux;
  r->txid_tag = slot.txid;
  r->crc = RecordCrc(*r);
  r->aux2 = aux2;
  {
    nvm::PersistSiteScope site("log/append-intent");
    pool_->Flush(r, kRecordSize);
    if (legacy_fences_) {
      pool_->Drain();
    } else if (drain) {
      if (epoch_commit_) {
        // The intent must still be durable before the caller's first
        // in-place store (rollback must know every range that may have been
        // touched) — but the fence is shared: ride the epoch drain instead
        // of paying a private one.
        EpochRide();
      } else {
        pool_->Drain();
      }
    }
  }
  ++slot.num_records;
  return Status::Ok();
}

void LogManager::DrainAppends() {
  if (legacy_fences_) {
    return;  // Every append already drained individually.
  }
  nvm::PersistSiteScope site("log/append-intent");
  if (epoch_commit_) {
    EpochRide();  // One shared ride covers the whole flushed batch.
    return;
  }
  pool_->Drain();
}

Result<uint64_t> LogManager::ReservePayload(SlotHandle& slot, uint64_t size) {
  const uint64_t aligned = AlignUp(size, kCacheLineSize);
  if (slot.payload_used + aligned > PayloadAreaSize()) {
    return Status::OutOfMemory("intent log slot payload capacity exceeded");
  }
  const uint64_t off = PayloadAreaOffset(slot.slot_index) + slot.payload_used;
  slot.payload_used += aligned;
  return off;
}

void LogManager::SetState(const SlotHandle& slot, TxState state) {
  SlotHeader* h = SlotHeaderAt(slot.slot_index);
  h->state = static_cast<uint64_t>(state);
  if (state != TxState::kCommitted || legacy_fences_) {
    nvm::PersistSiteScope site(state == TxState::kCommitted ? "log/commit-record"
                                                            : "log/abort-record");
    pool_->PersistU64(&h->state);
    return;
  }
  // Group commit: flush our own record, then let one leader drain for the
  // group. A solo committer still emits exactly one flush + one drain here.
  nvm::PersistSiteScope site("log/commit-record");
  pool_->Flush(&h->state, sizeof(uint64_t));
  GroupCommitDrain();
}

void LogManager::SetPrepared(const SlotHandle& slot, uint64_t gtxid, uint64_t coord_shard) {
  SlotHeader* h = SlotHeaderAt(slot.slot_index);
  h->reserved[0] = gtxid;
  h->reserved[1] = coord_shard;
  h->state = static_cast<uint64_t>(TxState::kPrepared);
  // Whole-header persist (not PersistU64 of state alone): slot acquisition
  // only flushed the txid, so this drain is also what makes the txid — and
  // with it every record's txid_tag validity — durable together with the
  // prepared mark.
  nvm::PersistSiteScope site("log/prepare-record");
  pool_->Persist(h, sizeof(SlotHeader));
}

void LogManager::SetDecision(const SlotHandle& slot) {
  SlotHeader* h = SlotHeaderAt(slot.slot_index);
  h->state = static_cast<uint64_t>(TxState::kCommitted);
  nvm::PersistSiteScope site("log/decide-record");
  pool_->PersistU64(&h->state);
}

void LogManager::ResolvePrepared(const RecoveredTx& tx, bool commit) {
  SlotHeader* h = SlotHeaderAt(tx.slot_index);
  h->state = static_cast<uint64_t>(commit ? TxState::kCommitted : TxState::kAborted);
  nvm::PersistSiteScope site("log/resolve-in-doubt");
  pool_->PersistU64(&h->state);
}

void LogManager::GroupCommitDrain() {
  std::unique_lock<std::mutex> lk(gc_mu_);
  // Ticket taken under gc_mu_ strictly after our commit-record flush: any
  // leader that reads cover >= my after this point drains a pool state that
  // already has our record staged.
  const uint64_t my = ++gc_ticket_;
  SequencerWait(lk, my);
  gc_commits_.fetch_add(1, std::memory_order_relaxed);
}

void LogManager::SequencerWait(std::unique_lock<std::mutex>& lk, uint64_t ticket) {
  // The PR 4 regime serializes leaders; the epoch pipeline overlaps two.
  // Drains are overlappable waits (queue drain, not computation), so while
  // epoch N's drain is in flight a newly arrived ticket may elect itself
  // leader of epoch N+1 and start the covering drain immediately — its wait
  // is one drain, not remaining-of-current plus one. Two in flight is the
  // steady-state maximum useful depth: a third leader's cover would be
  // superseded by the second's before its drain could retire anything new.
  const int max_inflight = epoch_commit_ ? 2 : 1;
  // An overlap leader (electing while a drain is in flight) must see at
  // least this many uncovered tickets. Firing on a single ticket minimizes
  // that rider's wait but shrinks every batch to ~1, inflating drains/txn;
  // waiting for a second uncovered ticket restores coalescing at a latency
  // cost of one ticket inter-arrival. The first leader is exempt, so a solo
  // committer still pays exactly one immediate drain.
  constexpr uint64_t kMinOverlapBacklog = 2;
  for (;;) {
    if (gc_durable_ >= ticket) {
      return;
    }
    const bool can_lead =
        gc_drains_inflight_ < max_inflight && gc_cover_pending_ < ticket &&
        (gc_drains_inflight_ == 0 ||
         gc_ticket_ - gc_cover_pending_ >= kMinOverlapBacklog);
    if (can_lead) {
      ++gc_drains_inflight_;
      if (group_commit_window_ns_ > 0) {
        // Bounded coalescing window: give concurrent committers a chance to
        // flush + ticket before we pay the drain. Spurious wakeups just
        // shorten the window, which is harmless.
        gc_cv_.wait_for(lk, std::chrono::nanoseconds(group_commit_window_ns_));
      }
      const uint64_t cover = gc_ticket_;
      gc_cover_pending_ = std::max(gc_cover_pending_, cover);
      lk.unlock();
      if (epoch_commit_) {
        // The epoch boundary: one drain covers every rider's intents, every
        // committer's write set, and their commit marks. Attributed to its
        // own site so the DESIGN.md §8 ledger can prove which drains moved
        // off the per-transaction path.
        nvm::PersistSiteScope site("log/epoch-drain");
        pool_->Drain();
      } else {
        pool_->Drain();  // Attributed to the caller's active site.
      }
      lk.lock();
      // Overlapped drains may retire out of order; cover is monotone in
      // start order (a later drain's cover is a superset), so max() is the
      // durable frontier either way.
      gc_durable_ = std::max(gc_durable_, cover);
      gc_leader_drains_.fetch_add(1, std::memory_order_relaxed);
      // Extract the callback prefix this drain covered; run it outside the
      // lock (callbacks enqueue applier work and take other mutexes). The
      // extraction happens before the lock is released, so no other thread
      // can ever observe a parked callback whose ticket is already durable.
      std::vector<std::pair<uint64_t, std::function<void(uint64_t)>>> ready;
      while (!epoch_callbacks_.empty() && epoch_callbacks_.front().first <= gc_durable_) {
        ready.push_back(std::move(epoch_callbacks_.front()));
        epoch_callbacks_.pop_front();
      }
      --gc_drains_inflight_;
      gc_cv_.notify_all();
      if (!ready.empty()) {
        // Registered while running, so DrainEpoch can wait for the hand-off
        // of every ticket it sealed, not just for its durability.
        const uint64_t first = ready.front().first;
        gc_callbacks_running_.push_back(first);
        lk.unlock();
        for (auto& cb : ready) {
          cb.second(cb.first);
        }
        lk.lock();
        gc_callbacks_running_.erase(std::find(gc_callbacks_running_.begin(),
                                              gc_callbacks_running_.end(), first));
        gc_cv_.notify_all();
      }
      continue;  // gc_durable_ >= ticket now holds; return above.
    }
    gc_cv_.wait(lk, [&] {
      return gc_durable_ >= ticket ||
             (gc_drains_inflight_ < max_inflight && gc_cover_pending_ < ticket &&
              (gc_drains_inflight_ == 0 ||
               gc_ticket_ - gc_cover_pending_ >= kMinOverlapBacklog));
    });
  }
}

void LogManager::EpochRide() {
  std::unique_lock<std::mutex> lk(gc_mu_);
  const uint64_t my = ++gc_ticket_;
  SequencerWait(lk, my);
}

void LogManager::SetCommittedChecked(const SlotHandle& slot, uint64_t write_set_crc,
                                     uint64_t range_count) {
  SlotHeader* h = SlotHeaderAt(slot.slot_index);
  // CRC, range count and state live in one 64-byte header line: the flush
  // stages them atomically (a line cannot tear), so recovery sees either the
  // prior state or a fully-formed checked mark — never a mark without its
  // validation data. reserved[0]/[1] stay untouched (2PC gtxid/coordinator).
  h->reserved[2] = write_set_crc;
  h->reserved[3] = range_count;
  h->state = static_cast<uint64_t>(TxState::kEpochCommitted);
  nvm::PersistSiteScope site("log/commit-record");
  pool_->Flush(h, sizeof(SlotHeader));
}

uint64_t LogManager::RegisterEpochCommit(std::function<void(uint64_t)> on_durable) {
  std::unique_lock<std::mutex> lk(gc_mu_);
  // Ticket strictly after the caller's flushes (same argument as
  // GroupCommitDrain): any covering drain has the write set, intents and
  // checked mark staged.
  const uint64_t my = ++gc_ticket_;
  if (on_durable) {
    epoch_callbacks_.emplace_back(my, std::move(on_durable));
  }
  gc_commits_.fetch_add(1, std::memory_order_relaxed);
  // This registration never waits, but it may have just pushed the uncovered
  // backlog past the overlap-leader threshold — wake sleeping candidates so
  // the next epoch's drain starts now rather than at the current one's end.
  gc_cv_.notify_all();
  return my;
}

void LogManager::EpochWait(uint64_t ticket) {
  std::unique_lock<std::mutex> lk(gc_mu_);
  SequencerWait(lk, ticket);
}

void LogManager::DrainEpoch() {
  std::unique_lock<std::mutex> lk(gc_mu_);
  const uint64_t seal = gc_ticket_;
  SequencerWait(lk, seal);
  // Durable is not yet handed off: another leader may still be running the
  // callbacks it extracted for tickets <= seal.
  gc_cv_.wait(lk, [&] {
    return std::none_of(gc_callbacks_running_.begin(), gc_callbacks_running_.end(),
                        [&](uint64_t first) { return first <= seal; });
  });
}

void LogManager::ReleaseSlot(SlotHandle& slot) { ReleaseSlotsImpl(&slot, 1, /*cache=*/true); }

void LogManager::ReleaseSlots(SlotHandle* slots, size_t count) {
  ReleaseSlotsImpl(slots, count, /*cache=*/false);
}

void LogManager::ReleaseSlotsImpl(SlotHandle* slots, size_t count, bool cache) {
  // The Free headers must be durable before their slots re-enter the
  // freelists, deliberately: once post-commit work (applier copy-back,
  // deferred frees) has happened, recovery must never see a slot as
  // Committed again or it would repeat roll-forward over reused memory. A
  // batch shares one drain across all of its headers — the applier's main
  // fence saving — while a solo release pays exactly one flush + one drain,
  // the same event stream Persist would emit.
  {
    nvm::PersistSiteScope site("log/release-slot");
    size_t flushed = 0;
    for (size_t i = 0; i < count; ++i) {
      if (!slots[i].valid()) {
        continue;
      }
      SlotHeader* h = SlotHeaderAt(slots[i].slot_index);
      h->state = static_cast<uint64_t>(TxState::kFree);
      if (legacy_fences_) {
        pool_->PersistU64(&h->state);
      } else {
        pool_->Flush(&h->state, sizeof(uint64_t));
        ++flushed;
      }
    }
    if (flushed > 0) {
      pool_->Drain();
    }
  }
  for (size_t i = 0; i < count; ++i) {
    if (!slots[i].valid()) {
      continue;
    }
    PublishFreeSlot(static_cast<uint32_t>(slots[i].slot_index), cache);
    slots[i] = SlotHandle{};  // Full reset, txid included: a released handle is dead.
  }
}

void LogManager::PublishFreeSlot(uint32_t index, bool cache) {
  // Prefer the releasing thread's own cache cell (same-thread release ->
  // acquire keeps slot reuse LIFO and contention-free). Threads that never
  // acquire (appliers) have no cell and publish straight to the stripes.
  CacheCell* cell = cache ? FindMyCell() : nullptr;
  bool cached = false;
  if (cell != nullptr) {
    uint64_t expected = kNoCachedSlot;
    cached = cell->slot.compare_exchange_strong(expected, index, std::memory_order_release,
                                                std::memory_order_relaxed);
  }
  if (!cached) {
    PushStripe(HomeStripe(index), index);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (waiters_.load(std::memory_order_relaxed) > 0) {
    if (cached) {
      // A waiter may have scanned our cell before the store above became
      // visible; move the slot to the shared stripes and re-publish.
      const uint64_t v = cell->slot.exchange(kNoCachedSlot, std::memory_order_acq_rel);
      if (v != kNoCachedSlot) {
        PushStripe(HomeStripe(static_cast<uint32_t>(v)), static_cast<uint32_t>(v));
        std::atomic_thread_fence(std::memory_order_seq_cst);
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
    }
    slot_available_.notify_all();
  }
}

std::vector<RecoveredTx> LogManager::ScanForRecovery() {
  std::vector<RecoveredTx> out;
  for (uint64_t i = 0; i < num_slots_; ++i) {
    const SlotHeader* h = SlotHeaderAt(i);
    const auto state = static_cast<TxState>(h->state);
    if (state == TxState::kFree) {
      continue;
    }
    RecoveredTx tx;
    tx.slot_index = i;
    tx.txid = h->txid;
    tx.state = state;
    if (state == TxState::kPrepared) {
      tx.gtxid = h->reserved[0];
      tx.coord_shard = h->reserved[1];
    }
    for (uint64_t rix = 0; rix < max_records_; ++rix) {
      const Record* r = RecordAt(i, rix);
      if (!RecordValid(*r, h->txid, rix)) {
        // Skip, don't stop: with batched (fence-elided) appends, random
        // cache eviction can persist record k+1 while record k was lost.
        // Records self-validate and txids are never reused, so holes are
        // safe to step over; a fully-drained log still scans as a prefix.
        continue;
      }
      Intent in;
      in.kind = static_cast<IntentKind>(r->kind_seq >> 56);
      in.offset = r->offset;
      in.size = r->size;
      in.aux = r->aux;
      in.aux2 = r->aux2;
      tx.intents.push_back(in);
    }
    if (state == TxState::kEpochCommitted) {
      // The epoch mark shared its drain with the data it covers, so it is
      // only evidence of commit if the data actually made it: recompute the
      // write-set CRC over the main heap. A match proves the heap holds
      // exactly the committed bytes (kWrite/kAlloc intents were durable
      // before their first store, the ranges stayed write-locked until
      // post-apply, and the slot is durably freed before lock release), so
      // roll-forward is safe and atomic. A mismatch means random eviction
      // persisted the mark ahead of torn data — treat as aborted and roll
      // back from the backup. Engines never see state 5.
      uint64_t crc = 0;
      uint64_t ranges = 0;
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kWrite || in.kind == IntentKind::kAlloc) {
          crc = Crc64(pool_->At(in.offset), in.size, crc);
          ++ranges;
        }
      }
      const bool intact = ranges == h->reserved[3] && crc == h->reserved[2];
      tx.state = intact ? TxState::kCommitted : TxState::kAborted;
    }
    out.push_back(std::move(tx));
  }
  std::sort(out.begin(), out.end(),
            [](const RecoveredTx& a, const RecoveredTx& b) { return a.txid < b.txid; });
  return out;
}

SlotHandle LogManager::HandleForRecovered(const RecoveredTx& tx) const {
  SlotHandle s;
  s.slot_index = tx.slot_index;
  s.txid = tx.txid;
  s.num_records = tx.intents.size();
  return s;
}

std::vector<std::vector<RecoveredTx>> LogManager::PartitionForRecovery(
    std::vector<RecoveredTx> txs, size_t queues) {
  if (queues == 0) {
    queues = 1;
  }
  std::vector<std::vector<RecoveredTx>> out(queues);
  for (auto& tx : txs) {
    size_t q = 0;
    if (!tx.intents.empty()) {
      // Mix the high bits down so queues don't alias on chunk-aligned
      // allocations; any deterministic function of the tx is safe here
      // (disjoint write sets make every partition valid).
      const uint64_t key = tx.intents.front().offset;
      q = static_cast<size_t>((key ^ (key >> 17) ^ (key >> 31)) % queues);
    }
    out[q].push_back(std::move(tx));
  }
  // ScanForRecovery returned txid order; the single forward pass above
  // preserves it within each queue.
  return out;
}

uint64_t LogManager::reconcile_cursor() const {
  const auto* hdr = static_cast<const LogHeader*>(pool_->At(region_offset_));
  return hdr->reconcile_cursor;
}

void LogManager::SetReconcileCursor(uint64_t chunk) {
  nvm::PersistSiteScope site("engine/recover/cursor");
  auto* hdr = static_cast<LogHeader*>(pool_->At(region_offset_));
  hdr->reconcile_cursor = chunk;
  pool_->PersistU64(&hdr->reconcile_cursor);
}

uint64_t LogManager::backup_epoch() const {
  std::lock_guard<std::mutex> lk(epoch_stamp_mu_);
  const auto* hdr = static_cast<const LogHeader*>(pool_->At(region_offset_));
  return hdr->backup_epoch;
}

void LogManager::SetBackupEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lk(epoch_stamp_mu_);
  auto* hdr = static_cast<LogHeader*>(pool_->At(region_offset_));
  if (epoch <= hdr->backup_epoch) {
    return;  // A faster batch already published a larger frontier.
  }
  nvm::PersistSiteScope site("backup/cut");
  hdr->backup_epoch = epoch;
  pool_->PersistU64(&hdr->backup_epoch);
}

LogStats LogManager::stats() const {
  LogStats s;
  s.blocked_acquires = blocked_acquires_.load(std::memory_order_relaxed);
  s.blocked_wait_ns = blocked_wait_ns_.load(std::memory_order_relaxed);
  s.group_commit_commits = gc_commits_.load(std::memory_order_relaxed);
  s.group_commit_leader_drains = gc_leader_drains_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace kamino::txn
