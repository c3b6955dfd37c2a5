#include "src/txn/backup_store.h"

#include <algorithm>
#include <cstring>

#include "src/common/cacheline.h"
#include "src/common/checksum.h"

namespace kamino::txn {

// --- BackupStore cut gate (DESIGN.md §12) ------------------------------------

void BackupStore::EnterApplyCut() {
  std::unique_lock<std::mutex> lk(cut_mu_);
  ++waiting_appliers_;
  if (active_readers_ > 0 || (waiting_readers_ > 0 && !applier_turn_)) {
    apply_fence_waits_.fetch_add(1, std::memory_order_relaxed);
    cut_cv_.wait(lk, [&] {
      return active_readers_ == 0 && (waiting_readers_ == 0 || applier_turn_);
    });
  }
  --waiting_appliers_;
  ++active_appliers_;
}

void BackupStore::ExitApplyCut() {
  {
    std::lock_guard<std::mutex> lk(cut_mu_);
    --active_appliers_;
    cuts_.fetch_add(1, std::memory_order_relaxed);
    if (active_appliers_ == 0) {
      applier_turn_ = false;  // Hand the gate back to any waiting readers.
    }
  }
  cut_cv_.notify_all();
}

Result<BackupStore::SnapshotView> BackupStore::OpenSnapshot() {
  if (!supports_snapshot_reads()) {
    return Status::NotSupported("backup store has no snapshot read path");
  }
  std::unique_lock<std::mutex> lk(cut_mu_);
  ++waiting_readers_;
  if (active_appliers_ > 0 || (applier_turn_ && waiting_appliers_ > 0)) {
    cut_fence_waits_.fetch_add(1, std::memory_order_relaxed);
    cut_cv_.wait(lk, [&] {
      return active_appliers_ == 0 && (!applier_turn_ || waiting_appliers_ == 0);
    });
  }
  --waiting_readers_;
  ++active_readers_;
  snapshot_views_.fetch_add(1, std::memory_order_relaxed);
  return SnapshotView(this, cut_epoch_.load(std::memory_order_acquire));
}

void BackupStore::ReleaseSnapshot() {
  {
    std::lock_guard<std::mutex> lk(cut_mu_);
    if (--active_readers_ == 0 && waiting_appliers_ > 0) {
      // Fairness: back-to-back analytics chunks must not starve the applier
      // pipeline (stalled appliers pin log slots, which backpressures every
      // writer) — waiting appliers get the next turn.
      applier_turn_ = true;
    }
  }
  cut_cv_.notify_all();
}

void BackupStore::SnapshotView::Release() {
  if (store_ != nullptr) {
    store_->ReleaseSnapshot();
    store_ = nullptr;
  }
}

void BackupStore::PublishCutEpoch(uint64_t epoch) {
  uint64_t cur = cut_epoch_.load(std::memory_order_relaxed);
  while (cur < epoch &&
         !cut_epoch_.compare_exchange_weak(cur, epoch, std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
}

void BackupStore::AddCutStats(BackupStats* s) const {
  s->read_hits = read_hits_.load(std::memory_order_relaxed);
  s->read_misses = read_misses_.load(std::memory_order_relaxed);
  s->snapshot_views = snapshot_views_.load(std::memory_order_relaxed);
  s->cut_fence_waits = cut_fence_waits_.load(std::memory_order_relaxed);
  s->apply_fence_waits = apply_fence_waits_.load(std::memory_order_relaxed);
  s->cuts = cuts_.load(std::memory_order_relaxed);
}

// --- FullBackupStore ---------------------------------------------------------

FullBackupStore::FullBackupStore(nvm::Pool* main, nvm::Pool* backup)
    : main_(main), backup_(backup) {}

Status FullBackupStore::EnsureBackupCopy(uint64_t offset, uint64_t size, bool pin) {
  // The full backup is kept identical to the main version for every object
  // whose writing transaction has been applied; the lock protocol guarantees
  // no transaction reaches here while its range is still pending. Nothing to
  // do — this is the paper's "no copying in the critical path".
  (void)offset;
  (void)size;
  (void)pin;
  return Status::Ok();
}

Status FullBackupStore::ApplyBatchFromMain(std::vector<ApplyRange>* ranges,
                                           uint64_t* coalesced_out) {
  if (coalesced_out != nullptr) {
    *coalesced_out = 0;
  }
  if (ranges->empty()) {
    return Status::Ok();
  }
  batch_applies_.fetch_add(1, std::memory_order_relaxed);
  applies_.fetch_add(ranges->size(), std::memory_order_relaxed);

  // Offsets in the mirror are shared with the main heap, so adjacent and
  // overlapping ranges can be merged into one copy+flush each.
  std::vector<ApplyRange>& merged = *ranges;
  const size_t input = merged.size();
  std::sort(merged.begin(), merged.end(),
            [](const ApplyRange& a, const ApplyRange& b) { return a.offset < b.offset; });
  size_t out = 0;
  for (size_t i = 1; i < merged.size(); ++i) {
    ApplyRange& prev = merged[out];
    const ApplyRange& cur = merged[i];
    if (cur.offset <= prev.offset + prev.size) {
      prev.size = std::max(prev.offset + prev.size, cur.offset + cur.size) - prev.offset;
    } else {
      merged[++out] = cur;
    }
  }
  merged.resize(out + 1);
  if (coalesced_out != nullptr) {
    *coalesced_out = input - merged.size();
  }

  nvm::PersistSiteScope site("backup/apply");
  for (const ApplyRange& r : merged) {
    std::memcpy(static_cast<uint8_t*>(backup_->At(r.offset)), main_->At(r.offset), r.size);
    backup_->Flush(backup_->At(r.offset), r.size);
  }
  backup_->Drain();
  return Status::Ok();
}

Status FullBackupStore::RestoreToMain(uint64_t offset, uint64_t size) {
  nvm::PersistSiteScope site("backup/restore");
  std::memcpy(static_cast<uint8_t*>(main_->At(offset)), backup_->At(offset), size);
  main_->Persist(main_->At(offset), size);
  restores_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void FullBackupStore::Invalidate(uint64_t offset) { (void)offset; }

uint64_t FullBackupStore::backup_bytes() const { return backup_->size(); }

Status FullBackupStore::ReadAt(uint64_t offset, uint64_t size, void* out) {
  // The mirror shares offsets with the main heap and holds exactly the applied
  // prefix of the commit order; under the cut gate no apply batch is in flight,
  // so every byte is the cut state. Every read is a hit.
  if (offset > backup_->size() || size > backup_->size() - offset) {
    return Status::InvalidArgument("backup read out of range");
  }
  std::memcpy(out, backup_->At(offset), size);
  read_hits_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

BackupStats FullBackupStore::stats() const {
  BackupStats s;
  s.applies = applies_.load(std::memory_order_relaxed);
  s.restores = restores_.load(std::memory_order_relaxed);
  s.batch_applies = batch_applies_.load(std::memory_order_relaxed);
  AddCutStats(&s);
  return s;
}

void FullBackupStore::SyncAll() {
  nvm::PersistSiteScope site("backup/sync-all");
  std::memcpy(backup_->base(), main_->base(), main_->size());
  backup_->Persist(backup_->base(), main_->size());
}

Result<uint64_t> FullBackupStore::ReconcileRanges(const std::vector<ApplyRange>& ranges) {
  if (ranges.empty()) {
    return uint64_t{0};
  }
  nvm::PersistSiteScope site("backup/reconcile/range");
  uint64_t bytes = 0;
  for (const ApplyRange& r : ranges) {
    std::memcpy(static_cast<uint8_t*>(backup_->At(r.offset)), main_->At(r.offset), r.size);
    backup_->Flush(backup_->At(r.offset), r.size);
    bytes += r.size;
  }
  backup_->Drain();
  return bytes;
}

// --- DynamicBackupStore ------------------------------------------------------

DynamicBackupStore::DynamicBackupStore(nvm::Pool* main, nvm::Pool* backup)
    : main_(main), backup_(backup) {}

uint64_t DynamicBackupStore::RequiredPoolSize(uint64_t data_budget_bytes,
                                              uint64_t lookup_buckets) {
  const uint64_t table = lookup_buckets * sizeof(Entry);
  // Allocator needs headroom for chunk headers and partial chunks.
  const uint64_t alloc_region =
      AlignUp(data_budget_bytes + data_budget_bytes / 8, alloc::kChunkSize) +
      4 * alloc::kChunkSize;
  return AlignUp(4096 + table, 4096) + alloc_region;
}

Result<std::unique_ptr<DynamicBackupStore>> DynamicBackupStore::Create(
    nvm::Pool* main, nvm::Pool* backup, const DynamicBackupOptions& options) {
  if (main == nullptr || backup == nullptr) {
    return Status::InvalidArgument("null pool");
  }
  if (!IsPowerOfTwo(options.lookup_buckets)) {
    return Status::InvalidArgument("lookup_buckets must be a power of two");
  }
  if (options.lookup_buckets < kStripes) {
    return Status::InvalidArgument("lookup_buckets must be >= the stripe count");
  }
  auto store = std::unique_ptr<DynamicBackupStore>(new DynamicBackupStore(main, backup));
  Status st = store->Format(options);
  if (!st.ok()) {
    return st;
  }
  return store;
}

Result<std::unique_ptr<DynamicBackupStore>> DynamicBackupStore::Open(nvm::Pool* main,
                                                                     nvm::Pool* backup) {
  if (main == nullptr || backup == nullptr) {
    return Status::InvalidArgument("null pool");
  }
  auto store = std::unique_ptr<DynamicBackupStore>(new DynamicBackupStore(main, backup));
  Status st = store->Attach();
  if (!st.ok()) {
    return st;
  }
  return store;
}

Status DynamicBackupStore::Format(const DynamicBackupOptions& options) {
  nvm::PersistSiteScope site("backup/format");
  lookup_buckets_ = options.lookup_buckets;
  budget_bytes_ = options.budget_bytes;
  table_offset_ = 4096;
  const uint64_t table_bytes = lookup_buckets_ * sizeof(Entry);
  const uint64_t alloc_offset = AlignUp(table_offset_ + table_bytes, 4096);
  if (alloc_offset + alloc::kChunkSize + 8192 > backup_->size()) {
    return Status::InvalidArgument("backup pool too small for table + one chunk");
  }

  std::memset(backup_->At(table_offset_), 0, table_bytes);
  backup_->Persist(backup_->At(table_offset_), table_bytes);

  Result<std::unique_ptr<alloc::Allocator>> a =
      alloc::Allocator::Create(backup_, alloc_offset, backup_->size() - alloc_offset);
  if (!a.ok()) {
    return a.status();
  }
  slot_alloc_ = std::move(*a);

  auto* sb = static_cast<Superblock*>(backup_->At(0));
  sb->magic = kMagic;
  sb->version = 1;
  sb->lookup_buckets = lookup_buckets_;
  sb->table_offset = table_offset_;
  sb->alloc_offset = alloc_offset;
  sb->budget_bytes = budget_bytes_;
  sb->checksum = Crc64(sb, offsetof(Superblock, checksum));
  backup_->Persist(sb, sizeof(Superblock));
  return Status::Ok();
}

Status DynamicBackupStore::Attach() {
  const auto* sb = static_cast<const Superblock*>(backup_->At(0));
  if (sb->magic != kMagic) {
    return Status::Corruption("dynamic backup superblock magic mismatch");
  }
  if (sb->checksum != Crc64(sb, offsetof(Superblock, checksum))) {
    return Status::Corruption("dynamic backup superblock checksum mismatch");
  }
  lookup_buckets_ = sb->lookup_buckets;
  table_offset_ = sb->table_offset;
  budget_bytes_ = sb->budget_bytes;
  if (lookup_buckets_ < kStripes) {
    return Status::Corruption("dynamic backup table smaller than the stripe count");
  }

  Result<std::unique_ptr<alloc::Allocator>> a =
      alloc::Allocator::Open(backup_, sb->alloc_offset);
  if (!a.ok()) {
    return a.status();
  }
  slot_alloc_ = std::move(*a);

  // Rebuild the volatile index + LRU (arbitrary recency order — the copies
  // are all equally "cold" after a restart). Single-threaded; no locks yet.
  for (uint64_t b = 0; b < lookup_buckets_; ++b) {
    Entry* e = EntryAt(b);
    if (e->state != 1) {
      continue;
    }
    if (e->crc != EntryCrc(*e)) {
      // Torn entry write: the insert never completed; treat as free.
      nvm::PersistSiteScope site("backup/attach-repair");
      e->state = 0;
      backup_->PersistU64(&e->state);
      continue;
    }
    lru_.push_front(e->key);
    VolatileEntry ve;
    ve.bucket = b;
    ve.lru_it = lru_.begin();
    ve.in_lru = true;
    stripes_[StripeFor(e->key)].index.emplace(e->key, ve);
    resident_bytes_.fetch_add(e->size, std::memory_order_relaxed);
  }
  return Status::Ok();
}

uint64_t DynamicBackupStore::EntryCrc(const Entry& e) {
  return Crc64(&e, offsetof(Entry, crc));
}

uint64_t DynamicBackupStore::HashKey(uint64_t key) {
  // Fibonacci hashing; keys are pool offsets with low-bit regularity.
  return (key * 0x9E3779B97F4A7C15ull) >> 13;
}

Result<uint64_t> DynamicBackupStore::FindInsertBucketLocked(uint64_t key) {
  // Probe only within the owning stripe's bucket region so concurrent
  // inserts on different stripes never race on a table Entry.
  const uint64_t per_stripe = lookup_buckets_ / kStripes;
  const uint64_t base = StripeFor(key) * per_stripe;
  uint64_t b = (HashKey(key) / kStripes) & (per_stripe - 1);
  for (uint64_t probe = 0; probe < per_stripe; ++probe, b = (b + 1) & (per_stripe - 1)) {
    const Entry* e = EntryAt(base + b);
    if (e->state != 1) {
      return base + b;  // Free or tombstone.
    }
  }
  return Status::OutOfMemory("dynamic backup lookup table stripe full");
}

void DynamicBackupStore::RemoveEntryLocked(uint64_t key, VolatileEntry& ve) {
  Entry* e = EntryAt(ve.bucket);
  const uint64_t slot_off = e->backup_off;
  resident_bytes_.fetch_sub(e->size, std::memory_order_relaxed);
  e->state = 2;  // Tombstone; 8-byte store is failure-atomic.
  {
    nvm::PersistSiteScope site("backup/tombstone-entry");
    backup_->PersistU64(&e->state);
  }
  (void)slot_alloc_->FreeRaw(slot_off);
  if (ve.in_lru) {
    std::lock_guard<std::mutex> lru_guard(lru_mu_);
    lru_.erase(ve.lru_it);
  }
  stripes_[StripeFor(key)].index.erase(key);
}

bool DynamicBackupStore::EvictOneLocked(uint64_t held_stripe) {
  // Snapshot the LRU oldest-first, then chase candidates stripe by stripe.
  // Victims in other stripes are only try_lock'ed (see the lock-order note in
  // the header); a candidate whose stripe is busy is simply skipped — under
  // contention this approximates LRU, single-threaded it is exact.
  std::vector<uint64_t> candidates;
  {
    std::lock_guard<std::mutex> lru_guard(lru_mu_);
    candidates.assign(lru_.rbegin(), lru_.rend());
  }
  for (uint64_t key : candidates) {
    const uint64_t s = StripeFor(key);
    std::unique_lock<std::mutex> lk;
    if (s != held_stripe) {
      lk = std::unique_lock<std::mutex>(stripes_[s].mu, std::try_to_lock);
      if (!lk.owns_lock()) {
        continue;
      }
    }
    auto idx = stripes_[s].index.find(key);
    if (idx == stripes_[s].index.end()) {
      continue;  // Raced with a concurrent remove.
    }
    if (idx->second.pins != 0) {
      continue;  // Pending objects are never eviction candidates (paper §6.4).
    }
    RemoveEntryLocked(key, idx->second);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

Status DynamicBackupStore::InsertCopyLocked(uint64_t key, uint64_t size) {
  const uint64_t held = StripeFor(key);
  // Enforce the α budget first, then allocate a slot (evicting cold copies
  // if the pool itself is the binding constraint).
  if (budget_bytes_ != 0) {
    while (resident_bytes_.load(std::memory_order_relaxed) + size > budget_bytes_) {
      if (!EvictOneLocked(held)) {
        return Status::OutOfMemory("dynamic backup full of pinned copies");
      }
    }
  }
  Result<uint64_t> slot = slot_alloc_->AllocRaw(size);
  while (!slot.ok()) {
    if (!EvictOneLocked(held)) {
      return Status::OutOfMemory("dynamic backup full of pinned copies");
    }
    slot = slot_alloc_->AllocRaw(size);
  }
  Result<uint64_t> bucket = FindInsertBucketLocked(key);
  if (!bucket.ok()) {
    (void)slot_alloc_->FreeRaw(*slot);
    return bucket.status();
  }

  // Content first, then the table entry: a valid entry must never point at a
  // slot whose copy is not durable.
  {
    nvm::PersistSiteScope site("backup/insert-copy");
    std::memcpy(static_cast<uint8_t*>(backup_->At(*slot)), main_->At(key), size);
    backup_->Persist(backup_->At(*slot), size);
  }

  Entry* e = EntryAt(*bucket);
  e->key = key;
  e->backup_off = *slot;
  e->size = size;
  e->state = 1;
  e->crc = EntryCrc(*e);
  {
    nvm::PersistSiteScope site("backup/insert-entry");
    backup_->Persist(e, sizeof(Entry));
  }

  VolatileEntry ve;
  ve.bucket = *bucket;
  {
    std::lock_guard<std::mutex> lru_guard(lru_mu_);
    lru_.push_front(key);
    ve.lru_it = lru_.begin();
  }
  ve.in_lru = true;
  stripes_[held].index.emplace(key, ve);
  resident_bytes_.fetch_add(size, std::memory_order_relaxed);
  return Status::Ok();
}

Status DynamicBackupStore::EnsureBackupCopy(uint64_t offset, uint64_t size, bool pin) {
  Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  uint32_t carried_pins = 0;
  auto it = stripe.index.find(offset);
  if (it != stripe.index.end()) {
    Entry* e = EntryAt(it->second.bucket);
    if (e->size >= size) {
      ensure_hits_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lru_guard(lru_mu_);
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // Touch.
      }
      if (pin) {
        ++it->second.pins;
      }
      return Status::Ok();
    }
    // Existing copy is too small (range grew): replace it. Carry the pin
    // count across the replacement — dropping it would make the copy
    // eviction-eligible while an owner still depends on it, and would
    // unbalance that owner's eventual Unpin.
    carried_pins = it->second.pins;
    RemoveEntryLocked(offset, it->second);
  }
  ensure_misses_.fetch_add(1, std::memory_order_relaxed);
  Status st = InsertCopyLocked(offset, size);
  if (!st.ok()) {
    // Any carried pins died with the removed copy; Unpin is guarded by an
    // index lookup, so the owners' releases degrade to no-ops rather than
    // corrupting another entry's count.
    return st;
  }
  auto inserted = stripe.index.find(offset);
  inserted->second.pins = carried_pins + (pin ? 1u : 0u);
  return Status::Ok();
}

Status DynamicBackupStore::ApplyRangeLocked(uint64_t key, uint64_t size, bool* flushed) {
  Stripe& stripe = stripes_[StripeFor(key)];
  auto it = stripe.index.find(key);
  if (it == stripe.index.end()) {
    // Freshly allocated object being rolled forward: create its copy now,
    // off the critical path. The insert persists internally.
    return InsertCopyLocked(key, size);
  }
  Entry* e = EntryAt(it->second.bucket);
  if (e->size < size) {
    // Grown object: replace the copy, keeping the pin count — the applying
    // transaction itself holds a pin here, and its Unpin later in the apply
    // must find the count it left.
    const uint32_t carried_pins = it->second.pins;
    RemoveEntryLocked(key, it->second);
    KAMINO_RETURN_IF_ERROR(InsertCopyLocked(key, size));
    auto inserted = stripe.index.find(key);
    inserted->second.pins = carried_pins;
    return Status::Ok();
  }
  std::memcpy(static_cast<uint8_t*>(backup_->At(e->backup_off)), main_->At(key), size);
  {
    nvm::PersistSiteScope site("backup/apply");
    backup_->Flush(backup_->At(e->backup_off), size);
  }
  *flushed = true;
  {
    std::lock_guard<std::mutex> lru_guard(lru_mu_);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  }
  return Status::Ok();
}

Status DynamicBackupStore::ApplyBatchFromMain(std::vector<ApplyRange>* ranges,
                                              uint64_t* coalesced_out) {
  // Copies are keyed by object offset, so ranges arrive per-object (the
  // engine must not merge across object boundaries). The batching win here
  // is the single drain for the whole transaction.
  if (coalesced_out != nullptr) {
    *coalesced_out = 0;
  }
  if (ranges->empty()) {
    return Status::Ok();
  }
  batch_applies_.fetch_add(1, std::memory_order_relaxed);
  bool flushed = false;
  Status result = Status::Ok();
  for (const ApplyRange& r : *ranges) {
    Stripe& stripe = stripes_[StripeFor(r.offset)];
    std::lock_guard<std::mutex> guard(stripe.mu);
    applies_.fetch_add(1, std::memory_order_relaxed);
    // The caller releases the slot whatever this returns, so a failed range
    // must not stop the rest: a resident copy left unapplied would go stale.
    Status st = ApplyRangeLocked(r.offset, r.size, &flushed);
    if (!st.ok() && result.ok()) {
      result = st;
    }
  }
  if (flushed) {
    nvm::PersistSiteScope site("backup/apply");
    backup_->Drain();
  }
  return result;
}

Status DynamicBackupStore::RestoreToMain(uint64_t offset, uint64_t size) {
  Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  restores_.fetch_add(1, std::memory_order_relaxed);
  auto it = stripe.index.find(offset);
  if (it == stripe.index.end()) {
    return Status::Corruption("no backup copy for pending object");
  }
  const Entry* e = EntryAt(it->second.bucket);
  if (e->size < size) {
    return Status::Corruption("backup copy smaller than restore range");
  }
  nvm::PersistSiteScope site("backup/restore");
  std::memcpy(static_cast<uint8_t*>(main_->At(offset)), backup_->At(e->backup_off), size);
  main_->Persist(main_->At(offset), size);
  return Status::Ok();
}

void DynamicBackupStore::Invalidate(uint64_t offset) {
  Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.index.find(offset);
  if (it == stripe.index.end()) {
    return;
  }
  RemoveEntryLocked(offset, it->second);
}

void DynamicBackupStore::Pin(uint64_t offset) {
  Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.index.find(offset);
  if (it != stripe.index.end()) {
    ++it->second.pins;
  }
}

void DynamicBackupStore::Unpin(uint64_t offset) {
  Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.index.find(offset);
  if (it != stripe.index.end() && it->second.pins > 0) {
    --it->second.pins;
  }
}

uint64_t DynamicBackupStore::backup_bytes() const { return backup_->size(); }

Status DynamicBackupStore::ReadAt(uint64_t offset, uint64_t size, void* out) {
  if (offset > main_->size() || size > main_->size() - offset) {
    return Status::InvalidArgument("backup read out of range");
  }
  Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.index.find(offset);
  if (it == stripe.index.end()) {
    // Miss ⇒ no writer has inserted a pre-image for this object, so no
    // in-place store has begun (EnsureBackupCopy runs under this stripe lock
    // strictly before the writer's first main-heap store) and applies are
    // fenced out by the cut gate — the main heap holds exactly the cut
    // bytes. Holding the stripe lock across the memcpy is what makes this
    // "epoch-checked": a racing writer blocks until our copy completes.
    std::memcpy(out, main_->At(offset), size);
    read_misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
  // Hit: the resident copy is either the last applied state (applies refresh
  // it in place, under the gate) or an in-flight writer's pinned pre-image —
  // in both cases the cut state. Bytes past the copied prefix lie outside
  // every writer's declared range and are read from main under the same lock.
  const Entry* e = EntryAt(it->second.bucket);
  const uint64_t copied = std::min(size, e->size);
  std::memcpy(out, backup_->At(e->backup_off), copied);
  if (copied < size) {
    std::memcpy(static_cast<uint8_t*>(out) + copied, main_->At(offset + copied),
                size - copied);
  }
  read_hits_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

BackupStats DynamicBackupStore::stats() const {
  BackupStats s;
  s.ensure_hits = ensure_hits_.load(std::memory_order_relaxed);
  s.ensure_misses = ensure_misses_.load(std::memory_order_relaxed);
  s.applies = applies_.load(std::memory_order_relaxed);
  s.restores = restores_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.batch_applies = batch_applies_.load(std::memory_order_relaxed);
  AddCutStats(&s);
  return s;
}

void DynamicBackupStore::CompactAfterRecovery() {
  // Post-recovery, single-writer context; take every stripe in index order
  // (nothing else blocks on a second stripe, so the order is safe).
  std::vector<std::unique_lock<std::mutex>> guards;
  guards.reserve(kStripes);
  for (Stripe& s : stripes_) {
    guards.emplace_back(s.mu);
  }
  // Slots referenced by valid lookup-table entries are live; anything else
  // in the slot allocator was orphaned by a crash mid-eviction/insert.
  std::unordered_map<uint64_t, bool> referenced;
  for (const Stripe& s : stripes_) {
    for (const auto& [key, ve] : s.index) {
      (void)key;
      referenced.emplace(EntryAt(ve.bucket)->backup_off, true);
    }
  }
  std::vector<uint64_t> orphans;
  slot_alloc_->ForEachAllocation([&](uint64_t off, uint64_t size) {
    (void)size;
    if (referenced.find(off) == referenced.end()) {
      orphans.push_back(off);
    }
  });
  for (uint64_t off : orphans) {
    (void)slot_alloc_->FreeRaw(off);
  }
}

bool DynamicBackupStore::HasCopy(uint64_t offset) const {
  const Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  return stripe.index.count(offset) != 0;
}

uint64_t DynamicBackupStore::resident_copies() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> guard(s.mu);
    total += s.index.size();
  }
  return total;
}

uint32_t DynamicBackupStore::PinCount(uint64_t offset) const {
  const Stripe& stripe = stripes_[StripeFor(offset)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.index.find(offset);
  return it == stripe.index.end() ? 0 : it->second.pins;
}

}  // namespace kamino::txn
