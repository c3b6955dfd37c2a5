#include "src/txn/lock_manager.h"

#include <algorithm>
#include <chrono>

namespace kamino::txn {

namespace {

// Initial slots per shard; a shard doubles when three quarters full.
constexpr size_t kInitialSlots = 16;

// Home slot of `key` in a table of `mask + 1` slots. The shard index used
// the top bits of one product; this mixes every bit again (splitmix64's
// finalizer) so keys of one shard still spread over its slots.
size_t Home(uint64_t key, size_t mask) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return static_cast<size_t>(key) & mask;
}

// Eases a spin-wait's pressure on the core and its sibling hyperthread.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

LockManager::LockManager(const LockOptions& options) : options_(options) {
  for (Shard& shard : shards_) {
    shard.slots = std::make_unique<Entry[]>(kInitialSlots);
    shard.capacity = kInitialSlots;
  }
}

LockManager::Entry* LockManager::Find(const Shard& shard, uint64_t key) {
  const size_t mask = shard.capacity - 1;
  for (size_t i = Home(key, mask);; i = (i + 1) & mask) {
    Entry& e = shard.slots[i];
    if (!e.used()) {
      return nullptr;
    }
    if (e.key == key) {
      return &e;
    }
  }
}

void LockManager::Grow(Shard& shard) {
  const size_t capacity = shard.capacity * 2;
  auto slots = std::make_unique<Entry[]>(capacity);
  for (size_t i = 0; i < shard.capacity; ++i) {
    const Entry& e = shard.slots[i];
    if (e.used()) {
      size_t j = Home(e.key, capacity - 1);
      while (slots[j].used()) {
        j = (j + 1) & (capacity - 1);
      }
      slots[j] = e;
    }
  }
  shard.slots = std::move(slots);
  shard.capacity = capacity;
}

LockManager::Entry* LockManager::Insert(Shard& shard, uint64_t key) {
  if ((shard.live + 1) * 4 > shard.capacity * 3) {
    Grow(shard);
  }
  const size_t mask = shard.capacity - 1;
  size_t i = Home(key, mask);
  while (shard.slots[i].used()) {
    i = (i + 1) & mask;
  }
  shard.slots[i] = Entry{key, 0, 0, 0, false};
  ++shard.live;
  return &shard.slots[i];
}

void LockManager::EraseIfUnused(Shard& shard, Entry* e) {
  if (e->used()) {
    return;
  }
  // Backward-shift delete: walk the run after the hole and move back every
  // entry whose home slot does not lie cyclically in (hole, its slot], so
  // every remaining key stays reachable from its home without tombstones.
  const size_t mask = shard.capacity - 1;
  size_t hole = static_cast<size_t>(e - shard.slots.get());
  for (size_t j = (hole + 1) & mask; shard.slots[j].used(); j = (j + 1) & mask) {
    const size_t home = Home(shard.slots[j].key, mask);
    const bool stays = hole < j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (!stays) {
      shard.slots[hole] = shard.slots[j];
      hole = j;
    }
  }
  shard.slots[hole] = Entry{};
  --shard.live;
}

bool LockManager::Wakes(Shard& shard, const Entry& e) {
  if (e.waiters == 0) {
    return false;
  }
  shard.releases.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void LockManager::SetContentionHook(std::function<bool(bool)> hook) {
  contention_hook_ = std::move(hook);
}

bool LockManager::BlockedWait(Shard& shard, std::unique_lock<std::mutex>& lk,
                              FunctionRef<bool()> ready) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.timeout_ms);
  const std::function<bool(bool)>& hook = contention_hook_;
  if (!hook) {
    return shard.cv.wait_until(lk, deadline, ready);
  }
  // The hook runs outside shard.mu (it takes the applier queues, the cut
  // gate and the log's sequencer mutex). While it makes progress the waiter
  // keeps helping — its blocker may be queued behind the batch just applied —
  // and once there is nothing to apply its blocker is in another thread's
  // batch, usually microseconds from its release. So the waiter first spins
  // on the shard's release count (a plain load, not the mutex) for up to
  // kSpin, which skips the futex sleep and wake-up on that common path, and
  // only then sleeps. The sleep is sliced because new work (or, under
  // epochs, a new open epoch holding the blocker) can appear without anyone
  // notifying this lock's cv.
  constexpr auto kSlice = std::chrono::milliseconds(5);
  constexpr auto kSpin = std::chrono::microseconds(50);
  bool spun = false;
  for (;;) {
    lk.unlock();
    const bool progressed = hook(/*waiting=*/true);
    lk.lock();
    if (ready()) {
      return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    if (progressed) {
      continue;
    }
    if (!spun) {
      spun = true;
      const auto spin_end = std::min(deadline, now + kSpin);
      uint64_t seen = shard.releases.load(std::memory_order_relaxed);
      lk.unlock();
      while (std::chrono::steady_clock::now() < spin_end) {
        if (shard.releases.load(std::memory_order_relaxed) == seen) {
          CpuRelax();
          continue;
        }
        lk.lock();
        if (ready()) {
          return true;
        }
        seen = shard.releases.load(std::memory_order_relaxed);
        lk.unlock();
      }
      lk.lock();
      continue;  // One more helping pass before the first sleep.
    }
    if (shard.cv.wait_until(lk, std::min(deadline, now + kSlice), ready)) {
      return true;
    }
  }
}

void LockManager::CountBlocked(std::chrono::steady_clock::time_point start, bool got,
                               bool read) {
  const auto ns = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - start)
                                            .count());
  counters_.Add(kTotalBlockNs, ns);
  if (read) {
    counters_.Add(kReadBlockNs, ns);
  }
  if (!got) {
    counters_.Add(kTimeouts);
  }
}

Status LockManager::AcquireWrite(uint64_t key, uint64_t txid) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lk(shard.mu);
  Entry* e = Find(shard, key);
  if ((e == nullptr ? 0 : e->writer_txid) == txid) {
    return Status::Ok();  // Re-entrant.
  }
  counters_.Add(kWriteAcquires);
  if (e == nullptr) {
    Insert(shard, key)->writer_txid = txid;
    return Status::Ok();
  }
  if (e->writer_txid == 0 && e->readers == 0) {
    e->writer_txid = txid;
    return Status::Ok();
  }

  // Dependent transaction: wait for the holder (possibly the async applier
  // that has not yet synced the backup) to release. Our waiter count keeps
  // the entry in the table, so every re-look-up below finds it.
  counters_.Add(kBlockedAcquires);
  const auto start = std::chrono::steady_clock::now();
  ++e->waiters;
  const bool got = BlockedWait(shard, lk, [&] {
    const Entry* cur = Find(shard, key);
    return cur->writer_txid == 0 && cur->readers == 0;
  });
  Entry* cur = Find(shard, key);
  --cur->waiters;
  CountBlocked(start, got, /*read=*/false);
  if (!got) {
    EraseIfUnused(shard, cur);
    return Status::TxConflict("write-lock timeout");
  }
  cur->writer_txid = txid;
  return Status::Ok();
}

Status LockManager::AcquireRead(uint64_t key, uint64_t txid, uint64_t* passed_writer) {
  if (passed_writer != nullptr) {
    *passed_writer = 0;
  }
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lk(shard.mu);
  Entry* e = Find(shard, key);
  const uint64_t writer = e == nullptr ? 0 : e->writer_txid;
  if (writer == txid) {
    return Status::Ok();  // Reader already owns the write lock.
  }
  counters_.Add(kReadAcquires);
  if (writer == 0) {
    ++(e == nullptr ? Insert(shard, key) : e)->readers;
    return Status::Ok();
  }
  if (e->committed) {
    // Main holds the writer's durable committed bytes: read them now. The
    // one hook pass keeps this reader helping the applier as a blocked
    // reader would have (dependent writers lean on those helpers), but it
    // waits for nothing.
    ++e->readers;
    if (passed_writer != nullptr) {
      *passed_writer = writer;
    }
    lk.unlock();
    if (contention_hook_) {
      (void)contention_hook_(/*waiting=*/false);
    }
    return Status::Ok();
  }

  counters_.Add(kBlockedAcquires);
  counters_.Add(kReadBlockedAcquires);
  const auto start = std::chrono::steady_clock::now();
  ++e->waiters;
  const bool got = BlockedWait(shard, lk, [&] {
    const Entry* cur = Find(shard, key);
    return cur->writer_txid == 0 || cur->committed;
  });
  Entry* cur = Find(shard, key);
  --cur->waiters;
  CountBlocked(start, got, /*read=*/true);
  if (!got) {
    EraseIfUnused(shard, cur);
    return Status::TxConflict("read-lock timeout");
  }
  ++cur->readers;
  if (passed_writer != nullptr) {
    *passed_writer = cur->writer_txid;
  }
  return Status::Ok();
}

void LockManager::MarkCommitted(uint64_t key, uint64_t txid) {
  Shard& shard = ShardFor(key);
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    Entry* e = Find(shard, key);
    if (e == nullptr || e->writer_txid != txid) {
      return;
    }
    e->committed = true;
    notify = Wakes(shard, *e);
  }
  if (notify) {
    shard.cv.notify_all();
  }
}

Status LockManager::WaitReleased(uint64_t key, uint64_t writer_txid) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lk(shard.mu);
  Entry* e = Find(shard, key);
  if (e == nullptr || e->writer_txid != writer_txid) {
    return Status::Ok();
  }
  // Counted as a read-mode blocked wait: the caller read past this writer
  // and now waits for it as a blocked reader would have.
  counters_.Add(kBlockedAcquires);
  counters_.Add(kReadBlockedAcquires);
  const auto start = std::chrono::steady_clock::now();
  ++e->waiters;
  const bool got =
      BlockedWait(shard, lk, [&] { return Find(shard, key)->writer_txid != writer_txid; });
  Entry* cur = Find(shard, key);
  --cur->waiters;
  CountBlocked(start, got, /*read=*/true);
  EraseIfUnused(shard, cur);
  return got ? Status::Ok() : Status::TxConflict("commit-time wait timeout");
}

void LockManager::ReleaseWrite(uint64_t key, uint64_t txid) {
  Shard& shard = ShardFor(key);
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    Entry* e = Find(shard, key);
    if (e == nullptr || e->writer_txid != txid) {
      return;  // Not held by this txid; tolerate double-release.
    }
    e->writer_txid = 0;
    e->committed = false;
    notify = Wakes(shard, *e);
    EraseIfUnused(shard, e);
  }
  if (notify) {
    shard.cv.notify_all();
  }
}

void LockManager::ReleaseRead(uint64_t key, uint64_t txid) {
  Shard& shard = ShardFor(key);
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    Entry* e = Find(shard, key);
    // A txid holding the write lock never incremented readers.
    if (e == nullptr || e->writer_txid == txid || e->readers == 0) {
      return;
    }
    if (--e->readers == 0) {
      notify = Wakes(shard, *e);
      EraseIfUnused(shard, e);
    }
  }
  if (notify) {
    shard.cv.notify_all();
  }
}

bool LockManager::IsWriteLocked(uint64_t key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  const Entry* e = Find(shard, key);
  return e != nullptr && e->writer_txid != 0;
}

size_t LockManager::LiveEntriesForTest() const {
  size_t live = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    live += shard.live;
  }
  return live;
}

LockStats LockManager::stats() const {
  LockStats s;
  s.write_acquires = counters_.Sum(kWriteAcquires);
  s.read_acquires = counters_.Sum(kReadAcquires);
  s.blocked_acquires = counters_.Sum(kBlockedAcquires);
  s.timeouts = counters_.Sum(kTimeouts);
  s.total_block_ns = counters_.Sum(kTotalBlockNs);
  s.read_blocked_acquires = counters_.Sum(kReadBlockedAcquires);
  s.read_block_ns = counters_.Sum(kReadBlockNs);
  return s;
}

}  // namespace kamino::txn
