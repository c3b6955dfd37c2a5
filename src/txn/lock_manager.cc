#include "src/txn/lock_manager.h"

#include <algorithm>
#include <chrono>

namespace kamino::txn {

LockManager::LockManager(const LockOptions& options) : options_(options) {}

void LockManager::SetContentionHook(std::function<bool()> hook) {
  std::lock_guard<std::mutex> lk(hook_mu_);
  contention_hook_ = std::move(hook);
}

bool LockManager::BlockedWait(Shard& shard, std::unique_lock<std::mutex>& lk,
                              const std::function<bool()>& ready) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.timeout_ms);
  std::function<bool()> hook;
  {
    std::lock_guard<std::mutex> hl(hook_mu_);
    hook = contention_hook_;
  }
  if (!hook) {
    return shard.cv.wait_until(lk, deadline, ready);
  }
  // The hook runs outside shard.mu (it takes the applier queues, the cut
  // gate and the log's sequencer mutex). While it makes progress the waiter
  // keeps helping — its blocker may be queued behind the batch just applied —
  // and it sleeps only when there is nothing to apply. The sleep is sliced
  // because new work (or, under epochs, a new open epoch holding the
  // blocker) can appear without anyone notifying this lock's cv.
  constexpr auto kSlice = std::chrono::milliseconds(5);
  for (;;) {
    lk.unlock();
    const bool progressed = hook();
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
    if (shard.cv.wait_until(lk, std::min(deadline, now + kSlice), ready)) {
      return true;
    }
  }
}

Status LockManager::AcquireWrite(uint64_t key, uint64_t txid) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lk(shard.mu);
  Entry& e = shard.entries[key];
  if (e.writer_txid == txid) {
    return Status::Ok();  // Re-entrant.
  }
  counters_.Add(kWriteAcquires);
  if (e.writer_txid == 0 && e.readers == 0) {
    e.writer_txid = txid;
    return Status::Ok();
  }

  // Dependent transaction: wait for the holder (possibly the async applier
  // that has not yet synced the backup) to release.
  counters_.Add(kBlockedAcquires);
  const auto start = std::chrono::steady_clock::now();
  ++e.waiters;
  const bool got = BlockedWait(shard, lk, [&] {
    Entry& cur = shard.entries[key];
    return cur.writer_txid == 0 && cur.readers == 0;
  });
  Entry& cur = shard.entries[key];
  --cur.waiters;
  counters_.Add(kTotalBlockNs,
                static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start)
                                          .count()));
  if (!got) {
    counters_.Add(kTimeouts);
    if (cur.writer_txid == 0 && cur.readers == 0 && cur.waiters == 0) {
      shard.entries.erase(key);
    }
    return Status::TxConflict("write-lock timeout");
  }
  cur.writer_txid = txid;
  return Status::Ok();
}

Status LockManager::AcquireRead(uint64_t key, uint64_t txid) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lk(shard.mu);
  Entry& e = shard.entries[key];
  if (e.writer_txid == txid) {
    return Status::Ok();  // Reader already owns the write lock.
  }
  counters_.Add(kReadAcquires);
  if (e.writer_txid == 0) {
    ++e.readers;
    return Status::Ok();
  }

  counters_.Add(kBlockedAcquires);
  const auto start = std::chrono::steady_clock::now();
  ++e.waiters;
  const bool got = BlockedWait(shard, lk, [&] {
    return shard.entries[key].writer_txid == 0;
  });
  Entry& cur = shard.entries[key];
  --cur.waiters;
  counters_.Add(kTotalBlockNs,
                static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start)
                                          .count()));
  if (!got) {
    counters_.Add(kTimeouts);
    if (cur.writer_txid == 0 && cur.readers == 0 && cur.waiters == 0) {
      shard.entries.erase(key);
    }
    return Status::TxConflict("read-lock timeout");
  }
  ++cur.readers;
  return Status::Ok();
}

void LockManager::ReleaseWrite(uint64_t key, uint64_t txid) {
  Shard& shard = ShardFor(key);
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() || it->second.writer_txid != txid) {
      return;  // Not held by this txid; tolerate double-release.
    }
    it->second.writer_txid = 0;
    notify = true;
    if (it->second.readers == 0 && it->second.waiters == 0) {
      shard.entries.erase(it);
    }
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
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      return;
    }
    // A txid holding the write lock never incremented readers.
    if (it->second.writer_txid == txid) {
      return;
    }
    if (it->second.readers == 0) {
      return;
    }
    if (--it->second.readers == 0) {
      notify = true;
      if (it->second.writer_txid == 0 && it->second.waiters == 0) {
        shard.entries.erase(it);
      }
    }
  }
  if (notify) {
    shard.cv.notify_all();
  }
}

bool LockManager::IsWriteLocked(uint64_t key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.entries.find(key);
  return it != shard.entries.end() && it->second.writer_txid != 0;
}

LockStats LockManager::stats() const {
  LockStats s;
  s.write_acquires = counters_.Sum(kWriteAcquires);
  s.read_acquires = counters_.Sum(kReadAcquires);
  s.blocked_acquires = counters_.Sum(kBlockedAcquires);
  s.timeouts = counters_.Sum(kTimeouts);
  s.total_block_ns = counters_.Sum(kTotalBlockNs);
  return s;
}

}  // namespace kamino::txn
