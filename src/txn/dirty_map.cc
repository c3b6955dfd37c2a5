#include "src/txn/dirty_map.h"

#include <algorithm>

namespace kamino::txn {

DirtyMap::DirtyMap(uint64_t base, uint64_t size, uint64_t chunk_bytes)
    : base_(base), chunk_bytes_(chunk_bytes == 0 ? 1ull << 20 : chunk_bytes) {
  num_chunks_ = (size + chunk_bytes_ - 1) / chunk_bytes_;
  state_ = std::make_unique<std::atomic<uint8_t>[]>(num_chunks_);
  for (uint64_t i = 0; i < num_chunks_; ++i) {
    state_[i].store(kDirty, std::memory_order_relaxed);
  }
  dirty_remaining_.store(num_chunks_, std::memory_order_relaxed);
}

void DirtyMap::MarkCleanInitial(uint64_t chunk) {
  if (chunk >= num_chunks_ || state_[chunk].load(std::memory_order_relaxed) == kClean) {
    return;
  }
  state_[chunk].store(kClean, std::memory_order_relaxed);
  dirty_remaining_.fetch_sub(1, std::memory_order_relaxed);
}

void DirtyMap::Seal() {
  std::lock_guard<std::mutex> lk(mu_);
  while (frontier_ < num_chunks_ &&
         state_[frontier_].load(std::memory_order_relaxed) == kClean) {
    ++frontier_;
  }
  scan_cursor_ = frontier_;
  initially_dirty_ = dirty_remaining_.load(std::memory_order_relaxed);
}

bool DirtyMap::IsClean(uint64_t offset, uint64_t size) const {
  if (num_chunks_ == 0 || offset < base_ || size == 0) {
    return true;
  }
  const uint64_t first = chunk_of(offset);
  const uint64_t last = std::min(chunk_of(offset + size - 1), num_chunks_ - 1);
  for (uint64_t c = first; c <= last && c < num_chunks_; ++c) {
    if (state_[c].load(std::memory_order_acquire) != kClean) {
      return false;
    }
  }
  return true;
}

Status DirtyMap::ReconcileClaimedLocked(std::unique_lock<std::mutex>& lk, uint64_t chunk,
                                        const ReconcileFn& fn) {
  lk.unlock();
  Status st = fn(chunk);
  lk.lock();
  FinishChunkLocked(chunk, st.ok());
  return st;
}

Status DirtyMap::EnsureClean(uint64_t offset, uint64_t size, const ReconcileFn& fn) {
  if (IsClean(offset, size)) {
    return Status::Ok();
  }
  fence_waits_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t first = offset < base_ ? 0 : chunk_of(offset);
  const uint64_t last = std::min(chunk_of(offset + size - 1), num_chunks_ - 1);
  Status result = Status::Ok();
  std::unique_lock<std::mutex> lk(mu_);
  for (uint64_t c = first; c <= last; ++c) {
    for (;;) {
      const uint8_t s = state_[c].load(std::memory_order_relaxed);
      if (s == kClean) {
        break;
      }
      if (s == kDirty) {
        state_[c].store(kReconciling, std::memory_order_relaxed);
        ondemand_reconciles_.fetch_add(1, std::memory_order_relaxed);
        Status st = ReconcileClaimedLocked(lk, c, fn);
        if (!st.ok()) {
          if (result.ok()) {
            result = st;
          }
          break;  // Left dirty; report rather than spin on a failing chunk.
        }
        continue;  // Re-check: FinishChunkLocked marked it clean.
      }
      // Someone else is reconciling this chunk; wait for the verdict.
      cv_.wait(lk);
    }
  }
  return result;
}

bool DirtyMap::ClaimNext(uint64_t* chunk) {
  std::lock_guard<std::mutex> lk(mu_);
  for (uint64_t c = scan_cursor_; c < num_chunks_; ++c) {
    if (state_[c].load(std::memory_order_relaxed) == kDirty) {
      state_[c].store(kReconciling, std::memory_order_relaxed);
      scan_cursor_ = c + 1;
      *chunk = c;
      return true;
    }
  }
  // Wrap once: a failed reconcile may have re-dirtied a chunk behind us.
  for (uint64_t c = frontier_; c < scan_cursor_ && c < num_chunks_; ++c) {
    if (state_[c].load(std::memory_order_relaxed) == kDirty) {
      state_[c].store(kReconciling, std::memory_order_relaxed);
      scan_cursor_ = c + 1;
      *chunk = c;
      return true;
    }
  }
  return false;
}

void DirtyMap::FinishChunk(uint64_t chunk, bool ok) {
  std::lock_guard<std::mutex> lk(mu_);
  FinishChunkLocked(chunk, ok);
}

void DirtyMap::FinishChunkLocked(uint64_t chunk, bool ok) {
  // Publish with release so a fencing thread's lock-free IsClean fast path
  // observing kClean also observes the reconciled backup bytes.
  state_[chunk].store(ok ? kClean : kDirty, std::memory_order_release);
  if (ok) {
    dirty_remaining_.fetch_sub(1, std::memory_order_release);
    while (frontier_ < num_chunks_ &&
           state_[frontier_].load(std::memory_order_relaxed) == kClean) {
      ++frontier_;
    }
  }
  cv_.notify_all();
}

uint64_t DirtyMap::clean_frontier() const {
  std::lock_guard<std::mutex> lk(mu_);
  return frontier_;
}

DirtyMapStats DirtyMap::stats() const {
  DirtyMapStats s;
  s.total_chunks = num_chunks_;
  s.initially_dirty = initially_dirty_;
  s.dirty_remaining = dirty_remaining_.load(std::memory_order_relaxed);
  s.fence_waits = fence_waits_.load(std::memory_order_relaxed);
  s.ondemand_reconciles = ondemand_reconciles_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace kamino::txn
