// Dirty map for online backup reconciliation (DESIGN.md §10).
//
// After crash-log replay the engine may open for traffic before the backup
// mirror has been re-verified against the main heap. The dirty map tracks,
// at a fixed chunk granularity over the allocator region, which chunks'
// backup copies are not yet known consistent. Operations about to modify a
// range first fence on it: a clean chunk costs one relaxed atomic load; a
// dirty chunk is reconciled on demand by the fencing thread (or the thread
// waits for the background worker already reconciling it). Chunks only ever
// move dirty -> reconciling -> clean, never back, so the fast path is
// monotone: once an op has seen a chunk clean it stays clean.
//
// The map itself is volatile; crash-resumability comes from the engine
// persisting the contiguous clean frontier (chunks [0, frontier) clean) into
// the log header after every background advance. Chunks reconciled on demand
// beyond the frontier are simply re-reconciled after a crash — reconcile is
// idempotent (main is authoritative), so that only costs work, never
// correctness.

#ifndef SRC_TXN_DIRTY_MAP_H_
#define SRC_TXN_DIRTY_MAP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "src/common/status.h"

namespace kamino::txn {

struct DirtyMapStats {
  uint64_t total_chunks = 0;
  uint64_t initially_dirty = 0;       // Dirty when the map was armed.
  uint64_t dirty_remaining = 0;       // Dirty or reconciling, now.
  uint64_t fence_waits = 0;           // EnsureClean calls that had to block.
  uint64_t ondemand_reconciles = 0;   // Chunks reconciled by fencing threads.
};

class DirtyMap {
 public:
  // Reconciles one chunk (index into this map); invoked either by a fencing
  // thread (on demand) or a background worker. Must be idempotent.
  using ReconcileFn = std::function<Status(uint64_t chunk)>;

  // Covers [base, base + size) in chunks of `chunk_bytes` (last one may be
  // partial). All chunks start dirty.
  DirtyMap(uint64_t base, uint64_t size, uint64_t chunk_bytes);

  uint64_t num_chunks() const { return num_chunks_; }
  uint64_t chunk_of(uint64_t offset) const { return (offset - base_) / chunk_bytes_; }

  // Pre-arm only (single-threaded): marks a chunk clean without reconciling
  // it — chunks with no live objects, or below a persisted resume frontier.
  void MarkCleanInitial(uint64_t chunk);
  // Call once pre-arm marking is done; records initially_dirty.
  void Seal();

  // True iff every chunk overlapping [offset, offset+size) is clean. The
  // fast path for fences; lock-free.
  bool IsClean(uint64_t offset, uint64_t size) const;

  // Fences [offset, offset+size): reconciles every overlapping dirty chunk
  // via `fn` (claiming it) or waits for whoever is already reconciling it.
  // Returns the first reconcile error, leaving failed chunks dirty.
  Status EnsureClean(uint64_t offset, uint64_t size, const ReconcileFn& fn);

  // Background drain: claims the lowest-indexed dirty chunk. False if no
  // chunk is claimable (all clean or being reconciled by others).
  bool ClaimNext(uint64_t* chunk);
  // Completes a claimed chunk: clean on ok, back to dirty on failure.
  void FinishChunk(uint64_t chunk, bool ok);

  bool all_clean() const { return dirty_remaining_.load(std::memory_order_acquire) == 0; }
  // Chunks [0, clean_frontier()) are all clean (persistable resume point).
  uint64_t clean_frontier() const;

  DirtyMapStats stats() const;

 private:
  // Chunk lifecycle; transitions happen under mu_, reads may be lock-free.
  enum State : uint8_t { kDirty = 0, kReconciling = 1, kClean = 2 };

  // Reconciles `chunk` (caller has claimed it under mu_, which is held by
  // `lk` and released around fn). Returns fn's status.
  Status ReconcileClaimedLocked(std::unique_lock<std::mutex>& lk, uint64_t chunk,
                                const ReconcileFn& fn);
  void FinishChunkLocked(uint64_t chunk, bool ok);

  const uint64_t base_;
  const uint64_t chunk_bytes_;
  uint64_t num_chunks_ = 0;

  std::unique_ptr<std::atomic<uint8_t>[]> state_;
  std::atomic<uint64_t> dirty_remaining_{0};
  uint64_t initially_dirty_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t frontier_ = 0;     // Chunks [0, frontier_) clean.
  uint64_t scan_cursor_ = 0;  // ClaimNext resumes scanning here.

  std::atomic<uint64_t> fence_waits_{0};
  std::atomic<uint64_t> ondemand_reconciles_{0};
};

}  // namespace kamino::txn

#endif  // SRC_TXN_DIRTY_MAP_H_
