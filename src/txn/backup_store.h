// Backup version of the heap (paper §3 "backup version", §4 "dynamic backup").
//
// The backup store answers four questions for the Kamino engine:
//   - EnsureBackupCopy: before a transaction is allowed to modify an object
//     in place, a consistent pre-transaction copy must exist ("Kamino-Tx
//     ensures existence of a consistent copy of each persistent object before
//     allowing a program to modify it"). For the full backup this is free;
//     for the dynamic backup a miss costs one critical-path copy (the paper's
//     stated trade-off for α < 1).
//   - ApplyFromMain: roll the backup forward after commit (async applier, or
//     recovery of a committed transaction).
//   - RestoreToMain: roll the main version back (abort, or recovery of an
//     incomplete transaction).
//   - Invalidate: drop the copy of a freed object.
//
// FullBackupStore mirrors the entire pool at identical offsets
// (Kamino-Tx-Simple, storage 2 × dataSize). DynamicBackupStore keeps copies
// of only the hottest objects in a pool of size ≈ α × dataSize, indexed by a
// *persistent* open-addressing hash table (recovery needs it) plus a volatile
// LRU for eviction (paper Figure 7, §6.4). Pinned (pending) objects are never
// evicted.

#ifndef SRC_TXN_BACKUP_STORE_H_
#define SRC_TXN_BACKUP_STORE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/common/status.h"
#include "src/nvm/pool.h"

namespace kamino::txn {

struct BackupStats {
  uint64_t ensure_hits = 0;
  uint64_t ensure_misses = 0;  // Critical-path copies (dynamic only).
  uint64_t applies = 0;
  uint64_t restores = 0;
  uint64_t evictions = 0;
  uint64_t batch_applies = 0;  // ApplyBatchFromMain calls.

  // Backup-epoch read path (DESIGN.md §12).
  uint64_t read_hits = 0;    // Snapshot object reads served from a backup copy.
  uint64_t read_misses = 0;  // Dynamic only: epoch-checked main-heap fallbacks.
  uint64_t snapshot_views = 0;
  uint64_t cut_fence_waits = 0;     // Readers that waited out an apply batch.
  uint64_t apply_fence_waits = 0;   // Apply batches that waited on readers.
  uint64_t cuts = 0;                // Apply-cut sections completed.
};

// One main-heap range the applier wants rolled forward into the backup.
struct ApplyRange {
  uint64_t offset = 0;
  uint64_t size = 0;
};

class BackupStore {
 public:
  virtual ~BackupStore() = default;

  // --- Backup-epoch read interface (DESIGN.md §12) ---------------------------
  //
  // The backup is a transaction-consistent image of the heap at a cut between
  // apply batches: write sets of in-flight committed transactions are pairwise
  // disjoint and dependent transactions block on write locks held until apply,
  // so the applied set is causally closed — any state observed *between* (not
  // during) apply batches is a consistent snapshot. The cut gate below is the
  // only mechanism needed: appliers share entry among themselves (their
  // applies commute), snapshot readers share among themselves (reads), and
  // the two groups are mutually exclusive. Fairness alternates turns so a
  // stream of analytics chunks cannot starve appliers (which would exhaust
  // log slots and stall every writer), nor appliers starve readers.
  //
  // A SnapshotView is the reader side of the gate: while held, the backup is
  // frozen at `epoch()` — the durably stamped cut (LogManager::backup_epoch),
  // never a value that could be lost to a crash.
  class SnapshotView {
   public:
    SnapshotView() = default;
    SnapshotView(SnapshotView&& o) noexcept : store_(o.store_), epoch_(o.epoch_) {
      o.store_ = nullptr;
    }
    SnapshotView& operator=(SnapshotView&& o) noexcept {
      if (this != &o) {
        Release();
        store_ = o.store_;
        epoch_ = o.epoch_;
        o.store_ = nullptr;
      }
      return *this;
    }
    SnapshotView(const SnapshotView&) = delete;
    SnapshotView& operator=(const SnapshotView&) = delete;
    ~SnapshotView() { Release(); }

    bool valid() const { return store_ != nullptr; }
    uint64_t epoch() const { return epoch_; }

    // Copies the cut-consistent bytes of [offset, offset+size) into `out`.
    Status Read(uint64_t offset, uint64_t size, void* out) {
      return store_->ReadAt(offset, size, out);
    }

    void Release();

   private:
    friend class BackupStore;
    SnapshotView(BackupStore* store, uint64_t epoch) : store_(store), epoch_(epoch) {}
    BackupStore* store_ = nullptr;
    uint64_t epoch_ = 0;
  };

  virtual bool supports_snapshot_reads() const { return false; }

  // Opens a snapshot view at the current advertised cut. Blocks while an
  // apply batch is mid-flight (bounded by one applier batch). NotSupported
  // for stores without a readable copy (chain replicas).
  Result<SnapshotView> OpenSnapshot();

  // Reads [offset, offset+size) as of the cut into `out`. Requires a
  // SnapshotView held by the calling thread (appliers gated); prefer
  // SnapshotView::Read. Full mirror: direct copy. Dynamic: resident copy
  // (the pre-image of any in-flight writer — exactly the cut state), with an
  // epoch-checked main-heap fallback for misses (see DynamicBackupStore).
  virtual Status ReadAt(uint64_t offset, uint64_t size, void* out) {
    (void)offset;
    (void)size;
    (void)out;
    return Status::NotSupported("backup store has no snapshot read path");
  }

  // Applier side of the cut gate: EnterApplyCut before the first backup
  // mutation of an apply batch (apply/unpin/invalidate), ExitApplyCut after
  // the last. Multiple appliers may hold the apply side concurrently.
  void EnterApplyCut();
  void ExitApplyCut();

  // Publishes a durably stamped epoch to readers (monotone max). The caller
  // must have persisted `epoch` via LogManager::SetBackupEpoch first —
  // readers are only ever told epochs that survive a crash.
  void PublishCutEpoch(uint64_t epoch);
  // Seeds the advertised epoch at create/open/recovery time.
  void InitCutEpoch(uint64_t epoch) { cut_epoch_.store(epoch, std::memory_order_release); }
  uint64_t cut_epoch() const { return cut_epoch_.load(std::memory_order_acquire); }

  // Guarantees a consistent pre-transaction copy of [offset, offset+size)
  // exists. Must be called (and completed) before the range is modified.
  // With `pin`, the copy is atomically pinned against eviction (released via
  // Unpin once the applier has synced it, or on abort).
  virtual Status EnsureBackupCopy(uint64_t offset, uint64_t size, bool pin = false) = 0;

  // Copies main -> backup for the range; creates the copy if absent.
  virtual Status ApplyFromMain(uint64_t offset, uint64_t size) = 0;

  // Rolls a whole transaction's write set forward with batched persistence:
  // implementations flush each range and pay at most one drain for the whole
  // batch (the Marathe-style flush-coalescing discipline), instead of one
  // Persist per object. `coalesced_out`, when non-null, receives the number
  // of input ranges merged away by adjacent/overlap coalescing (0 if the
  // store cannot merge). `ranges` is the caller's scratch: a store may sort
  // and merge it in place rather than copy it. The default implementation is
  // the unbatched loop.
  //
  // Durability contract: the batch is only guaranteed durable once the call
  // returns; callers must not release the intent-log slot before that.
  virtual Status ApplyBatchFromMain(std::vector<ApplyRange>* ranges,
                                    uint64_t* coalesced_out = nullptr);

  // Copies backup -> main for the range. Fails with kCorruption if no copy
  // exists (the engine's invariants guarantee one does).
  virtual Status RestoreToMain(uint64_t offset, uint64_t size) = 0;

  // Forgets the copy anchored at `offset` (object freed).
  virtual void Invalidate(uint64_t offset) = 0;

  // Eviction guards for in-flight objects. No-ops for the full backup.
  virtual void Pin(uint64_t offset) { (void)offset; }
  virtual void Unpin(uint64_t offset) { (void)offset; }

  // NVM bytes this store occupies (for Table 1 / Figure 16 accounting).
  virtual uint64_t backup_bytes() const = 0;

  virtual BackupStats stats() const = 0;

  // Post-recovery housekeeping. The dynamic store reclaims backup slots
  // orphaned by a crash between an entry's tombstone and its replacement
  // (a bounded leak otherwise). No-op for other stores.
  virtual void CompactAfterRecovery() {}

  // Online-recovery reconcile (DESIGN.md §10): re-derives the backup copy of
  // each range from the (authoritative, post-replay) main heap. Idempotent —
  // re-running after a crash only repeats work. Returns the number of bytes
  // copied. Stores whose copies are created lazily from main (dynamic) or
  // that keep no copies (null) have nothing to reconcile and return 0.
  virtual Result<uint64_t> ReconcileRanges(const std::vector<ApplyRange>& ranges) {
    (void)ranges;
    return uint64_t{0};
  }

 protected:
  // Merges the cut-gate / snapshot-read counters into `s` (called by derived
  // stats() implementations).
  void AddCutStats(BackupStats* s) const;

  // Bumped by derived ReadAt implementations.
  std::atomic<uint64_t> read_hits_{0};
  std::atomic<uint64_t> read_misses_{0};

 private:
  void ReleaseSnapshot();

  // Two-group cut gate (see the SnapshotView comment). All counts guarded by
  // cut_mu_; applier_turn_ hands the gate to waiting appliers when the last
  // reader leaves, and back when the last applier leaves.
  mutable std::mutex cut_mu_;
  std::condition_variable cut_cv_;
  int active_appliers_ = 0;
  int waiting_appliers_ = 0;
  int active_readers_ = 0;
  int waiting_readers_ = 0;
  bool applier_turn_ = false;

  // Advertised cut epoch: always a durably stamped value (floor semantics).
  std::atomic<uint64_t> cut_epoch_{0};

  std::atomic<uint64_t> snapshot_views_{0};
  std::atomic<uint64_t> cut_fence_waits_{0};
  std::atomic<uint64_t> apply_fence_waits_{0};
  std::atomic<uint64_t> cuts_{0};
};

// --- Kamino-Tx-Simple: full mirror -----------------------------------------

class FullBackupStore : public BackupStore {
 public:
  // `backup` must be at least as large as `main`. Offsets are shared.
  FullBackupStore(nvm::Pool* main, nvm::Pool* backup);

  Status EnsureBackupCopy(uint64_t offset, uint64_t size, bool pin = false) override;
  Status ApplyFromMain(uint64_t offset, uint64_t size) override;
  // Coalesces adjacent/overlapping ranges (in place), flushes each merged
  // range, drains once — O(1) drains per transaction regardless of
  // write-set size.
  Status ApplyBatchFromMain(std::vector<ApplyRange>* ranges,
                            uint64_t* coalesced_out = nullptr) override;
  Status RestoreToMain(uint64_t offset, uint64_t size) override;
  void Invalidate(uint64_t offset) override;
  uint64_t backup_bytes() const override;
  BackupStats stats() const override;

  // The full mirror must actually copy: its backup offsets are read blind at
  // the next recovery, so every live range has to match main again before the
  // dirty map may call the mirror consistent.
  Result<uint64_t> ReconcileRanges(const std::vector<ApplyRange>& ranges) override;

  // Snapshot reads: the mirror shares offsets with main and — under the cut
  // gate — holds exactly the applied (cut) state, so every read hits.
  bool supports_snapshot_reads() const override { return true; }
  Status ReadAt(uint64_t offset, uint64_t size, void* out) override;

  // Bulk main -> backup copy, for non-transactional bulk loads and for
  // building a backup on a new chain head (paper §5.2).
  void SyncAll();

 private:
  nvm::Pool* main_;
  nvm::Pool* backup_;
  std::atomic<uint64_t> applies_{0};
  std::atomic<uint64_t> restores_{0};
  std::atomic<uint64_t> batch_applies_{0};
};

// --- Kamino-Tx-Chain replica: no local backup --------------------------------

// Non-head chain replicas keep no copies at all (paper §5): their neighbours
// in the chain are the backup. Ensure/Apply are free; Restore fails loudly —
// replica recovery fetches object state from a neighbour instead (the
// chain's roll-forward / roll-back protocol, §5.3).
class NullBackupStore : public BackupStore {
 public:
  Status EnsureBackupCopy(uint64_t, uint64_t, bool) override { return Status::Ok(); }
  Status ApplyFromMain(uint64_t, uint64_t) override { return Status::Ok(); }
  Status RestoreToMain(uint64_t, uint64_t) override {
    return Status::Internal("chain replica has no local backup; recover from a neighbour");
  }
  void Invalidate(uint64_t) override {}
  uint64_t backup_bytes() const override { return 0; }
  BackupStats stats() const override { return BackupStats{}; }
};

// --- Kamino-Tx-Dynamic: partial backup --------------------------------------

struct DynamicBackupOptions {
  // Number of persistent lookup-table buckets (power of two). Should be at
  // least ~2x the expected number of resident copies.
  uint64_t lookup_buckets = 1 << 16;

  // Copy budget in bytes (the paper's α × dataSize). Eviction keeps the sum
  // of resident copy sizes at or below this. 0 means "bounded only by the
  // backup pool's capacity".
  uint64_t budget_bytes = 0;
};

class DynamicBackupStore : public BackupStore {
 public:
  // Pool size needed for a copy budget of `data_budget_bytes` (the paper's
  // α × dataSize) with the given table size.
  static uint64_t RequiredPoolSize(uint64_t data_budget_bytes, uint64_t lookup_buckets);

  // Formats `backup` as a fresh dynamic backup region.
  static Result<std::unique_ptr<DynamicBackupStore>> Create(nvm::Pool* main, nvm::Pool* backup,
                                                            const DynamicBackupOptions& options);

  // Reattaches after a restart; rebuilds the volatile index and LRU from the
  // persistent lookup table.
  static Result<std::unique_ptr<DynamicBackupStore>> Open(nvm::Pool* main, nvm::Pool* backup);

  Status EnsureBackupCopy(uint64_t offset, uint64_t size, bool pin = false) override;
  Status ApplyFromMain(uint64_t offset, uint64_t size) override;
  // Per-object ranges only (the caller must NOT merge ranges across object
  // boundaries — copies are keyed by object offset). Resident copies are
  // flushed without draining and a single drain finishes the batch; misses
  // (fresh allocations) fall back to the insert path.
  Status ApplyBatchFromMain(std::vector<ApplyRange>* ranges,
                            uint64_t* coalesced_out = nullptr) override;
  Status RestoreToMain(uint64_t offset, uint64_t size) override;
  void Invalidate(uint64_t offset) override;
  void Pin(uint64_t offset) override;
  void Unpin(uint64_t offset) override;
  uint64_t backup_bytes() const override;
  BackupStats stats() const override;

  // Snapshot reads for the partial backup (DESIGN.md §12). A resident copy
  // is the pre-image of any in-flight writer — exactly the cut state; the
  // tail of a request past the copy's declared write range comes from main
  // (untouched by that writer). A miss falls back to an epoch-checked main
  // read: both the lookup and the main copy-out happen under the object's
  // stripe lock, which any new writer must take to insert its pre-image
  // *before* its first in-place store — so a miss proves no writer has
  // touched the object since the cut, and main holds the cut bytes.
  bool supports_snapshot_reads() const override { return true; }
  Status ReadAt(uint64_t offset, uint64_t size, void* out) override;

  void CompactAfterRecovery() override;

  // True iff a copy of the object at `offset` is resident (test hook).
  bool HasCopy(uint64_t offset) const;
  uint64_t resident_copies() const;
  // Outstanding pin count on the copy at `offset`, 0 if absent (test hook —
  // lets tests assert that abort/error paths released their pins).
  uint32_t PinCount(uint64_t offset) const;
  // Live bytes in the slot allocator (test hook; includes leaked slots until
  // CompactAfterRecovery runs).
  uint64_t slot_bytes_allocated() const { return slot_alloc_->stats().bytes_allocated; }

 private:
  // Persistent lookup-table entry: one cache line, self-validating. Torn
  // writes are detected by the CRC and treated as free at Open().
  struct Entry {
    uint64_t key;         // Main-heap offset of the object.
    uint64_t backup_off;  // Offset of the copy in the backup pool.
    uint64_t size;
    uint64_t state;       // 0 free, 1 valid, 2 tombstone.
    uint64_t crc;         // Over the four fields above.
    uint64_t pad[3];
  };
  static_assert(sizeof(Entry) == 64);

  struct Superblock {
    uint64_t magic;
    uint64_t version;
    uint64_t lookup_buckets;
    uint64_t table_offset;
    uint64_t alloc_offset;
    uint64_t budget_bytes;
    uint64_t checksum;
  };
  static constexpr uint64_t kMagic = 0x4B414D44594E424Bull;  // "KAMDYNBK"

  struct VolatileEntry {
    uint64_t bucket = 0;
    std::list<uint64_t>::iterator lru_it;
    uint32_t pins = 0;
    bool in_lru = false;
  };

  // --- Lock striping ---------------------------------------------------------
  // The volatile index and the persistent lookup table are partitioned into
  // kStripes independent stripes by key hash, each under its own mutex, so a
  // foreground EnsureBackupCopy runs concurrently with background applies on
  // other objects. The LRU stays global (eviction quality) under its own
  // lock. Lock order: stripe -> lru_mu_; a second stripe (an eviction
  // victim's) is only ever try_lock'ed, so the order cannot deadlock. The
  // persistent table is split into per-stripe bucket regions: insert probing
  // never leaves the owning stripe's region, so no two stripes touch the same
  // Entry. Budget accounting is a global atomic; concurrent inserts may
  // overshoot it transiently by at most one object per stripe.
  static constexpr uint64_t kStripes = 16;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, VolatileEntry> index;
  };

  DynamicBackupStore(nvm::Pool* main, nvm::Pool* backup);

  Status Format(const DynamicBackupOptions& options);
  Status Attach();

  Entry* EntryAt(uint64_t bucket) {
    return reinterpret_cast<Entry*>(static_cast<uint8_t*>(backup_->At(table_offset_)) +
                                    bucket * sizeof(Entry));
  }
  static uint64_t EntryCrc(const Entry& e);
  static uint64_t HashKey(uint64_t key);
  uint64_t StripeFor(uint64_t key) const { return HashKey(key) & (kStripes - 1); }

  // All helpers below require the stripe lock for `key` held.
  // Inserts a copy of main [key, key+size) — allocates a slot (evicting as
  // needed), copies, persists, and publishes the table entry.
  Status InsertCopyLocked(uint64_t key, uint64_t size);
  // Evicts the least-recently-used unpinned copy anywhere in the store.
  // `held_stripe` is the stripe the caller already holds (victims there are
  // removed under the held lock; other stripes are try_lock'ed). False if
  // nothing was evictable.
  bool EvictOneLocked(uint64_t held_stripe);
  // Requires the victim's stripe lock held (== stripe of `key`).
  void RemoveEntryLocked(uint64_t key, VolatileEntry& ve);
  // Finds a free-or-tombstone bucket for `key` by linear probing inside the
  // owning stripe's bucket region.
  Result<uint64_t> FindInsertBucketLocked(uint64_t key);
  // Flush-only roll-forward of one range under its stripe lock; sets
  // `*flushed` when the caller owes a drain. Insert paths persist internally.
  Status ApplyRangeLocked(uint64_t key, uint64_t size, bool* flushed);

  nvm::Pool* main_;
  nvm::Pool* backup_;
  std::unique_ptr<alloc::Allocator> slot_alloc_;  // Internally synchronized.
  uint64_t lookup_buckets_ = 0;
  uint64_t table_offset_ = 0;
  uint64_t budget_bytes_ = 0;
  std::atomic<uint64_t> resident_bytes_{0};

  std::array<Stripe, kStripes> stripes_;

  mutable std::mutex lru_mu_;
  std::list<uint64_t> lru_;  // Front = most recently used. Values are keys.

  std::atomic<uint64_t> ensure_hits_{0};
  std::atomic<uint64_t> ensure_misses_{0};
  std::atomic<uint64_t> applies_{0};
  std::atomic<uint64_t> restores_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> batch_applies_{0};
};

}  // namespace kamino::txn

#endif  // SRC_TXN_BACKUP_STORE_H_
