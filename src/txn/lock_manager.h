// Object-granularity reader/writer locks (paper §3, §6.3).
//
// Kamino-Tx declares write intent by taking an object-level lock; the lock is
// *not* released at commit. It stays held until the background Transaction
// Coordinator has made the main and backup versions identical for that
// object, which is exactly how dependent writers (whose write set intersects
// a prior transaction's write set) are made to wait. Locks live in volatile
// memory: after a crash, the write intents in the log are enough to
// reconstruct what was pending (paper §6.2), so nothing here is persistent.
//
// Committed-pending entries. Once the writer's commit is durable the engine
// marks its keys committed (MarkCommitted). Main already holds the
// committed bytes and the applier only reads main, so a reader passes a
// committed entry instead of waiting for the apply; AcquireRead reports the
// writer it passed. Writers still wait for the release: a dependent writer
// must not overwrite main before the backup holds the committed image
// (DESIGN.md §6). Running and prepared writers block readers as before. A
// transaction that both passed a writer and writes must not commit before
// that writer is released (WaitReleased), which keeps the backup cut
// causally closed (DESIGN.md §12.1); Tx::Commit and Tx::Prepare do that wait.
//
// Deadlock handling: acquisition blocks with a timeout; timing out returns
// kTxConflict and the engine aborts the transaction (locks are acquired
// incrementally as intents are declared, so cycles are possible in principle;
// the paper's workloads acquire per-object locks the same way).

#ifndef SRC_TXN_LOCK_MANAGER_H_
#define SRC_TXN_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "src/common/cacheline.h"
#include "src/common/function_ref.h"
#include "src/common/status.h"
#include "src/common/thread_stripe.h"

namespace kamino::txn {

struct LockOptions {
  // How long an acquisition may block before the transaction is told to
  // abort with kTxConflict. Also bounds dependent-transaction waits if an
  // applier stalls.
  uint64_t timeout_ms = 10'000;
};

// A commit-time wait (WaitReleased) that blocks has no field of its own: it
// counts as a read-mode blocked acquire, in the blocked, time and timeout
// totals and in their read-mode shares.
struct LockStats {
  uint64_t write_acquires = 0;
  uint64_t read_acquires = 0;
  uint64_t blocked_acquires = 0;  // Acquisitions that had to wait (dependent).
  uint64_t timeouts = 0;
  uint64_t total_block_ns = 0;    // Time spent waiting across all acquires.
  // The read-mode share of the two totals above.
  uint64_t read_blocked_acquires = 0;
  uint64_t read_block_ns = 0;
};

class LockManager {
 public:
  explicit LockManager(const LockOptions& options = LockOptions());
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Acquires the write lock on `key` for transaction `txid`. Re-acquisition
  // by the same txid succeeds immediately. Blocks while another transaction
  // holds the lock (in any mode) — including the post-commit window where the
  // applier has not yet synced the backup. Returns kTxConflict on timeout.
  Status AcquireWrite(uint64_t key, uint64_t txid);

  // Acquires a read lock. Blocks while a running or prepared writer holds
  // `key`; passes a committed one, storing its txid in `*passed_writer`
  // (0 when no writer was passed). A reader that passes still runs the
  // contention hook once, without waiting. A txid that already holds the
  // write lock may read freely.
  Status AcquireRead(uint64_t key, uint64_t txid, uint64_t* passed_writer = nullptr);

  // Marks `txid`'s write lock on `key` committed: readers pass it from now
  // on. A no-op unless `txid` holds the write lock. ReleaseWrite clears it.
  void MarkCommitted(uint64_t key, uint64_t txid);

  // Blocks, helping through the contention hook, until `writer_txid` no
  // longer holds the write lock on `key`. Returns kTxConflict on timeout.
  Status WaitReleased(uint64_t key, uint64_t writer_txid);

  void ReleaseWrite(uint64_t key, uint64_t txid);
  void ReleaseRead(uint64_t key, uint64_t txid);

  // True if any transaction currently holds the write lock on `key` (test
  // hook; racy by nature).
  bool IsWriteLocked(uint64_t key) const;

  // Installs a hook invoked — with no internal mutex held — whenever an
  // acquisition is about to block, and again while it waits. The lock table
  // doubles as the dependency tracker: a blocked acquirer is usually a
  // dependent transaction whose blocker is committed but not yet applied, so
  // every Kamino engine installs a hook that runs the applier's own batch
  // step (KaminoEngine::DrainBatch) on the waiter's thread — preceded, under
  // the epoch pipeline, by LogManager::DrainEpoch, since the blocker may be
  // parked in the open epoch that no blocked client would otherwise seal.
  // The hook returns true if it made progress (applied something); the
  // waiter then re-checks its lock and helps again, and once the hook finds
  // nothing to do it spins briefly on the shard's release count, then
  // sleeps. `waiting` is false for the one pass a reader makes after passing
  // a committed entry: that pass must not wait for anything (no epoch seal).
  // Install before concurrent use (the engine constructor) and clear (pass
  // nullptr) after it: acquirers read the hook without a lock.
  void SetContentionHook(std::function<bool(bool waiting)> hook);

  LockStats stats() const;

  // Test-only: entries currently in the table, summed over shards. An entry
  // exists only while its key is held or waited on, so this is 0 whenever no
  // lock is held and nobody waits.
  size_t LiveEntriesForTest() const;

  static constexpr int kShardBits = 6;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;

  // The shard `key` lives in. Keys are pool offsets of allocator blocks,
  // which come in power-of-two strides from 4 KiB-offset chunks: plain low
  // line-index bits would put every 2 KiB value blob in 2 shards and every
  // 512 B tree node in 8, so the line index is Fibonacci-hashed and the top
  // bits of the product pick the shard.
  static size_t ShardIndex(uint64_t key) {
    return static_cast<size_t>(((key >> 6) * 0x9E3779B97F4A7C15ull) >> (64 - kShardBits));
  }

 private:
  // A slot is in use exactly while its key has a writer, readers or waiters;
  // a slot with all three zero is empty (its key is stale). Readers and a
  // writer coexist only while the writer is committed: readers that passed
  // it hold their read locks past its commit.
  struct Entry {
    uint64_t key = 0;
    uint64_t writer_txid = 0;  // 0 = no writer.
    uint32_t readers = 0;
    uint32_t waiters = 0;
    bool committed = false;  // The writer's commit is durable.
    bool used() const { return writer_txid != 0 || readers != 0 || waiters != 0; }
  };

  // Line-aligned so one shard's lock traffic never invalidates another's.
  // The entries are one open-addressing array (linear probing, backward-shift
  // delete, doubling under `mu`): an acquire/release pair allocates nothing
  // once the table has grown to the shard's peak of held keys.
  struct alignas(kCacheLineSize) Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unique_ptr<Entry[]> slots;
    size_t capacity = 0;  // A power of two.
    size_t live = 0;
    // Bumped under mu by every release or commit mark that has waiters, so
    // a spinning waiter polls it instead of the mutex. On its own line:
    // spinners read it while lock traffic writes the line above.
    alignas(kCacheLineSize) std::atomic<uint64_t> releases{0};
  };

  Shard& ShardFor(uint64_t key) { return shards_[ShardIndex(key)]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[ShardIndex(key)]; }

  // Table operations; the caller holds shard.mu. Find returns nullptr for an
  // absent key. Insert adds an empty entry for `key` (absent), growing the
  // table first if needed; the caller must make it used() before unlocking.
  // EraseIfUnused removes the entry once it is no longer used().
  static Entry* Find(const Shard& shard, uint64_t key);
  static Entry* Insert(Shard& shard, uint64_t key);
  static void EraseIfUnused(Shard& shard, Entry* e);
  static void Grow(Shard& shard);

  // Waits on `shard.cv` until `ready()` (evaluated under shard.mu) or the
  // lock timeout. With a contention hook installed the wait drops shard.mu
  // and invokes the hook until it reports no progress, spins up to kSpin on
  // the shard's release count, then sleeps in short slices, calling the hook
  // again between slices; `ready` must re-look-up its Entry each call (the
  // table may grow or shift entries while unlocked).
  bool BlockedWait(Shard& shard, std::unique_lock<std::mutex>& lk, FunctionRef<bool()> ready);
  // Called under shard.mu right after `e` changed in a way its waiters may
  // be waiting for: true if it has waiters (the caller notifies shard.cv
  // once unlocked), after bumping the release count their spins poll.
  static bool Wakes(Shard& shard, const Entry& e);
  // Adds a finished wait's time (and its timeout, if `got` is false) to the
  // totals, and its time to the read-mode share when `read` is set.
  void CountBlocked(std::chrono::steady_clock::time_point start, bool got, bool read);

  LockOptions options_;
  Shard shards_[kNumShards];

  // Written only while no acquirer runs (SetContentionHook).
  std::function<bool(bool)> contention_hook_;

  enum Counter : size_t {
    kWriteAcquires,
    kReadAcquires,
    kBlockedAcquires,
    kTimeouts,
    kTotalBlockNs,
    kReadBlockedAcquires,
    kReadBlockNs,
    kNumCounters
  };
  StripedCounters<kNumCounters> counters_;
};

}  // namespace kamino::txn

#endif  // SRC_TXN_LOCK_MANAGER_H_
