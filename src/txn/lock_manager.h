// Object-granularity reader/writer locks (paper §3, §6.3).
//
// Kamino-Tx declares write intent by taking an object-level lock; the lock is
// *not* released at commit. It stays held until the background Transaction
// Coordinator has made the main and backup versions identical for that
// object, which is exactly how dependent transactions (whose read/write set
// intersects a prior transaction's write set) are made to wait. Locks live in
// volatile memory: after a crash, the write intents in the log are enough to
// reconstruct what was pending (paper §6.2), so nothing here is persistent.
//
// Deadlock handling: acquisition blocks with a timeout; timing out returns
// kTxConflict and the engine aborts the transaction (locks are acquired
// incrementally as intents are declared, so cycles are possible in principle;
// the paper's workloads acquire per-object locks the same way).

#ifndef SRC_TXN_LOCK_MANAGER_H_
#define SRC_TXN_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "src/common/status.h"

namespace kamino::txn {

struct LockOptions {
  // How long an acquisition may block before the transaction is told to
  // abort with kTxConflict. Also bounds dependent-transaction waits if an
  // applier stalls.
  uint64_t timeout_ms = 10'000;
};

struct LockStats {
  uint64_t write_acquires = 0;
  uint64_t read_acquires = 0;
  uint64_t blocked_acquires = 0;  // Acquisitions that had to wait (dependent).
  uint64_t timeouts = 0;
  uint64_t total_block_ns = 0;    // Time spent waiting across all acquires.
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

  // Acquires a read lock. Blocks while a writer holds or is pending on `key`.
  // A txid that already holds the write lock may read freely.
  Status AcquireRead(uint64_t key, uint64_t txid);

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
  // waiter then re-checks its lock and helps again, and sleeps only once the
  // hook finds nothing to do. Install before concurrent use (the engine
  // constructor); pass nullptr to clear.
  void SetContentionHook(std::function<bool()> hook);

  LockStats stats() const;

 private:
  struct Entry {
    uint64_t writer_txid = 0;  // 0 = no writer.
    uint32_t readers = 0;
    uint32_t waiters = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, Entry> entries;
  };

  static constexpr int kNumShards = 64;

  Shard& ShardFor(uint64_t key) { return shards_[(key >> 6) & (kNumShards - 1)]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[(key >> 6) & (kNumShards - 1)]; }

  // Waits on `shard.cv` until `ready()` (evaluated under shard.mu) or the
  // lock timeout. With a contention hook installed the wait drops shard.mu
  // and invokes the hook until it reports no progress, then sleeps in short
  // slices, calling it again between slices; `ready` must re-look-up its
  // Entry each call (the map may rehash while unlocked).
  bool BlockedWait(Shard& shard, std::unique_lock<std::mutex>& lk,
                   const std::function<bool()>& ready);

  LockOptions options_;
  Shard shards_[kNumShards];

  mutable std::mutex hook_mu_;
  std::function<bool()> contention_hook_;

  std::atomic<uint64_t> write_acquires_{0};
  std::atomic<uint64_t> read_acquires_{0};
  std::atomic<uint64_t> blocked_acquires_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> total_block_ns_{0};
};

}  // namespace kamino::txn

#endif  // SRC_TXN_LOCK_MANAGER_H_
