// Sharded transactional KV store: N independent Kamino engines behind one
// atomic-transaction API (DESIGN.md §11).
//
// The paper's mechanism is per-heap — intent log + in-place update + async
// backup — so it shards naturally: each shard owns a full vertical slice
// (nvm::Pool, heap, LogManager, lock table, applier pool, backup store) and
// a key is routed to its shard by hash. Single-key transactions run entirely
// shard-local with ZERO shared state on the hot path: no common log, no
// common lock table, no common applier queue. The commit front-end — the
// part BENCH_applier_scaling showed does not scale (one group-commit leader
// drain stream, one lock table) — is multiplied by N.
//
// Multi-key transactions spanning shards get a cross-shard commit that
// reuses the intent log as the 2PC persistence substrate:
//
//   1. Every participating shard (coordinator included, always the lowest
//      shard index) stages its writes in its own log, then persists a
//      *prepared* record — the ordinary slot header re-marked kPrepared with
//      (gtxid, coordinator shard) in its reserved words. The write set is
//      already in the log; preparing copies no data.
//   2. The coordinator persists its commit *decision* by flipping its own
//      prepared slot to kCommitted (one 8-byte persist, exactly one drain).
//      This is the cross-shard commit point.
//   3. Participants durably convert prepared -> committed and hand their
//      contexts to their appliers; the coordinator's context is enqueued
//      LAST, only after every participant has left kPrepared — its slot IS
//      the decision record in-doubt recovery consults, so it must not be
//      releasable earlier.
//
// Recovery resolves in-doubt prepared slots before any per-shard recovery
// runs: commit iff the coordinator shard's slot for the gtxid is durably
// kCommitted, presumed abort otherwise. See ShardedStore::Open.
//
// All persist events carry a per-shard site prefix ("shard3/log/..."), so
// crash-point enumeration can sweep the full prepare/decide/apply window
// per shard (tests/crash_points/crash_points_shard_test.cc).

#ifndef SRC_SHARD_SHARDED_STORE_H_
#define SRC_SHARD_SHARDED_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/kv/kv_store.h"
#include "src/txn/tx_manager.h"

namespace kamino::shard {

// Per-shard persistent anchor, stored at each shard's heap root. Binds the
// shard to its position in the hash space: Open refuses to attach a pool
// whose recorded (num_shards, shard_index) disagree with the requested
// topology, because the router hash would silently re-map keys. Public so
// offline tools (kamino_inspect) can identify shard pools.
struct ShardAnchor {
  uint64_t magic;
  uint64_t version;
  uint64_t num_shards;
  uint64_t shard_index;
  uint64_t tree_anchor;  // KvStore B+Tree header offset.
};
inline constexpr uint64_t kShardAnchorMagic = 0x4B414D494E4F5348ull;  // "KAMINOSH"
inline constexpr uint64_t kShardAnchorVersion = 1;

struct ShardedStoreOptions {
  // Number of independent engine shards. Persisted in every shard's anchor;
  // Open refuses a mismatch (the router hash would silently re-map keys).
  int num_shards = 4;

  // Per-shard engine configuration (each shard gets its own full instance).
  txn::EngineType engine = txn::EngineType::kKaminoSimple;
  txn::LogOptions log;
  txn::LockOptions lock;
  int applier_threads = 1;
  double alpha = 0.25;
  txn::RecoveryOptions recovery;

  // Per-shard pool geometry (owned-pool mode).
  uint64_t pool_size = 64ull << 20;
  uint64_t log_region_size = 8ull << 20;

  // Forwarded to every shard's pools (each additionally gets a "shard<i>"
  // site prefix for per-shard persist-event attribution).
  bool sleep_latency = false;
  uint32_t flush_latency_ns = 0;
  uint32_t drain_latency_ns = 0;
  uint32_t backup_flush_latency_ns = 0;
  uint32_t backup_drain_latency_ns = 0;

  // Caller-owned pools, one pair per shard (required for crash/restart
  // tests, where pools must outlive the store; the caller sets crash_sim
  // and site_prefix on them). Empty = the store creates anonymous pools.
  struct ShardPools {
    nvm::Pool* main = nullptr;
    nvm::Pool* backup = nullptr;
  };
  std::vector<ShardPools> external_pools;

  // Open only: shards that fail to attach/recover are marked unavailable
  // (operations routed to them return kUnavailable) instead of failing the
  // whole open. Per-shard outcomes are reported via shard_status().
  bool allow_partial_open = false;
};

// N-shard store implementing kv::Store (plus Insert and the scans), whose
// MultiUpdate stays atomic across shards.
class ShardedStore final : public kv::Store {
 public:
  // Formats every shard (pool/heap/log/backup/tree + persistent anchor).
  static Result<std::unique_ptr<ShardedStore>> Create(const ShardedStoreOptions& options);

  // Re-attaches after a restart/crash, in three phases:
  //   A (parallel)  per shard: heap attach, anchor validation, manager open
  //                 WITHOUT recovery.
  //   B (serial)    cross-shard in-doubt resolution: every kPrepared slot is
  //                 durably converted to kCommitted/kAborted per its
  //                 coordinator shard's slot state. Must precede phase C —
  //                 per-shard recovery releases coordinator slots.
  //   C (parallel)  per shard: ordinary engine recovery + store attach.
  // Requires external_pools (owned anonymous pools cannot survive a
  // process). Errors are aggregated across shards, not first-fail.
  static Result<std::unique_ptr<ShardedStore>> Open(const ShardedStoreOptions& options);

  ~ShardedStore();

  // --- kv::Store API (single-key operations are fully shard-local) ----------
  Result<std::string> Read(uint64_t key) override;
  Status Update(uint64_t key, std::string_view value) override;
  Status Insert(uint64_t key, std::string_view value);
  Status Upsert(uint64_t key, std::string_view value) override;
  Status Delete(uint64_t key) override;
  Status ReadModifyWrite(uint64_t key,
                         const std::function<void(std::string&)>& mutate) override;
  // Globally sorted merge of the per-shard scans. Every write that returned
  // before the call is in the result. When every shard's engine exposes a
  // readable backup, the scan runs at a per-shard epoch vector: first each
  // shard's cut is brought up to every context enqueued on that shard
  // before the call (the scanner helps apply them, KaminoEngine::SyncCut),
  // then all shard views are opened before any shard is read (minimizing
  // cut skew) and each shard contributes its transaction-consistent cut
  // state — no main-heap locks, no writer contention. A cross-shard 2PC
  // transaction mid-apply may still straddle the vector (per-shard
  // consistency, not global serializability; DESIGN.md §12). Engines
  // without a readable backup fall back to the merged locked read.
  Result<std::vector<std::pair<uint64_t, std::string>>> Scan(uint64_t start, size_t limit);
  // The epoch-vector scan, explicitly, at whatever cut each shard has
  // reached — it does not wait for unapplied writes, so it may trail Scan;
  // *epochs_out (optional) receives every shard's cut epoch. NotSupported if
  // any shard lacks a readable backup.
  Result<std::vector<std::pair<uint64_t, std::string>>> SnapshotScan(
      uint64_t start, size_t limit, std::vector<uint64_t>* epochs_out = nullptr);

  // Atomically updates every (key, value) pair — all keys must exist. Pairs
  // on one shard run as that shard's KvStore::MultiUpdate; pairs spanning
  // shards commit via the cross-shard 2PC above. Retries kTxConflict.
  Status MultiUpdate(const std::vector<std::pair<uint64_t, std::string>>& writes) override;

  // --- Introspection / test hooks -------------------------------------------
  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t ShardOf(uint64_t key) const;
  bool shard_available(size_t i) const { return shards_[i].mgr != nullptr; }
  // Phase A/B/C outcome for shard i (Ok for healthy shards).
  const Status& shard_status(size_t i) const { return shards_[i].open_status; }
  txn::TxManager* shard_manager(size_t i) { return shards_[i].mgr.get(); }
  kv::KvStore* shard_store(size_t i) { return shards_[i].store.get(); }
  txn::EngineStats ShardStats(size_t i) const;

  // Blocks until every shard's committed transactions are fully applied.
  void WaitIdle();
  // Crash-test hook: pauses/unpauses every shard's applier pool so a single
  // mutator produces a deterministic persist-event stream across shards.
  void PauseAppliers(bool paused);

  // Cross-shard 2PC observability.
  struct CrossShardStats {
    uint64_t cross_shard_commits = 0;
    uint64_t cross_shard_aborts = 0;
    uint64_t single_shard_multi_updates = 0;
  };
  CrossShardStats cross_shard_stats() const;

 private:
  struct Shard {
    std::unique_ptr<heap::Heap> heap;        // Owns the main pool unless external.
    nvm::Pool* main_pool = nullptr;
    nvm::Pool* backup_pool = nullptr;        // External only; else manager-owned.
    std::unique_ptr<txn::TxManager> mgr;
    std::unique_ptr<kv::KvStore> store;
    Status open_status;
  };

  ShardedStore() = default;

  // Per-shard plumbing shared by Create/Open.
  static txn::TxManagerOptions ManagerOptions(const ShardedStoreOptions& options, size_t i,
                                              nvm::Pool* external_backup, bool open);
  Status CheckShard(uint64_t key, size_t* shard) const;

  std::vector<Shard> shards_;
  std::atomic<uint64_t> cross_shard_commits_{0};
  std::atomic<uint64_t> cross_shard_aborts_{0};
  std::atomic<uint64_t> single_shard_multi_updates_{0};
};

}  // namespace kamino::shard

#endif  // SRC_SHARD_SHARDED_STORE_H_
