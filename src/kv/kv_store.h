// Transactional key-value store over the persistent B+Tree — the system the
// paper's evaluation drives with YCSB (§7: "we have designed and implemented
// a key-value store that uses a NVML based persistent B+Tree").
//
// Keys are uint64 record ids (YCSB's "user<N>"); values are opaque byte
// strings (1 KB in the paper's runs). Every operation is one transaction on
// the underlying atomicity engine, so swapping `TxManagerOptions::engine`
// re-runs the identical store over Kamino-Tx, undo-logging, CoW or
// no-logging. The kv::Store ops (src/kv/store.h) carry that interface's
// contract; Insert, Scan, UpdateAsync and the snapshot reads are this
// front-end's own.

#ifndef SRC_KV_KV_STORE_H_
#define SRC_KV_KV_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/kv/store.h"
#include "src/pds/bplus_tree.h"
#include "src/txn/tx_manager.h"

namespace kamino::kv {

class KvStore final : public Store {
 public:
  // Creates a fresh store on `mgr`'s heap and anchors it at the heap root.
  static Result<std::unique_ptr<KvStore>> Create(txn::TxManager* mgr);

  // Reattaches to a store previously anchored at the heap root (the
  // restart/recovery path; run after TxManager::Open).
  static Result<std::unique_ptr<KvStore>> Open(txn::TxManager* mgr);

  // Creates a fresh store WITHOUT touching the heap root: the caller owns the
  // anchor (read it back via anchor()) and its persistence — e.g.
  // shard::ShardedStore roots each shard's tree inside its persistent shard
  // anchor block rather than at the heap root.
  static Result<std::unique_ptr<KvStore>> CreateDetached(txn::TxManager* mgr);

  // Reattaches to a store whose tree header lives at `anchor` (the
  // CreateDetached counterpart of Open).
  static Result<std::unique_ptr<KvStore>> Attach(txn::TxManager* mgr, uint64_t anchor);

  // Offset of the tree header (persistent; stable across re-open).
  uint64_t anchor() const { return tree_->anchor(); }

  // YCSB READ.
  Result<std::string> Read(uint64_t key) override;
  // YCSB UPDATE (key must exist).
  Status Update(uint64_t key, std::string_view value) override;
  // Persist-behind UPDATE (LogOptions::epoch_commit, DESIGN.md §8): returns
  // at DRAM-commit; the update may only be acknowledged to the client after
  // TxManager::WaitCommitDurable(*ack). Durable on return when `ack` comes
  // back with ticket 0 (epoch mode off, or the structural retry path ran).
  Status UpdateAsync(uint64_t key, std::string_view value, txn::CommitAck* ack);
  // YCSB INSERT (fails if present).
  Status Insert(uint64_t key, std::string_view value);
  // Insert-or-replace (bulk loads).
  Status Upsert(uint64_t key, std::string_view value) override;
  // YCSB READ-MODIFY-WRITE: reads the current value, applies `mutate`, and
  // writes the result — all in one transaction, declaring write intent
  // before reading (the supported RMW pattern; see LockManager docs).
  Status ReadModifyWrite(uint64_t key,
                         const std::function<void(std::string&)>& mutate) override;
  // Updates every (key, value) pair in one transaction (all keys must exist;
  // pairs apply in order, so the last write to a repeated key wins).
  // Retries kTxConflict.
  Status MultiUpdate(const std::vector<std::pair<uint64_t, std::string>>& writes) override;
  // YCSB SCAN.
  Result<std::vector<std::pair<uint64_t, std::string>>> Scan(uint64_t start, size_t limit);
  Status Delete(uint64_t key) override;

  // --- Backup-snapshot reads (DESIGN.md §12) -------------------------------
  // Served entirely from the engine's backup copy at the published backup
  // epoch: no transaction, no main-heap lock acquisition, no contention with
  // writers beyond the bounded cut-gate handshake. Results are stale-bounded
  // (transaction-consistent as of the epoch written to *epoch_out, at most
  // the applier lag behind linearizable reads). NotSupported on engines
  // without a readable backup (undo/redo/CoW/none).
  Result<std::string> SnapshotRead(uint64_t key, uint64_t* epoch_out = nullptr);
  // Whole scan under ONE view: fully transaction-consistent, but holds the
  // cut gate for the duration — use for correctness-critical scans.
  Result<std::vector<std::pair<uint64_t, std::string>>> SnapshotScan(
      uint64_t start, size_t limit, uint64_t* epoch_out = nullptr);
  // Analytics path: re-opens a view every `chunk_limit` pairs, bounding the
  // applier stall per chunk (stalled appliers pin log slots and backpressure
  // every writer). Each chunk is internally consistent; the whole result is
  // a union of per-chunk cuts, resumed by key. *epoch_out gets the epoch of
  // the final chunk.
  Result<std::vector<std::pair<uint64_t, std::string>>> SnapshotScanChunked(
      uint64_t start, size_t limit, size_t chunk_limit, uint64_t* epoch_out = nullptr);

  pds::BPlusTree* tree() { return tree_.get(); }
  txn::TxManager* manager() { return mgr_; }

 private:
  KvStore(txn::TxManager* mgr, std::unique_ptr<pds::BPlusTree> tree)
      : mgr_(mgr), tree_(std::move(tree)) {}

  txn::TxManager* mgr_;
  std::unique_ptr<pds::BPlusTree> tree_;
};

}  // namespace kamino::kv

#endif  // SRC_KV_KV_STORE_H_
