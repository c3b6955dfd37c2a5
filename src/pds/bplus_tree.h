// Transactional persistent B+Tree (the paper's KV-store substrate, §7: "a
// key-value store that uses a NVML based persistent B+Tree that we
// implement").
//
// Keys are uint64; values are variable-length byte strings stored in
// separate persistent blobs referenced from the leaves. All structural and
// value modifications go through the NVML-shaped transactional API, so the
// tree works identically over every atomicity engine — and OpenWrite is
// declared at node granularity, reproducing the paper's observation that
// "an entire C structure is typically logged ... even though only a few
// fields are typically modified".
//
// Concurrency model (paper §3: object-granularity read/write locks):
//   - A volatile tree latch (a StripedSharedMutex: the shared side writes
//     only the caller's own stripe) protects *descent* against structural
//     changes. Gets, scans and in-place value updates hold it shared. Every
//     transaction that writes a node (Insert, Upsert, Replace, Delete, the
//     Update/ReadModifyWrite regrow fallbacks, composed callers such as a
//     chain replica's op transaction or TPC-C's inserts) holds it exclusive
//     from before its first write until its commit is durable: Commit
//     without an ack returns only then, in epoch mode too (EpochWait).
//   - So a holder of the shared latch never sees an uncommitted or
//     non-durable node, and nodes need no object locks of their own: reads
//     take none. The only commit that returns at DRAM time is Update's with
//     an ack (persist-behind, DESIGN.md §8), and it writes only a value blob.
//   - Value blobs are protected by the engines' object locks: writers take
//     write intents, and readers take a read lock on each blob they read. A
//     reader therefore blocks behind a running or prepared writer of that
//     value and passes a committed one, which it records for the commit-time
//     wait of a transaction that also writes (DESIGN.md §6 item 6, §12.1).
//     A point read takes exactly one object lock, its blob's.
//
// Every public operation runs its own transaction (with conflict retries).
// *_InTx variants compose into a caller-managed transaction; the caller must
// hold the tree latch via the LockShared()/LockExclusive() RAII guards, and
// exclusive whenever the transaction may write a node.

#ifndef SRC_PDS_BPLUS_TREE_H_
#define SRC_PDS_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/thread_stripe.h"
#include "src/heap/heap.h"
#include "src/txn/backup_store.h"
#include "src/txn/tx_manager.h"

namespace kamino::pds {

class BPlusTree {
 public:
  // Node geometry: a node is exactly 512 bytes (one size class), half the
  // payload of the paper's 1 KB values — so undo-logging a node costs about
  // as much as logging half a value.
  static constexpr uint32_t kMaxKeys = 30;
  // An inner split of a full node yields (kMaxKeys-1)/2 keys on the right
  // (one key moves up), so that is the minimum fill of any non-root node.
  static constexpr uint32_t kMinKeys = (kMaxKeys - 1) / 2;

  // Persistent anchor for a tree. Store its offset wherever your object
  // graph roots it (e.g. heap root).
  struct Header {
    uint64_t root;    // Node offset.
    uint64_t height;  // 1 = root is a leaf.
  };

  // Creates a new empty tree (allocates header + root leaf in a transaction)
  // and returns a handle. The header offset is at `anchor()`.
  static Result<std::unique_ptr<BPlusTree>> Create(txn::TxManager* mgr);

  // Attaches to an existing tree whose header lives at `header_offset`.
  static Result<std::unique_ptr<BPlusTree>> Attach(txn::TxManager* mgr,
                                                   uint64_t header_offset);

  uint64_t anchor() const { return header_off_; }

  // --- Self-contained operations (one transaction each, with retries) ------

  // Inserts; fails with kAlreadyExists if the key is present.
  Status Insert(uint64_t key, std::string_view value);
  // Overwrites an existing key's value; kNotFound if absent. With an `ack`
  // the update may be persist-behind (LogOptions::epoch_commit, DESIGN.md
  // §8): it returns at DRAM-commit with `ack` carrying the epoch durability
  // ticket, and the caller acknowledges via TxManager::WaitCommitDurable.
  // The rare structural retry (blob regrow) stays synchronous: ticket 0.
  Status Update(uint64_t key, std::string_view value, txn::CommitAck* ack = nullptr);
  // Insert-or-update.
  Status Upsert(uint64_t key, std::string_view value);
  // Point lookup.
  Result<std::string> Get(uint64_t key);
  // Removes a key (and frees its blob); kNotFound if absent.
  Status Delete(uint64_t key);
  // Read-modify-write in a single transaction. Write intent on the blob is
  // declared *before* the value is read (the supported same-object RMW
  // pattern — read-lock-then-write-lock within one transaction deadlocks).
  Status ReadModifyWrite(uint64_t key, const std::function<void(std::string&)>& mutate);
  // Ascending scan of up to `limit` pairs starting at the first key >= start.
  Result<std::vector<std::pair<uint64_t, std::string>>> Scan(uint64_t start, size_t limit);

  // --- Backup-snapshot reads (DESIGN.md §12) -------------------------------
  // Read-only descent served entirely from the engine's backup copy through
  // an open SnapshotView: no transaction, no object locks, no tree lock —
  // zero main-heap lock acquisition. Node and blob bytes are fetched with
  // view.Read into local buffers. Results are the transaction-consistent
  // state at view.epoch(). Valid only while `view` stays open; a chunked
  // caller must re-descend by key under each new view (leaf `next` offsets
  // may be freed and reused across view boundaries).
  Result<std::string> SnapshotGet(txn::BackupStore::SnapshotView& view, uint64_t key) const;
  // Up to `limit` pairs with key >= start, following the leaf chain inside
  // the one consistent view.
  Result<std::vector<std::pair<uint64_t, std::string>>> SnapshotScan(
      txn::BackupStore::SnapshotView& view, uint64_t start, size_t limit) const;

  // --- Composable operations (caller-managed transaction + tree lock) ------

  Status InsertInTx(txn::Tx& tx, uint64_t key, std::string_view value);
  Status UpdateInTx(txn::Tx& tx, uint64_t key, std::string_view value);
  Status ReadModifyWriteInTx(txn::Tx& tx, uint64_t key,
                             const std::function<void(std::string&)>& mutate);
  Status UpsertInTx(txn::Tx& tx, uint64_t key, std::string_view value);
  // Update on the structural path (exclusive guard): writes a fresh blob and
  // rewrites the leaf slot, so a value of any size fits, where UpdateInTx
  // fails kNotSupported once the value outgrows its blob. kNotFound if absent.
  Status ReplaceInTx(txn::Tx& tx, uint64_t key, std::string_view value);
  Result<std::string> GetInTx(txn::Tx& tx, uint64_t key);
  Status DeleteInTx(txn::Tx& tx, uint64_t key);
  Result<std::vector<std::pair<uint64_t, std::string>>> ScanInTx(txn::Tx& tx, uint64_t start,
                                                                 size_t limit);

  // First (key, value) with key >= start, read WITHOUT object read locks.
  // Safe only while the caller holds the exclusive tree guard (which keeps
  // all writers of this tree out); needed when the same transaction will
  // subsequently open the containing leaf for write — taking a read lock
  // first would self-deadlock (no lock upgrades). kNotFound past the end.
  Result<std::pair<uint64_t, std::string>> FirstAtLeastInTx(txn::Tx& tx, uint64_t start);

  // Tree-level latch guards for composed transactions. Insert/Delete/Upsert/
  // Replace require exclusive, held until the commit is durable;
  // Update/ReadModifyWrite/Get/Scan require at least shared.
  using SharedGuard = std::shared_lock<StripedSharedMutex>;
  using ExclusiveGuard = std::unique_lock<StripedSharedMutex>;
  SharedGuard LockShared() { return SharedGuard(tree_mu_); }
  ExclusiveGuard LockExclusive() { return ExclusiveGuard(tree_mu_); }

  // Number of keys (walks the leaf chain; test/diagnostic use).
  uint64_t CountSlow() const;

  // Structural statistics (diagnostic; used by tools/kamino_inspect).
  struct TreeStats {
    uint64_t height = 0;
    uint64_t inner_nodes = 0;
    uint64_t leaf_nodes = 0;
    uint64_t keys = 0;
    double avg_leaf_fill = 0;  // Fraction of kMaxKeys, averaged over leaves.
  };
  TreeStats Stats() const;

  // Structural invariant check: key ordering, fanout bounds, uniform height,
  // leaf-chain consistency, blob liveness. Test hook.
  Status Validate() const;

  txn::TxManager* manager() { return mgr_; }

 private:
  struct Node {
    uint32_t is_leaf;
    uint32_t num_keys;
    uint64_t next;  // Leaf chain (0 for inner nodes / last leaf).
    uint64_t keys[kMaxKeys];
    // Inner: child node offsets (num_keys + 1 used).
    // Leaf: value blob offsets (num_keys used).
    uint64_t slots[kMaxKeys + 1];
  };
  static_assert(sizeof(Node) == 16 + kMaxKeys * 8 + (kMaxKeys + 1) * 8);

  // Value blob: [u32 size][bytes...].
  struct Blob {
    uint32_t size;
    uint8_t data[4];  // Flexible-array idiom.
  };

  BPlusTree(txn::TxManager* mgr, uint64_t header_off)
      : mgr_(mgr), heap_(mgr->heap()), header_off_(header_off) {}

  const Node* NodeAt(uint64_t off) const {
    return static_cast<const Node*>(heap_->pool()->At(off));
  }
  const Header* header() const {
    return static_cast<const Header*>(heap_->pool()->At(header_off_));
  }
  // Reads that must observe this transaction's own earlier writes (a CoW
  // shadow is invisible at the main offset until commit).
  const Node* NodeView(txn::Tx& tx, uint64_t off) const {
    const void* p = tx.OpenedPointer(off);
    return p != nullptr ? static_cast<const Node*>(p) : NodeAt(off);
  }
  const Header* HeaderView(txn::Tx& tx) const {
    const void* p = tx.OpenedPointer(header_off_);
    return p != nullptr ? static_cast<const Header*>(p) : header();
  }

  Result<uint64_t> WriteBlob(txn::Tx& tx, std::string_view value);
  Result<std::string> ReadBlobLocked(txn::Tx& tx, uint64_t blob_off);
  // Snapshot-path blob read. Both view.Read calls start at the blob's object
  // offset: the dynamic store's cut protocol keys pre-image copies by object
  // start, so an interior-offset read would miss the index and observe a
  // writer's torn in-place bytes on the main heap.
  Result<std::string> SnapshotReadBlob(txn::BackupStore::SnapshotView& view,
                                       uint64_t blob_off) const;

  // Splits full child `child_idx` of `parent` (both already open for write).
  // Returns the new right sibling's offset.
  Result<uint64_t> SplitChild(txn::Tx& tx, Node* parent, uint32_t child_idx);

  // Ensures the child at `child_idx` of `parent` has > kMinKeys before the
  // deletion descends into it (borrow from a sibling or merge).
  // `parent` is open for write. Returns the (possibly new) child offset to
  // descend into for `key`.
  Result<uint64_t> FixChildForDelete(txn::Tx& tx, Node* parent, uint32_t child_idx,
                                     uint64_t key);

  Status DoInsert(txn::Tx& tx, uint64_t key, std::string_view value, bool allow_update,
                  bool require_existing);
  Status DoDelete(txn::Tx& tx, uint64_t key);

  // Finds the index of the first key >= key (lower bound) in `node`.
  static uint32_t LowerBound(const Node* node, uint64_t key);
  // Child index to descend into for `key` in inner `node`.
  static uint32_t ChildIndex(const Node* node, uint64_t key);

  Status ValidateNode(uint64_t off, uint64_t depth, uint64_t height, uint64_t* leaf_count,
                      uint64_t min_key, uint64_t max_key, bool has_min, bool has_max) const;

  txn::TxManager* mgr_;
  heap::Heap* heap_;
  uint64_t header_off_;
  StripedSharedMutex tree_mu_;
};

}  // namespace kamino::pds

#endif  // SRC_PDS_BPLUS_TREE_H_
