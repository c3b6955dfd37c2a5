// Per-transaction volatile state shared between the public Tx API and the
// atomicity engines.
//
// Contexts are recycled, not freed: a Kamino context is born on the client
// that begins the transaction and dies on the applier (or a helping client)
// that finishes it, so plain new/delete would pay a cross-thread free on
// every write transaction. NewTxContext() and TxContextPtr's deleter go
// through one process-wide, capped pool — a small per-thread cache over a
// mutex-guarded shared list — and Reset() keeps the vectors' capacity, so a
// steady-state transaction allocates nothing here (DESIGN.md §5 item 9).

#ifndef SRC_TXN_TX_CONTEXT_H_
#define SRC_TXN_TX_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/txn/log_manager.h"

namespace kamino::txn {

struct TxContext {
  uint64_t txid = 0;

  // Intent-log slot (invalid for the no-logging engine).
  SlotHandle slot;

  // Volatile mirror of the slot's records, in append order.
  std::vector<Intent> intents;

  // Write-lock keys held by this transaction, in acquisition order. For the
  // Kamino engines these are released by the async applier, not at commit.
  std::vector<uint64_t> write_lock_keys;

  // Read-lock keys; always released at commit/abort time.
  std::vector<uint64_t> read_lock_keys;

  // (key, writer txid) of every committed-but-unapplied writer a read lock
  // passed (LockManager::AcquireRead). A transaction that also writes waits
  // at commit until each of them has released its key (DESIGN.md §12.1).
  std::vector<std::pair<uint64_t, uint64_t>> passed_writers;

  // (offset, index into `intents`) of every range opened for write or
  // allocated here, for deduplicating repeated OpenWrite and finding the
  // pointer a write goes through. A logged transaction holds at most
  // LogOptions::max_records intents, so a linear scan beats hashing.
  std::vector<std::pair<uint64_t, size_t>> open_ranges;

  // Set at commit when the context is handed to the Transaction Coordinator;
  // the applier records now - this into the commit->applied lag histogram.
  uint64_t commit_enqueue_ns = 0;

  bool active = true;

  // Cross-shard 2PC (DESIGN.md §11). `prepared` is set once the engine has
  // durably persisted the prepared record; `decided` marks a coordinator
  // context whose slot already carries the durable decision record, so
  // FinishPrepared must not persist a second commit mark for it.
  bool prepared = false;
  bool decided = false;
  uint64_t gtxid = 0;
  uint64_t coord_shard = ~0ull;

  // The intent opened at `offset` in this transaction, or nullptr. The
  // pointer is valid until the next AddOpenIntent.
  const Intent* FindOpen(uint64_t offset) const {
    for (const auto& [off, index] : open_ranges) {
      if (off == offset) {
        return &intents[index];
      }
    }
    return nullptr;
  }

  // Appends an intent whose range later OpenWrites must find (kWrite and
  // the redirected kinds, kAlloc).
  void AddOpenIntent(const Intent& in) {
    open_ranges.emplace_back(in.offset, intents.size());
    intents.push_back(in);
  }

  // Returns every field to its initial value, keeping vector capacity up to
  // a bound (a large scan's read-lock list is trimmed back).
  void Reset();
};

// Returns a context to the pool (TxContextPtr's deleter).
struct TxContextRecycler {
  void operator()(TxContext* ctx) const noexcept;
};

using TxContextPtr = std::unique_ptr<TxContext, TxContextRecycler>;

// A fresh (reset) context from the pool; allocates only when the pool and
// this thread's cache are both empty.
TxContextPtr NewTxContext();

// Tops the shared list up to `in_flight` contexts plus `thread_caches` full
// thread caches, within the list's cap. TxManager calls it with the log's
// slot count (a transaction in flight holds a slot) and one cache per
// applier thread plus one client's. That covers one client thread on one
// manager: a client running up to the slot count ahead of the appliers then
// never allocates a context mid-run (hot_path_alloc_test checks this case).
// The list is topped up, not added to, so more client threads, or several
// managers sharing the process-wide list (a sharded store), can still build
// contexts until their caches have filled once.
void ReserveTxContexts(size_t in_flight, size_t thread_caches);

// Test-only: contexts parked in the shared list (not counting per-thread
// caches), and the list's cap.
size_t PooledTxContextsForTest();
size_t TxContextPoolCapForTest();

}  // namespace kamino::txn

#endif  // SRC_TXN_TX_CONTEXT_H_
