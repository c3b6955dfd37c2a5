// Per-transaction volatile state shared between the public Tx API and the
// atomicity engines.
//
// A context lives and dies on the thread that began the transaction: `Tx`
// owns it from Begin until Commit, Abort or FinishPrepared returns. A
// committed Kamino transaction reaches the applier as its intent-log slot,
// not as its context (DESIGN.md §6 item 1). Contexts are still recycled, not
// freed: NewTxContext() and TxContextPtr's deleter go through a small,
// capped per-thread cache, and Reset() keeps the vectors' capacity, so a
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
  // Kamino engines the applier releases those that an intent names (it
  // reads the keys from the slot); Commit releases the rest.
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

// Returns a context to this thread's cache (TxContextPtr's deleter); a
// context past the cache's cap is freed.
struct TxContextRecycler {
  void operator()(TxContext* ctx) const noexcept;
};

using TxContextPtr = std::unique_ptr<TxContext, TxContextRecycler>;

// A fresh (reset) context from this thread's cache; allocates only when the
// cache is empty.
TxContextPtr NewTxContext();

// Test-only: contexts parked in this thread's cache, and the cache's cap.
size_t CachedTxContextsForTest();
size_t TxContextCacheCapForTest();

}  // namespace kamino::txn

#endif  // SRC_TXN_TX_CONTEXT_H_
