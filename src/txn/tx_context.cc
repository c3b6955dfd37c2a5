#include "src/txn/tx_context.h"

#include <sanitizer/asan_interface.h>
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

#include <algorithm>
#include <mutex>
#include <type_traits>

namespace kamino::txn {
namespace {

// Contexts a thread keeps for itself; a client refills and an applier
// spills kTransfer at a time, so the shared mutex is taken once per
// kTransfer transactions on each side of the hand-off.
constexpr size_t kLocalCap = 32;
constexpr size_t kTransfer = 16;
// Contexts parked in the shared list; released beyond that are freed.
constexpr size_t kSharedCap = 512;
// Reset() keeps at most this many entries' capacity per vector (the log's
// default max_records), so a pooled context stays under ~10 KiB.
constexpr size_t kKeepEntries = 128;
// A new context reserves room for a small transaction up front (a KvStore
// update holds one intent and a read holds one read lock), so a recycled
// context does not grow on a later, slightly larger transaction.
constexpr size_t kInitialEntries = 8;

// Pooled contexts are poisoned under ASan, so a use after retire still
// reports; the macros compile to nothing in other builds. LeakSanitizer
// skips poisoned memory when it looks for pointers, so the buffers a parked
// context keeps are marked as deliberately retained.
void Park(TxContext* ctx) {
#if defined(__SANITIZE_ADDRESS__)
  for (const void* buf : {static_cast<const void*>(ctx->intents.data()),
                          static_cast<const void*>(ctx->write_lock_keys.data()),
                          static_cast<const void*>(ctx->read_lock_keys.data()),
                          static_cast<const void*>(ctx->passed_writers.data()),
                          static_cast<const void*>(ctx->open_ranges.data())}) {
    if (buf != nullptr) {
      __lsan_ignore_object(buf);
    }
  }
#endif
  ASAN_POISON_MEMORY_REGION(ctx, sizeof(TxContext));
}
void Unpark(TxContext* ctx) { ASAN_UNPOISON_MEMORY_REGION(ctx, sizeof(TxContext)); }
void Destroy(TxContext* ctx) {
  Unpark(ctx);
  delete ctx;
}

struct SharedList {
  std::mutex mu;
  std::vector<TxContext*> items;
  SharedList() { items.reserve(kSharedCap); }
};

// Never destroyed: thread-exit flushes and static destructors that release
// a context may run after any static SharedList would be gone.
SharedList& Shared() {
  static SharedList* shared = new SharedList;
  return *shared;
}

// Moves up to `n` parked contexts from the shared list into `out`.
size_t TakeShared(TxContext** out, size_t n) {
  SharedList& s = Shared();
  std::lock_guard<std::mutex> lk(s.mu);
  n = std::min(n, s.items.size());
  std::copy(s.items.end() - static_cast<std::ptrdiff_t>(n), s.items.end(), out);
  s.items.resize(s.items.size() - n);
  return n;
}

// Parks `n` contexts in the shared list; those past its cap are freed.
void PutShared(TxContext* const* in, size_t n) {
  SharedList& s = Shared();
  size_t kept = 0;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    kept = std::min(n, kSharedCap - s.items.size());
    s.items.insert(s.items.end(), in, in + kept);
  }
  for (size_t i = kept; i < n; ++i) {
    Destroy(in[i]);
  }
}

// A fresh context, with kInitialEntries of room in each vector.
TxContext* MakeContext() {
  auto* ctx = new TxContext;
  ctx->intents.reserve(kInitialEntries);
  ctx->write_lock_keys.reserve(kInitialEntries);
  ctx->read_lock_keys.reserve(kInitialEntries);
  ctx->passed_writers.reserve(kInitialEntries);
  ctx->open_ranges.reserve(kInitialEntries);
  return ctx;
}

struct LocalCache {
  TxContext* items[kLocalCap];
  size_t n = 0;
  ~LocalCache();
};

// Set once this thread's cache is destroyed; later releases on the thread
// (static destructors on the main thread) go straight to the shared list.
thread_local bool tls_cache_gone = false;

LocalCache& Local() {
  thread_local LocalCache cache;
  return cache;
}

LocalCache::~LocalCache() {
  PutShared(items, n);
  n = 0;
  tls_cache_gone = true;
}

}  // namespace

void TxContext::Reset() {
  auto reset = [](auto& v) {
    if (v.capacity() > kKeepEntries) {
      std::remove_reference_t<decltype(v)>().swap(v);
    } else {
      v.clear();
    }
  };
  txid = 0;
  slot = SlotHandle{};
  reset(intents);
  reset(write_lock_keys);
  reset(read_lock_keys);
  reset(passed_writers);
  reset(open_ranges);
  commit_enqueue_ns = 0;
  active = true;
  prepared = false;
  decided = false;
  gtxid = 0;
  coord_shard = ~0ull;
}

void TxContextRecycler::operator()(TxContext* ctx) const noexcept {
  ctx->Reset();
  Park(ctx);
  if (tls_cache_gone) {
    PutShared(&ctx, 1);
    return;
  }
  LocalCache& cache = Local();
  if (cache.n == kLocalCap) {
    cache.n -= kTransfer;
    PutShared(cache.items + cache.n, kTransfer);
  }
  cache.items[cache.n++] = ctx;
}

TxContextPtr NewTxContext() {
  TxContext* ctx = nullptr;
  if (tls_cache_gone) {
    TakeShared(&ctx, 1);
  } else {
    LocalCache& cache = Local();
    if (cache.n == 0) {
      cache.n = TakeShared(cache.items, kTransfer);
    }
    if (cache.n > 0) {
      ctx = cache.items[--cache.n];
    }
  }
  if (ctx != nullptr) {
    Unpark(ctx);
    return TxContextPtr(ctx);
  }
  return TxContextPtr(MakeContext());
}

void ReserveTxContexts(size_t in_flight, size_t thread_caches) {
  // Each thread cache holds up to kLocalCap on top of the contexts in flight.
  const size_t target = std::min(in_flight + thread_caches * kLocalCap, kSharedCap);
  SharedList& s = Shared();
  std::lock_guard<std::mutex> lk(s.mu);
  while (s.items.size() < target) {
    TxContext* ctx = MakeContext();
    Park(ctx);
    s.items.push_back(ctx);
  }
}

size_t PooledTxContextsForTest() {
  SharedList& s = Shared();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.items.size();
}

size_t TxContextPoolCapForTest() { return kSharedCap; }

}  // namespace kamino::txn
