#include "src/txn/tx_context.h"

#include <sanitizer/asan_interface.h>
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

#include <type_traits>

namespace kamino::txn {
namespace {

// Contexts a thread keeps for itself. A thread holds one context per open
// transaction (a cross-shard transaction holds one per shard it touches),
// and each retires on the thread that made it, so a small cache covers
// every steady state; releases past the cap are freed.
constexpr size_t kLocalCap = 16;
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
// (static destructors on the main thread) free the context outright.
thread_local bool tls_cache_gone = false;

LocalCache& Local() {
  thread_local LocalCache cache;
  return cache;
}

LocalCache::~LocalCache() {
  for (size_t i = 0; i < n; ++i) {
    Unpark(items[i]);
    delete items[i];
  }
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
  active = true;
  prepared = false;
  decided = false;
  gtxid = 0;
  coord_shard = ~0ull;
}

void TxContextRecycler::operator()(TxContext* ctx) const noexcept {
  LocalCache* cache = tls_cache_gone ? nullptr : &Local();
  if (cache == nullptr || cache->n == kLocalCap) {
    delete ctx;
    return;
  }
  ctx->Reset();
  Park(ctx);
  cache->items[cache->n++] = ctx;
}

TxContextPtr NewTxContext() {
  if (!tls_cache_gone) {
    LocalCache& cache = Local();
    if (cache.n > 0) {
      TxContext* ctx = cache.items[--cache.n];
      Unpark(ctx);
      return TxContextPtr(ctx);
    }
  }
  return TxContextPtr(MakeContext());
}

size_t CachedTxContextsForTest() { return tls_cache_gone ? 0 : Local().n; }

size_t TxContextCacheCapForTest() { return kLocalCap; }

}  // namespace kamino::txn
