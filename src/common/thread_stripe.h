// Per-thread counter stripes: exact statistics without a shared cache line.
//
// A statistics atomic that every thread bumps (flush counts, lock acquires,
// commits) is a cache line that ping-pongs between cores on every event; at
// two or more threads the line transfer costs far more than the work being
// counted. `StripedCounters` gives each thread its own cache-line-aligned
// stripe and sums the stripes on read, so counting stays exact (no increment
// is sampled or dropped) while the hot path only writes a line its own core
// already owns.
//
// Stripes are indexed by a small dense per-thread id (`ThreadStripe()`): the
// lowest id no live thread holds, recycled when a thread exits. The id's
// stripe keeps the exited thread's counts, so nothing is lost, and readers
// only sum stripes below `ThreadStripeBound()` — the most threads ever live
// at once — rather than all `kMaxThreadStripes`. An id's one live holder is
// its stripe's only writer, so an add is a plain load and store (no locked
// read-modify-write); the registry's mutex orders a recycled id's previous
// holder before its next. Threads beyond the exclusive ids, and a thread
// counting after its id was recycled (a late thread_local destructor), share
// the last stripe, `kSharedThreadStripe`, which takes atomic adds.

#ifndef SRC_COMMON_THREAD_STRIPE_H_
#define SRC_COMMON_THREAD_STRIPE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/common/cacheline.h"

namespace kamino {

inline constexpr size_t kMaxThreadStripes = 64;
inline constexpr size_t kSharedThreadStripe = kMaxThreadStripes - 1;

namespace internal {
inline constexpr size_t kNoThreadStripe = ~size_t{0};
inline thread_local size_t tls_thread_stripe = kNoThreadStripe;
// Claims the lowest free exclusive id for the calling thread (released at
// thread exit), or kSharedThreadStripe if none is free.
size_t AssignThreadStripe();
}  // namespace internal

// The calling thread's stripe index, in [0, kMaxThreadStripes).
inline size_t ThreadStripe() {
  const size_t id = internal::tls_thread_stripe;
  return id != internal::kNoThreadStripe ? id : internal::AssignThreadStripe();
}

// One past the highest exclusive stripe id any thread has held so far (at
// most kSharedThreadStripe). Exclusive stripes at or above it have never been
// written.
size_t ThreadStripeBound();

// `N` exact event counters, striped per thread. Relaxed like the single
// atomics it replaces: a Sum() taken while other threads add is a snapshot of
// some interleaving, and exact once the adders are quiescent.
template <size_t N>
class StripedCounters {
 public:
  void Add(size_t counter, uint64_t delta = 1) {
    const size_t id = ThreadStripe();
    std::atomic<uint64_t>& c = stripes_[id].counts[counter];
    if (id == kSharedThreadStripe) [[unlikely]] {
      c.fetch_add(delta, std::memory_order_relaxed);
    } else {
      c.store(c.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
    }
  }

  uint64_t Sum(size_t counter) const {
    uint64_t total = stripes_[kSharedThreadStripe].counts[counter].load(std::memory_order_relaxed);
    const size_t bound = ThreadStripeBound();
    for (size_t i = 0; i < bound; ++i) {
      total += stripes_[i].counts[counter].load(std::memory_order_relaxed);
    }
    return total;
  }

  // Zeroes every counter of every stripe. Call while no thread adds: an
  // owner's add in flight could store its pre-reset count back.
  void Reset() {
    for (Stripe& stripe : stripes_) {
      for (std::atomic<uint64_t>& c : stripe.counts) {
        c.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(kCacheLineSize) Stripe {
    std::array<std::atomic<uint64_t>, N> counts{};
  };
  std::array<Stripe, kMaxThreadStripes> stripes_;
};

}  // namespace kamino

#endif  // SRC_COMMON_THREAD_STRIPE_H_
