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
//
// `StripedSharedMutex` applies the same layout to a reader/writer latch that
// is taken shared on every operation (the B+-tree latch): a shared lock
// writes only the caller's stripe.

#ifndef SRC_COMMON_THREAD_STRIPE_H_
#define SRC_COMMON_THREAD_STRIPE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

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
// written. The registry raises it (seq_cst) before the new id is handed out,
// so a seq_cst load ordered after a stripe's seq_cst write covers that stripe.
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

// A reader/writer latch whose shared side writes no shared cache line. A
// reader bumps the count in its own stripe and then checks the writer flag; a
// writer takes `mu_`, raises the flag and waits until every stripe below
// ThreadStripeBound(), and the shared stripe, reads 0. Both sides are seq_cst:
// it is a Dekker handshake, so either the reader sees the flag (and backs
// out) or the writer sees the reader's count (and waits for it). A reader
// that backs out blocks on `mu_`, which the writer holds until unlock, and
// then retries, so writers are not starved by a stream of readers.
//
// A reader inside may hold the latch while it waits on an object lock for
// milliseconds, so a writer spins only briefly on a stripe and then sleeps on
// it (an atomic wait, a futex on Linux). A reader that leaves a stripe while
// the flag is up wakes the writer; the same Dekker order means the writer
// either sees the lower count or is woken.
//
// Writers are preferred: once a writer has raised the flag, new readers wait
// for it, where glibc's rwlock (behind std::shared_mutex) lets them in past a
// waiting writer. That adds no wait cycle: every caller takes its latches in
// one fixed order before its transaction takes any object lock, and the
// applier that releases committed writers' locks takes no latch, so a reader
// that waits here holds no object lock or later latch a reader inside awaits.
//
// Meets the SharedMutex requirements std::shared_lock and std::unique_lock
// need. Not recursive in either mode: a thread that re-takes the shared side
// while a writer waits deadlocks. A thread must release a shared hold before
// it exits (its stripe id is recycled at exit).
class StripedSharedMutex {
 public:
  StripedSharedMutex() = default;
  StripedSharedMutex(const StripedSharedMutex&) = delete;
  StripedSharedMutex& operator=(const StripedSharedMutex&) = delete;

  void lock_shared() {
    std::atomic<uint32_t>& count = readers_[ThreadStripe()].count;
    for (;;) {
      count.fetch_add(1, std::memory_order_seq_cst);
      if (!writer_.load(std::memory_order_seq_cst)) {
        return;
      }
      Leave(count);
      std::lock_guard<std::mutex> wait_for_writer(mu_);
    }
  }

  void unlock_shared() { Leave(readers_[ThreadStripe()].count); }

  void lock() {
    mu_.lock();
    writer_.store(true, std::memory_order_seq_cst);
    const size_t bound = ThreadStripeBound();
    for (size_t i = 0; i < bound; ++i) {
      WaitDrained(readers_[i].count);
    }
    WaitDrained(readers_[kSharedThreadStripe].count);
  }

  void unlock() {
    writer_.store(false, std::memory_order_seq_cst);
    mu_.unlock();
  }

 private:
  // Drops a reader's count; wakes a writer that may be asleep on it.
  void Leave(std::atomic<uint32_t>& count) {
    count.fetch_sub(1, std::memory_order_seq_cst);
    if (writer_.load(std::memory_order_seq_cst)) [[unlikely]] {
      count.notify_all();
    }
  }

  static void WaitDrained(std::atomic<uint32_t>& count) {
    for (int spins = 0; spins < kSpinsBeforeSleep; ++spins) {
      if (count.load(std::memory_order_seq_cst) == 0) {
        return;
      }
    }
    for (uint32_t seen; (seen = count.load(std::memory_order_seq_cst)) != 0;) {
      count.wait(seen, std::memory_order_seq_cst);
    }
  }

  static constexpr int kSpinsBeforeSleep = 256;

  struct alignas(kCacheLineSize) Stripe {
    std::atomic<uint32_t> count{0};
  };
  std::array<Stripe, kMaxThreadStripes> readers_;
  alignas(kCacheLineSize) std::atomic<bool> writer_{false};
  std::mutex mu_;
};

}  // namespace kamino

#endif  // SRC_COMMON_THREAD_STRIPE_H_
