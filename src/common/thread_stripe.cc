#include "src/common/thread_stripe.h"

#include <algorithm>
#include <array>
#include <mutex>

namespace kamino {
namespace {

// Dense id allocator. Never destroyed: threads may exit after static
// destructors have run.
struct StripeRegistry {
  std::mutex mu;
  std::array<bool, kSharedThreadStripe> in_use{};  // Guarded by mu.
  std::atomic<size_t> bound{0};

  size_t Acquire() {
    std::lock_guard<std::mutex> lk(mu);
    const auto free = std::find(in_use.begin(), in_use.end(), false);
    if (free == in_use.end()) {
      return kSharedThreadStripe;
    }
    *free = true;
    const size_t id = static_cast<size_t>(free - in_use.begin());
    if (id >= bound.load(std::memory_order_relaxed)) {
      // seq_cst: a StripedSharedMutex writer's scan must cover a reader
      // whose first shared lock follows this store.
      bound.store(id + 1, std::memory_order_seq_cst);
    }
    return id;
  }

  void Release(size_t id) {
    if (id != kSharedThreadStripe) {
      std::lock_guard<std::mutex> lk(mu);
      in_use[id] = false;
    }
  }
};

StripeRegistry& Registry() {
  static StripeRegistry* registry = new StripeRegistry();
  return *registry;
}

// Holds the calling thread's id and returns it to the registry at thread
// exit. A counter bumped after that (by a later thread_local destructor) goes
// to the shared stripe: the id may already have a new exclusive owner.
struct StripeLease {
  size_t id = Registry().Acquire();
  ~StripeLease() {
    internal::tls_thread_stripe = kSharedThreadStripe;
    Registry().Release(id);
  }
};

}  // namespace

namespace internal {

size_t AssignThreadStripe() {
  thread_local StripeLease lease;
  tls_thread_stripe = lease.id;
  return lease.id;
}

}  // namespace internal

size_t ThreadStripeBound() { return Registry().bound.load(std::memory_order_seq_cst); }

}  // namespace kamino
