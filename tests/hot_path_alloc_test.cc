// Heap allocations per steady-state KvStore operation, counted by replacing
// the global operator new in this binary. A Kamino write transaction's lock
// entries are inserted on the client and erased on the applier, so an
// allocation on that path is also a cross-thread free; the bounds below pin
// "nothing on the hot path allocates" (DESIGN.md §5 item 9):
//   - a Read allocates only the std::string it returns;
//   - an Update allocates nothing (the applier queues are fixed rings sized
//     by the log's slot count);
//   - under the epoch pipeline (LogOptions::epoch_commit) an Update
//     allocates nothing either: parked durability callbacks live in a ring
//     and each drain reuses a kept scratch batch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "src/heap/heap.h"
#include "src/kv/kv_store.h"
#include "src/txn/tx_manager.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// Out of line so the compiler never pairs an inlined free() with the
// operator new it knows as builtin (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }

namespace kamino {
namespace {

constexpr uint64_t kKeys = 1000;
constexpr int kOps = 20'000;

// A fixed pseudo-random key sequence (an LCG), so consecutive operations
// land on different leaves and lock shards.
uint64_t KeyAt(int i) {
  return (static_cast<uint64_t>(i) * 2654435761u + 12345) % kKeys;
}

struct PerOp {
  double read = 0;
  double update = 0;
};

// Steady-state allocations per KvStore Read and per Update on kamino-simple
// with one applier thread.
PerOp MeasureAllocs(bool epoch_commit) {
  heap::HeapOptions hopts;
  hopts.pool_size = 64ull << 20;
  auto heap = heap::Heap::Create(hopts).value();
  txn::TxManagerOptions opts;  // kamino-simple, one applier thread.
  EXPECT_EQ(opts.engine, txn::EngineType::kKaminoSimple);
  EXPECT_EQ(opts.applier_threads, 1);
  opts.log.epoch_commit = epoch_commit;
  auto mgr = txn::TxManager::Create(heap.get(), opts).value();
  auto store = kv::KvStore::Create(mgr.get()).value();

  const std::string value(100, 'v');  // Past the small-string buffer.
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(store->Insert(k, value).ok());
  }
  // Warm-up: grows every recycled buffer (context vectors, lock-table
  // shards, apply scratch) to its steady-state size. The context cache
  // needs none: a context retires on its own thread at commit, so one
  // client reuses one context however far it runs ahead of the applier.
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(store->Read(KeyAt(i)).ok());
    EXPECT_TRUE(store->Update(KeyAt(i + 7), value).ok());
  }
  for (int i = 0; i < kOps; ++i) {
    EXPECT_TRUE(store->Update(KeyAt(i + 11), value).ok());
  }
  mgr->WaitIdle();

  int failures = 0;
  uint64_t before = g_allocs.load();
  for (int i = 0; i < kOps; ++i) {
    Result<std::string> v = store->Read(KeyAt(i));
    failures += v.ok() ? 0 : 1;
  }
  const uint64_t read_allocs = g_allocs.load() - before;

  before = g_allocs.load();
  for (int i = 0; i < kOps; ++i) {
    failures += store->Update(KeyAt(i + 3), value).ok() ? 0 : 1;
  }
  mgr->WaitIdle();
  const uint64_t update_allocs = g_allocs.load() - before;

  EXPECT_EQ(failures, 0);
  PerOp per;
  per.read = static_cast<double>(read_allocs) / kOps;
  per.update = static_cast<double>(update_allocs) / kOps;
  std::printf("epoch_commit=%d: allocations per read %.4f, per update %.4f\n",
              epoch_commit ? 1 : 0, per.read, per.update);
  return per;
}

TEST(HotPathAllocTest, SteadyStateReadAndUpdateBarelyAllocate) {
  const PerOp per = MeasureAllocs(/*epoch_commit=*/false);
  EXPECT_LE(per.read, 1.0) << "allocations per read";
  EXPECT_EQ(per.update, 0.0) << "allocations per update";
}

TEST(HotPathAllocTest, EpochCommitUpdateBarelyAllocates) {
  const PerOp per = MeasureAllocs(/*epoch_commit=*/true);
  EXPECT_LE(per.read, 1.0) << "allocations per read";
  EXPECT_EQ(per.update, 0.0) << "allocations per update";
}

}  // namespace
}  // namespace kamino
