// Building-block microbenchmark for the per-operation hot paths every
// transaction crosses: a counted pool flush+drain, a lock-table
// acquire/release pair, an intent-log slot acquire/release cycle, a shared
// tree-latch lock/unlock (std::shared_mutex against the striped latch), and
// the whole software cost of one KvStore Get, and of one Read + Update, with
// flush latency 0.
// Each thread works on its own cache lines and keys, so any slowdown as
// threads are added is cross-core traffic on shared state (statistics
// counters, lock-table shards, slot freelists, the context pool), not
// contention on the data itself. Not gated.
//
//   ./build/bench/micro_hotpath [--benchmark_min_time=0.01]

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>

#include "src/common/thread_stripe.h"
#include "src/heap/heap.h"
#include "src/kv/kv_store.h"
#include "src/nvm/pool.h"
#include "src/txn/lock_manager.h"
#include "src/txn/log_manager.h"
#include "src/txn/tx_manager.h"

namespace kamino::bench {
namespace {

constexpr uint64_t kChunkBytes = 1ull << 20;  // The allocator's chunk size.
constexpr uint64_t kChunkDataStart = 4096;    // First block in a chunk.
constexpr uint64_t kBlobStride = 2048;        // Size class of a 1 KB value blob.
constexpr uint64_t kKeysPerThread = 256;

nvm::Pool* SharedPool() {
  static std::unique_ptr<nvm::Pool> pool = [] {
    nvm::PoolOptions o;
    o.size = 16ull << 20;
    o.track_stats = true;
    return nvm::Pool::Create(o).value();
  }();
  return pool.get();
}

txn::LockManager* SharedLocks() {
  static txn::LockManager locks;
  return &locks;
}

// A 128-slot intent log (the default geometry) shared by every thread.
txn::LogManager* SharedLog() {
  static std::unique_ptr<nvm::Pool> pool = [] {
    nvm::PoolOptions o;
    o.size = 16ull << 20;
    return nvm::Pool::Create(o).value();
  }();
  static std::unique_ptr<txn::LogManager> log =
      txn::LogManager::Create(pool.get(), 0, pool->size(), txn::LogOptions{}).value();
  return log.get();
}

// One Flush of a thread-private line plus a Drain, counted per site.
void BM_PoolFlushDrain(::benchmark::State& state) {
  nvm::Pool* pool = SharedPool();
  auto* line = static_cast<uint64_t*>(pool->At(static_cast<uint64_t>(state.thread_index()) * 4096));
  nvm::PersistSiteScope site("micro/flush-drain");
  uint64_t v = 0;
  for (auto _ : state) {
    *line = ++v;
    pool->Flush(line, sizeof(*line));
    pool->Drain();
    ::benchmark::DoNotOptimize(line);
    ::benchmark::ClobberMemory();
  }
}

// Allocator-shaped keys: value-blob offsets in a chunk of this thread's own.
uint64_t BlobKey(int thread, uint64_t i) {
  return static_cast<uint64_t>(thread + 1) * kChunkBytes + kChunkDataStart +
         (i % kKeysPerThread) * kBlobStride;
}

void BM_LockWritePair(::benchmark::State& state) {
  txn::LockManager* locks = SharedLocks();
  const int thread = state.thread_index();
  const uint64_t txid = static_cast<uint64_t>(thread) + 1;
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t key = BlobKey(thread, i++);
    Status st = locks->AcquireWrite(key, txid);
    ::benchmark::DoNotOptimize(st);
    locks->ReleaseWrite(key, txid);
  }
}

void BM_LockReadPair(::benchmark::State& state) {
  txn::LockManager* locks = SharedLocks();
  const int thread = state.thread_index();
  const uint64_t txid = static_cast<uint64_t>(thread) + 1;
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t key = BlobKey(thread, i++);
    Status st = locks->AcquireRead(key, txid);
    ::benchmark::DoNotOptimize(st);
    locks->ReleaseRead(key, txid);
  }
}

// One AcquireSlot + ReleaseSlot: the slot cycle undo, redo and CoW run on
// the client thread for every write transaction (Kamino releases in the
// applier). Exercises the per-thread slot cache and the striped freelists.
void BM_LogSlotCycle(::benchmark::State& state) {
  txn::LogManager* log = SharedLog();
  uint64_t txid = static_cast<uint64_t>(state.thread_index()) << 48;
  for (auto _ : state) {
    Result<txn::SlotHandle> slot = log->AcquireSlot(++txid);
    log->ReleaseSlot(*slot);
  }
}

// A shared lock/unlock pair on one latch every thread takes, as every point
// operation takes its tree's latch: std::shared_mutex writes one shared
// line twice per pair, the striped latch only the caller's own stripe.
template <typename Latch>
void BM_TreeLatchShared(::benchmark::State& state) {
  static Latch latch;
  for (auto _ : state) {
    latch.lock_shared();
    ::benchmark::ClobberMemory();
    latch.unlock_shared();
  }
}

// A kamino-simple KvStore (one applier, no injected flush latency) with
// kKeysPerThread 1 KB values for each of up to 2 client threads. Built once
// and never torn down, so its applier outlives every benchmark run.
constexpr uint64_t kKvValueBytes = 1024;

kv::KvStore* SharedKv() {
  static kv::KvStore* store = [] {
    heap::HeapOptions hopts;
    hopts.pool_size = 64ull << 20;
    auto* heap = heap::Heap::Create(hopts).value().release();
    auto* mgr = txn::TxManager::Create(heap, txn::TxManagerOptions()).value().release();
    auto* kv = kv::KvStore::Create(mgr).value().release();
    const std::string value(kKvValueBytes, 'v');
    for (uint64_t k = 0; k < 2 * kKeysPerThread; ++k) {
      (void)kv->Insert(k, value);
    }
    mgr->WaitIdle();
    return kv;
  }();
  return store;
}

// One Read and one Update of this thread's own keys: Begin, the tree
// descent, read locks, the intent append and flush, the commit record, the
// hand-off to the applier and the context's recycling — every layer of a
// transaction's software cost, with the persistence latency model at 0.
void BM_KvReadUpdate(::benchmark::State& state) {
  kv::KvStore* kv = SharedKv();
  const uint64_t base = static_cast<uint64_t>(state.thread_index()) * kKeysPerThread;
  const std::string value(kKvValueBytes, 'u');
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t key = base + (i++ % kKeysPerThread);
    Result<std::string> v = kv->Read(key);
    ::benchmark::DoNotOptimize(v);
    Status st = kv->Update(key, value);
    ::benchmark::DoNotOptimize(st);
  }
}

// One point Get on the shared tree: the latch, the descent, the blob's read
// lock and the value copy. Each of up to 4 threads reads its own quarter of
// the keys.
void BM_KvGet(::benchmark::State& state) {
  kv::KvStore* kv = SharedKv();
  constexpr uint64_t kPerThread = kKeysPerThread / 2;
  const uint64_t base = static_cast<uint64_t>(state.thread_index()) * kPerThread;
  uint64_t i = 0;
  for (auto _ : state) {
    Result<std::string> v = kv->Read(base + (i++ % kPerThread));
    ::benchmark::DoNotOptimize(v);
  }
}

BENCHMARK(BM_PoolFlushDrain)->DenseThreadRange(1, 4);
BENCHMARK(BM_LockWritePair)->DenseThreadRange(1, 4);
BENCHMARK(BM_LockReadPair)->DenseThreadRange(1, 4);
BENCHMARK(BM_LogSlotCycle)->DenseThreadRange(1, 4);
BENCHMARK_TEMPLATE(BM_TreeLatchShared, std::shared_mutex)->DenseThreadRange(1, 4);
BENCHMARK_TEMPLATE(BM_TreeLatchShared, StripedSharedMutex)->DenseThreadRange(1, 4);
BENCHMARK(BM_KvGet)->DenseThreadRange(1, 4)->UseRealTime();
BENCHMARK(BM_KvReadUpdate)->DenseThreadRange(1, 2)->UseRealTime();

}  // namespace
}  // namespace kamino::bench

BENCHMARK_MAIN();
