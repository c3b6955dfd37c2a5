// Transaction Coordinator scaling sweep (ISSUE 2 acceptance benchmark).
//
// Measures commit-to-applied throughput of the sharded applier pipeline on
// YCSB-A over Kamino-Tx-Simple as the applier thread count grows. The
// backup pool injects a per-drain latency that *sleeps* instead of spinning
// (PoolOptions::sleep_latency), so concurrent appliers overlap their
// persistence stalls even on a single-core host — which is exactly what
// sharding buys: the bound is N overlapping drains, not one serial stream.
//
// Clients outrun the applier by construction (main-pool latency is zero),
// so the intent log's slot pool applies backpressure and end-to-end
// throughput is the applier pipeline's. Emits BENCH_applier_scaling.json.
//
// Not a google-benchmark binary: the sweep is the product, and we want the
// JSON schema stable for the acceptance check.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "src/heap/heap.h"
#include "src/kv/kv_store.h"
#include "src/stats/histogram.h"
#include "src/txn/tx_manager.h"
#include "src/workload/ycsb.h"

namespace {

using kamino::bench::EnvOr;
using kamino::bench::JsonObject;

// One sweep point as a result row; `*ops_per_sec` receives its
// commit->applied throughput for the summary.
JsonObject RunOnce(int applier_threads, uint64_t nkeys, uint64_t ops_per_thread,
                   int client_threads, uint64_t value_size, uint32_t backup_drain_ns,
                   double* ops_per_sec) {
  kamino::heap::HeapOptions hopts;
  hopts.pool_size = nkeys * value_size * 3 + (96ull << 20);
  hopts.flush_latency_ns = 0;  // Keep the client-side critical path cheap.
  auto heap = std::move(kamino::heap::Heap::Create(hopts).value());

  kamino::txn::TxManagerOptions mopts;
  mopts.engine = kamino::txn::EngineType::kKaminoSimple;
  mopts.applier_threads = applier_threads;
  mopts.lock.timeout_ms = 30'000;
  mopts.backup_drain_latency_ns = backup_drain_ns;
  mopts.backup_sleep_latency = true;  // Overlappable stalls (see header note).
  auto mgr = std::move(kamino::txn::TxManager::Create(heap.get(), mopts).value());
  auto store = std::move(kamino::kv::KvStore::Create(mgr.get()).value());

  kamino::bench::LoadKeys(store.get(), nkeys, value_size);
  mgr->WaitIdle();

  const kamino::txn::EngineStats before = mgr->engine()->stats();
  const kamino::nvm::PoolStats backup_before = mgr->backup_pool()->stats();

  std::atomic<bool> running{true};
  std::atomic<uint64_t> max_depth{0};
  std::thread sampler([&] {
    while (running.load(std::memory_order_relaxed)) {
      const uint64_t d = mgr->engine()->stats().applier_queue_depth;
      uint64_t cur = max_depth.load(std::memory_order_relaxed);
      while (d > cur && !max_depth.compare_exchange_weak(cur, d)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const uint64_t start_ns = kamino::stats::NowNanos();
  const kamino::bench::YcsbResult res = kamino::bench::RunYcsb(
      store.get(), kamino::workload::YcsbWorkload::kA, client_threads, ops_per_thread, nkeys,
      value_size, /*seed_base=*/0x243F6A88u);
  if (res.errors > 0) {
    std::fprintf(stderr, "%llu ops failed\n", static_cast<unsigned long long>(res.errors));
    std::abort();
  }
  // The run is over when every committed transaction is applied — the
  // number we are scaling is the pipeline's, not the clients'.
  mgr->WaitIdle();
  const uint64_t elapsed_ns = kamino::stats::NowNanos() - start_ns;
  running.store(false, std::memory_order_relaxed);
  sampler.join();

  const kamino::txn::EngineStats after = mgr->engine()->stats();
  const kamino::nvm::PoolStats backup_after = mgr->backup_pool()->stats();

  const uint64_t applied = after.applied - before.applied;
  const double elapsed_s = static_cast<double>(elapsed_ns) / 1e9;
  *ops_per_sec = elapsed_s > 0 ? static_cast<double>(applied) / elapsed_s : 0;
  const uint64_t backup_drains = backup_after.drain_calls - backup_before.drain_calls;
  JsonObject row;
  row.Int("applier_threads", applier_threads)
      .Num("commit_to_applied_ops_per_sec", *ops_per_sec, 1)
      .Int("applied", applied)
      .Num("elapsed_s", elapsed_s, 3)
      .Num("backup_drains_per_txn",
           applied > 0 ? static_cast<double>(backup_drains) / static_cast<double>(applied) : 0,
           3)
      .Int("apply_batches", after.apply_batches - before.apply_batches)
      .Int("coalesced_ranges", after.coalesced_ranges - before.coalesced_ranges)
      .Num("apply_lag_p50_us", static_cast<double>(after.apply_lag_p50_ns) / 1000.0, 1)
      .Num("apply_lag_p99_us", static_cast<double>(after.apply_lag_p99_ns) / 1000.0, 1)
      .Int("max_queue_depth", max_depth.load())
      // Intent-log slot backpressure: how often clients blocked waiting for a
      // free slot, and for how long in total. With clients outrunning the
      // applier by construction, this is the visible face of the backpressure.
      .Int("blocked_acquires", after.log_blocked_acquires - before.log_blocked_acquires)
      .Num("blocked_wait_ms",
           static_cast<double>(after.log_blocked_wait_ns - before.log_blocked_wait_ns) / 1e6,
           2);
  return row;
}

}  // namespace

int main() {
  const uint64_t nkeys = EnvOr("KAMINO_BENCH_KEYS", 8192);
  const uint64_t ops_per_thread = EnvOr("KAMINO_BENCH_OPS", 2000);
  const int client_threads = static_cast<int>(EnvOr("KAMINO_BENCH_CLIENTS", 4));
  const uint64_t value_size = EnvOr("KAMINO_BENCH_VALUE", 1024);
  const uint32_t backup_drain_ns =
      static_cast<uint32_t>(EnvOr("KAMINO_BENCH_BACKUP_DRAIN_NS", 30'000));
  if (nkeys == 0 || ops_per_thread == 0 || client_threads <= 0 || value_size == 0) {
    std::fprintf(stderr,
                 "invalid knobs: KAMINO_BENCH_KEYS/OPS/CLIENTS/VALUE must be "
                 "positive integers\n");
    return 2;
  }

  kamino::bench::BenchReport report;
  report.bench = "applier_scaling";
  report.config.Str("workload", "ycsb-a")
      .Str("engine", "kamino-simple")
      .Int("keys", nkeys)
      .Int("ops_per_client", ops_per_thread)
      .Int("client_threads", client_threads)
      .Int("value_size", value_size)
      .Int("backup_drain_ns", backup_drain_ns);
  // A sweep point fails if its commit->applied throughput drops by more
  // than --threshold; faster is never an error.
  report.compare = {{"applier_threads"}, "commit_to_applied_ops_per_sec", "higher"};

  double base = 0;
  double at4 = 0;
  for (int n : {1, 2, 4, 8}) {
    std::fprintf(stderr, "applier_threads=%d ...\n", n);
    double ops_per_sec = 0;
    report.rows.push_back(RunOnce(n, nkeys, ops_per_thread, client_threads, value_size,
                                  backup_drain_ns, &ops_per_sec));
    std::fprintf(stderr, "  %s\n", report.rows.back().str().c_str());
    if (n == 1) {
      base = ops_per_sec;
    } else if (n == 4) {
      at4 = ops_per_sec;
    }
  }
  report.summary.Num("speedup_1_to_4", base > 0 ? at4 / base : 0, 2);
  return report.Write();
}
