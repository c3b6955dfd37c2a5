// Keyspace-sharding sweep (ISSUE 7 acceptance benchmark).
//
// Measures end-to-end YCSB-A (zipfian) throughput against a ShardedStore as
// the shard count grows (1/2/4/8) at a fixed client count, with the
// cross-shard MultiUpdate fraction swept (0% / 5% / 20%).
//
// The pools inject per-line flush and per-fence drain latency that *sleeps*
// instead of spinning, so independent shards overlap their persistence
// stalls even on a small host. The serialized resource sharding multiplies
// is the per-shard applier: each shard has exactly one applier thread whose
// backup write-back (the Kamino mirror sync) is one serial persistence
// stream — one shard is one stream, N shards are N. Throughput is measured
// commit-to-applied (clients done AND every backup in sync), the same
// sustained metric the applier_scaling bench gates on: a store cannot
// sustain commits faster than its backup drains, and write locks are held
// until the backup syncs, so apply lag feeds straight back into the
// zipfian-hot keys. That feedback is also why scaling is sub-linear: the
// shard owning the scrambled-zipfian hot key absorbs ~10% of all updates on
// top of its 1/N share, so its applier saturates first (the output's
// per-shard imbalance column makes this visible).
//
// Per-shard EngineStats expose queue depth and commit imbalance so the
// router's key spreading is visible in the output.
//
// Not a google-benchmark binary: the sweep is the product, and the JSON
// schema (BENCH_sharding.json) is what tools/check_bench_regression.py
// gates on.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "src/shard/sharded_store.h"
#include "src/stats/histogram.h"
#include "src/workload/ycsb.h"

namespace {

using kamino::bench::EnvOr;
using kamino::bench::JsonObject;

// One sweep point as a result row; `*ops_per_sec` receives its throughput
// for the summary.
JsonObject RunOnce(int shards, int cross_pct, uint64_t nkeys, uint64_t ops_per_thread,
                   int client_threads, uint64_t value_size, uint32_t flush_ns,
                   uint32_t drain_ns, uint32_t backup_flush_ns, uint32_t backup_drain_ns,
                   double* ops_per_sec) {
  kamino::shard::ShardedStoreOptions sopts;
  sopts.num_shards = shards;
  sopts.pool_size =
      nkeys * value_size * 3 / static_cast<uint64_t>(shards) + (48ull << 20);
  sopts.log_region_size = 8ull << 20;
  sopts.lock.timeout_ms = 30'000;
  sopts.applier_threads = 1;
  sopts.sleep_latency = true;  // Overlappable stalls (see header note).
  sopts.flush_latency_ns = flush_ns;
  sopts.drain_latency_ns = drain_ns;
  auto store = std::move(kamino::shard::ShardedStore::Create(sopts).value());

  // Parallel load: the injected latency applies here too, so spread it.
  kamino::bench::LoadKeys(store.get(), nkeys, value_size, client_threads);
  store->WaitIdle();

  // Aim the backup write-back cost only now: the load phase above runs with a
  // free mirror so the sweep's measured window starts from a synced store.
  for (int s = 0; s < shards; ++s) {
    store->shard_manager(s)->backup_pool()->set_latency(backup_flush_ns, backup_drain_ns,
                                                        /*sleep=*/true);
  }

  std::vector<uint64_t> committed_before(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    committed_before[static_cast<size_t>(s)] = store->ShardStats(s).committed;
  }

  std::atomic<bool> running{true};
  std::atomic<uint64_t> max_depth{0};
  std::thread sampler([&] {
    while (running.load(std::memory_order_relaxed)) {
      uint64_t d = 0;
      for (int s = 0; s < shards; ++s) {
        d += store->ShardStats(s).applier_queue_depth;
      }
      uint64_t cur = max_depth.load(std::memory_order_relaxed);
      while (d > cur && !max_depth.compare_exchange_weak(cur, d)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const uint64_t start_ns = kamino::stats::NowNanos();
  // YCSB-A; `cross_pct` percent of requests become two-key MultiUpdates,
  // usually landing on two different shards and exercising the 2PC commit.
  const kamino::bench::YcsbResult res = kamino::bench::RunYcsb(
      store.get(), kamino::workload::YcsbWorkload::kA, client_threads, ops_per_thread, nkeys,
      value_size, /*seed_base=*/0x452821E6u, cross_pct);
  if (res.errors > 0) {
    std::fprintf(stderr, "%llu ops failed\n", static_cast<unsigned long long>(res.errors));
    std::abort();
  }
  store->WaitIdle();
  // Commit-to-applied: the clock stops when every backup is in sync, so the
  // number reflects the sustained rate the applier streams can absorb, not a
  // burst the queues would still be digesting.
  const uint64_t elapsed_ns = kamino::stats::NowNanos() - start_ns;
  running.store(false, std::memory_order_relaxed);
  sampler.join();

  const uint64_t ops = ops_per_thread * static_cast<uint64_t>(client_threads);
  const double elapsed_s = static_cast<double>(elapsed_ns) / 1e9;
  *ops_per_sec = elapsed_s > 0 ? static_cast<double>(ops) / elapsed_s : 0;
  uint64_t committed_min = ~0ull;
  uint64_t committed_max = 0;
  uint64_t total = 0;
  for (int s = 0; s < shards; ++s) {
    const uint64_t c =
        store->ShardStats(s).committed - committed_before[static_cast<size_t>(s)];
    committed_min = std::min(committed_min, c);
    committed_max = std::max(committed_max, c);
    total += c;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(shards);
  JsonObject row;
  row.Int("shards", shards)
      .Int("cross_shard_pct", cross_pct)
      .Num("ops_per_sec", *ops_per_sec, 1)
      .Int("ops", ops)
      .Num("elapsed_s", elapsed_s, 3)
      .Int("cross_shard_commits", store->cross_shard_stats().cross_shard_commits)
      .Int("committed_min", committed_min)
      .Int("committed_max", committed_max)
      // Max committed / mean committed across shards.
      .Num("imbalance", mean > 0 ? static_cast<double>(committed_max) / mean : 0, 3)
      // Summed across shards at the worst sample.
      .Int("max_queue_depth", max_depth.load());
  return row;
}

}  // namespace

int main() {
  const uint64_t nkeys = EnvOr("KAMINO_BENCH_KEYS", 8192);
  const uint64_t ops_per_thread = EnvOr("KAMINO_BENCH_OPS", 2000);
  const int client_threads = static_cast<int>(EnvOr("KAMINO_BENCH_CLIENTS", 8));
  const uint64_t value_size = EnvOr("KAMINO_BENCH_VALUE", 1024);
  const uint32_t flush_ns = static_cast<uint32_t>(EnvOr("KAMINO_BENCH_FLUSH_NS", 2'000));
  const uint32_t drain_ns = static_cast<uint32_t>(EnvOr("KAMINO_BENCH_DRAIN_NS", 20'000));
  const uint32_t backup_flush_ns =
      static_cast<uint32_t>(EnvOr("KAMINO_BENCH_BACKUP_FLUSH_NS", 35'000));
  const uint32_t backup_drain_ns =
      static_cast<uint32_t>(EnvOr("KAMINO_BENCH_BACKUP_DRAIN_NS", 20'000));
  if (nkeys == 0 || ops_per_thread == 0 || client_threads <= 0 || value_size == 0) {
    std::fprintf(stderr,
                 "invalid knobs: KAMINO_BENCH_KEYS/OPS/CLIENTS/VALUE must be "
                 "positive integers\n");
    return 2;
  }

  kamino::bench::BenchReport report;
  report.bench = "sharding";
  report.config.Str("workload", "ycsb-a")
      .Str("engine", "kamino-simple")
      .Int("keys", nkeys)
      .Int("ops_per_client", ops_per_thread)
      .Int("client_threads", client_threads)
      .Int("value_size", value_size)
      .Int("flush_ns", flush_ns)
      .Int("drain_ns", drain_ns)
      .Int("backup_flush_ns", backup_flush_ns)
      .Int("backup_drain_ns", backup_drain_ns);
  // A sweep point fails if its throughput drops by more than --threshold.
  // Gates: going from 1 to 4 shards at 0% cross-shard must speed throughput
  // up >= 2.5x (the point of sharding the commit front-end), and a 20%
  // cross-shard mix at 4 shards may cost at most 3x the 0% mix (the 2PC tax
  // stays bounded).
  report.compare = {{"shards", "cross_shard_pct"}, "ops_per_sec", "higher"};
  report.gates = {{"speedup_1_to_4_shards", ">=", 2.5},
                  {"cross_shard_penalty_20pct", "<=", 3.0}};

  double s1c0 = 0;
  double s4c0 = 0;
  double s4c20 = 0;
  for (int shards : {1, 2, 4, 8}) {
    for (int cross : {0, 5, 20}) {
      std::fprintf(stderr, "shards=%d cross=%d%% ...\n", shards, cross);
      double ops_per_sec = 0;
      report.rows.push_back(RunOnce(shards, cross, nkeys, ops_per_thread, client_threads,
                                    value_size, flush_ns, drain_ns, backup_flush_ns,
                                    backup_drain_ns, &ops_per_sec));
      std::fprintf(stderr, "  %s\n", report.rows.back().str().c_str());
      if (shards == 1 && cross == 0) {
        s1c0 = ops_per_sec;
      } else if (shards == 4 && cross == 0) {
        s4c0 = ops_per_sec;
      } else if (shards == 4 && cross == 20) {
        s4c20 = ops_per_sec;
      }
    }
  }
  report.summary.Num("speedup_1_to_4_shards", s1c0 > 0 ? s4c0 / s1c0 : 0, 2)
      .Num("cross_shard_penalty_20pct", s4c20 > 0 ? s4c0 / s4c20 : 0, 2);
  return report.Write();
}
