// Shared benchmark scaffolding.
//
// Every figure-reproduction binary builds the same stack the paper measured:
// a KV store over the persistent B+Tree over one of the atomicity engines,
// loaded with N records of `value_size` bytes, then driven by YCSB client
// threads. Benchmarks register with google-benchmark, run the whole workload
// once per iteration (manual timing) and report throughput/latency as
// counters — the counter series across benchmarks IS the paper's figure.
//
// Scale note: the paper used 10M 1KB records on 16-core Azure A9 VMs; these
// defaults are sized for a small CI host (see EXPERIMENTS.md). Override with
// KAMINO_BENCH_KEYS / KAMINO_BENCH_OPS when running on bigger metal.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "src/kv/kv_store.h"
#include "src/kv/store.h"
#include "src/stats/histogram.h"
#include "src/workload/ycsb.h"

namespace kamino::bench {

inline uint64_t DefaultKeys() { return EnvOr("KAMINO_BENCH_KEYS", 20'000); }
inline uint64_t DefaultOps() { return EnvOr("KAMINO_BENCH_OPS", 30'000); }
// Emulated NVM write-back cost per cache line. 0 models battery-backed DRAM
// (where copying is nearly free and the engines converge); ~150 ns models
// NVDIMM-class clwb cost, which is what makes undo/CoW's critical-path
// copies expensive — the effect the paper measures. See EXPERIMENTS.md.
inline uint32_t DefaultFlushNs() {
  return static_cast<uint32_t>(EnvOr("KAMINO_BENCH_FLUSH_NS", 150));
}
inline constexpr size_t kValueSize = 1024;  // The paper's 1 KB records.

// Upserts keys [0, nkeys), key k holding YcsbValue(k, value_size), split
// into contiguous ranges over `threads` loader threads (front-ends with
// injected persist latency load faster in parallel). Any failure aborts:
// a bench must never measure a half-loaded store.
inline void LoadKeys(kv::Store* store, uint64_t nkeys, size_t value_size = kValueSize,
                     int threads = 1) {
  const uint64_t per =
      (nkeys + static_cast<uint64_t>(threads) - 1) / static_cast<uint64_t>(threads);
  std::vector<std::thread> loaders;
  loaders.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    loaders.emplace_back([=] {
      const uint64_t lo = static_cast<uint64_t>(t) * per;
      const uint64_t hi = std::min(nkeys, lo + per);
      for (uint64_t k = lo; k < hi; ++k) {
        Status st = store->Upsert(k, workload::YcsbValue(k, value_size));
        if (!st.ok()) {
          std::fprintf(stderr, "load failed at %llu: %s\n",
                       static_cast<unsigned long long>(k), st.ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (auto& l : loaders) {
    l.join();
  }
}

// A full single-node stack: heap + engine + KV store.
struct KvBundle {
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<txn::TxManager> mgr;
  std::unique_ptr<kv::KvStore> store;

  static std::unique_ptr<KvBundle> Make(txn::EngineType engine, uint64_t nkeys,
                                        size_t value_size = kValueSize, double alpha = 0.2,
                                        uint32_t flush_latency_ns = DefaultFlushNs()) {
    auto b = std::make_unique<KvBundle>();
    heap::HeapOptions hopts;
    // Blobs round up to the next size class (1 KB payload -> 2 KB class);
    // triple the raw data size plus tree nodes and slack.
    hopts.pool_size = nkeys * value_size * 3 + (96ull << 20);
    hopts.flush_latency_ns = flush_latency_ns;
    hopts.log_region_size = 16ull << 20;
    b->heap = std::move(heap::Heap::Create(hopts).value());

    txn::TxManagerOptions mopts;
    mopts.engine = engine;
    mopts.alpha = alpha;
    mopts.lock.timeout_ms = 10'000;
    mopts.backup_flush_latency_ns = flush_latency_ns;
    b->mgr = std::move(txn::TxManager::Create(b->heap.get(), mopts).value());
    b->store = std::move(kv::KvStore::Create(b->mgr.get()).value());
    return b;
  }

  void Load(uint64_t nkeys, size_t value_size = kValueSize) {
    LoadKeys(store.get(), nkeys, value_size);
    mgr->WaitIdle();
  }
};

struct YcsbResult {
  double ops_per_sec = 0;
  double mean_us = 0;
  double p99_us = 0;
  uint64_t errors = 0;
  // Persistence work accounting (hardware-independent evidence of what sits
  // in the critical path): cache lines written back to the MAIN pool happen
  // on client threads (the critical path for every engine); backup-pool
  // lines are the Kamino applier's background work.
  double critical_path_lines_per_op = 0;
  double background_lines_per_op = 0;
  double dependent_block_us_per_op = 0;
  // The share of it spent by read-lock acquisitions.
  double dependent_read_block_us_per_op = 0;
  // Fence accounting (DESIGN.md §8): main-pool Flush/Drain calls per
  // committed transaction. Drains are the ordering points (SFENCE) the
  // commit critical path actually waits on; this is the number the
  // fence-elision work drives down.
  double main_flushes_per_txn = 0;
  double main_drains_per_txn = 0;
};

// Runs `ops_per_thread` YCSB requests on each of `threads` client threads
// against any front-end. Client t draws its request stream from seed
// `seed_base + t`, so a bench that keeps its seed base keeps its exact op
// stream. With `multi_update_pct` > 0, a per-client LCG turns that share of
// requests into one atomic two-key MultiUpdate (the drawn key plus a
// partner key, usually on another shard). Failures other than kNotFound
// are counted in `errors`. Each client records into its own histogram and
// merges it once at the end, so no shared cache line is written per op.
inline YcsbResult RunYcsb(kv::Store* store, workload::YcsbWorkload workload, int threads,
                          uint64_t ops_per_thread, uint64_t nkeys,
                          size_t value_size = kValueSize, uint64_t seed_base = 0x9E3779B9u,
                          int multi_update_pct = 0) {
  std::atomic<uint64_t> key_count{nkeys};
  stats::LatencyHistogram hist;
  std::atomic<uint64_t> errors{0};

  const uint64_t start_ns = stats::NowNanos();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      workload::YcsbGenerator gen(workload, nkeys, &key_count,
                                  seed_base + static_cast<uint64_t>(t));
      std::string value = workload::YcsbValue(static_cast<uint64_t>(t), value_size);
      uint64_t lcg = 0x9E3779B9u * (static_cast<uint64_t>(t) + 1);
      stats::LatencyHistogram local_hist;
      uint64_t local_errors = 0;
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto req = gen.Next();
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t op_start = stats::NowNanos();
        Status st;
        if (multi_update_pct > 0 && static_cast<int>((lcg >> 33) % 100) < multi_update_pct) {
          uint64_t other = (req.key * 2654435761ull + 1) % nkeys;
          if (other == req.key) {
            other = (other + 1) % nkeys;
          }
          st = store->MultiUpdate({{req.key, value}, {other, value}});
        } else {
          switch (req.op) {
            case workload::YcsbOp::kRead:
              st = store->Read(req.key).status();
              break;
            case workload::YcsbOp::kUpdate:
              st = store->Update(req.key, value);
              break;
            case workload::YcsbOp::kInsert:
              st = store->Upsert(req.key, value);
              break;
            case workload::YcsbOp::kReadModifyWrite:
              st = store->ReadModifyWrite(req.key, [](std::string& v) {
                if (!v.empty()) {
                  ++v[0];
                }
              });
              break;
          }
        }
        local_hist.Record(stats::NowNanos() - op_start);
        if (!st.ok() && st.code() != StatusCode::kNotFound) {
          ++local_errors;
        }
      }
      hist.Merge(local_hist);
      errors.fetch_add(local_errors, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const uint64_t elapsed_ns = stats::NowNanos() - start_ns;

  YcsbResult res;
  const double secs = static_cast<double>(elapsed_ns) / 1e9;
  res.ops_per_sec =
      secs > 0 ? static_cast<double>(ops_per_thread) * threads / secs : 0;
  res.mean_us = hist.MeanNs() / 1000.0;
  res.p99_us = static_cast<double>(hist.PercentileNs(99)) / 1000.0;
  res.errors = errors.load();
  return res;
}

inline void SetYcsbCounters(::benchmark::State& state, const YcsbResult& res) {
  state.counters["Kops_per_sec"] = res.ops_per_sec / 1000.0;
  state.counters["mean_us"] = res.mean_us;
  state.counters["p99_us"] = res.p99_us;
  state.counters["errors"] = static_cast<double>(res.errors);
  state.counters["cp_lines_per_op"] = res.critical_path_lines_per_op;
  state.counters["bg_lines_per_op"] = res.background_lines_per_op;
  state.counters["dep_block_us_per_op"] = res.dependent_block_us_per_op;
  state.counters["dep_read_block_us_per_op"] = res.dependent_read_block_us_per_op;
  state.counters["flushes_per_txn"] = res.main_flushes_per_txn;
  state.counters["drains_per_txn"] = res.main_drains_per_txn;
}

// RunYcsb plus persistence-work accounting around the run.
inline YcsbResult RunYcsbOnBundle(KvBundle* bundle, workload::YcsbWorkload workload,
                                  int threads, uint64_t ops_per_thread, uint64_t nkeys,
                                  size_t value_size = kValueSize) {
  bundle->mgr->WaitIdle();
  const nvm::PoolStats main_before = bundle->heap->pool()->stats();
  nvm::PoolStats backup_before;
  if (bundle->mgr->backup_pool() != nullptr) {
    backup_before = bundle->mgr->backup_pool()->stats();
  }
  const txn::LockStats locks_before = bundle->mgr->locks()->stats();
  const txn::EngineStats engine_before = bundle->mgr->engine()->stats();

  YcsbResult res =
      RunYcsb(bundle->store.get(), workload, threads, ops_per_thread, nkeys, value_size);

  bundle->mgr->WaitIdle();
  const double total_ops = static_cast<double>(ops_per_thread) * threads;
  const nvm::PoolStats main_after = bundle->heap->pool()->stats();
  res.critical_path_lines_per_op =
      static_cast<double>(main_after.lines_flushed - main_before.lines_flushed) / total_ops;
  if (bundle->mgr->backup_pool() != nullptr) {
    const nvm::PoolStats backup_after = bundle->mgr->backup_pool()->stats();
    res.background_lines_per_op =
        static_cast<double>(backup_after.lines_flushed - backup_before.lines_flushed) /
        total_ops;
  }
  const txn::LockStats locks_after = bundle->mgr->locks()->stats();
  res.dependent_block_us_per_op =
      static_cast<double>(locks_after.total_block_ns - locks_before.total_block_ns) / 1000.0 /
      total_ops;
  res.dependent_read_block_us_per_op =
      static_cast<double>(locks_after.read_block_ns - locks_before.read_block_ns) / 1000.0 /
      total_ops;
  const txn::EngineStats engine_after = bundle->mgr->engine()->stats();
  const double txns =
      static_cast<double>(engine_after.committed - engine_before.committed);
  if (txns > 0) {
    res.main_flushes_per_txn =
        static_cast<double>(main_after.flush_calls - main_before.flush_calls) / txns;
    res.main_drains_per_txn =
        static_cast<double>(main_after.drain_calls - main_before.drain_calls) / txns;
  }
  return res;
}

inline const char* EngineLabel(txn::EngineType e) {
  switch (e) {
    case txn::EngineType::kKaminoSimple:
      return "KaminoTx";
    case txn::EngineType::kKaminoDynamic:
      return "KaminoTxDynamic";
    case txn::EngineType::kUndoLog:
      return "UndoLogging";
    case txn::EngineType::kCow:
      return "CopyOnWrite";
    case txn::EngineType::kRedoLog:
      return "RedoLogging";
    case txn::EngineType::kNoLogging:
      return "NoLogging";
    default:
      return "Unknown";
  }
}

}  // namespace kamino::bench

#endif  // BENCH_BENCH_UTIL_H_
