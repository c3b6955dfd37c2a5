// Backup-epoch read path: scan-vs-OLTP interference and replica read
// scaling (DESIGN.md §12 acceptance benchmark).
//
// Part 1 — interference. One Kamino-Tx-Simple store takes a steady update
// load while a scanner repeatedly walks the whole keyspace three ways:
// not at all (baseline), through the main-path Scan (a 2PL transaction that
// read-locks every object it touches), and through the contention-free
// analytics path (SnapshotScanChunked against the backup at an epoch cut,
// zero main-heap lock acquisitions). The product is the update p50 under
// each mode: the backup path must inflate the writers' p50 by at most 1.3x
// of baseline AND by no more than the main-path scan does.
//
// Part 2 — read scaling. A replicated chain serves reads two ways: the
// linearizable client path (every read funnels through the head->tail
// network hop) and ReadStale (answered locally by ANY live replica,
// round-robined). Stale read throughput at 3 replicas must be >= 1.8x the
// head-path throughput — that is what serving reads from mid/tail replicas
// at their applied epoch buys.
//
// Not a google-benchmark binary: the two gated comparisons are the product
// and the JSON schema feeds tools/check_bench_regression.py. Emits
// BENCH_backup_reads.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "src/chain/chain.h"
#include "src/heap/heap.h"
#include "src/kv/kv_store.h"
#include "src/stats/histogram.h"
#include "src/txn/tx_manager.h"
#include "src/workload/ycsb.h"

namespace {

using kamino::Status;
using kamino::StatusCode;
using kamino::bench::EnvOr;
using kamino::bench::JsonObject;

enum class ScanMode { kNone, kMain, kBackup };

struct InterferenceBundle {
  std::unique_ptr<kamino::heap::Heap> heap;
  std::unique_ptr<kamino::txn::TxManager> mgr;
  std::unique_ptr<kamino::kv::KvStore> store;
};

InterferenceBundle BuildStore(uint64_t nkeys, uint64_t value_size, uint32_t flush_ns) {
  InterferenceBundle b;
  kamino::heap::HeapOptions hopts;
  hopts.pool_size = nkeys * value_size * 3 + (96ull << 20);
  // A realistic per-line write-back cost keeps the update critical path in
  // the tens of microseconds, so the p50 comparison measures scan-induced
  // blocking rather than scheduler noise.
  hopts.flush_latency_ns = flush_ns;
  b.heap = std::move(kamino::heap::Heap::Create(hopts).value());

  kamino::txn::TxManagerOptions mopts;
  mopts.engine = kamino::txn::EngineType::kKaminoSimple;
  mopts.applier_threads = 2;
  mopts.lock.timeout_ms = 30'000;
  b.mgr = std::move(kamino::txn::TxManager::Create(b.heap.get(), mopts).value());
  b.store = std::move(kamino::kv::KvStore::Create(b.mgr.get()).value());

  kamino::bench::LoadKeys(b.store.get(), nkeys, value_size);
  b.mgr->WaitIdle();
  return b;
}

// One fixed-duration phase as a result row: `writers` update threads, plus
// (mode != kNone) one scanner thread continuously walking the full keyspace.
// The kNone phase sets `*baseline_p50_us`, which every row's p50 inflation
// is relative to.
JsonObject RunPhase(InterferenceBundle& b, const char* phase, ScanMode mode, uint64_t nkeys,
                    uint64_t value_size, uint64_t phase_ms, int writers, uint64_t chunk,
                    uint64_t write_gap_us, double* baseline_p50_us) {
  const kamino::txn::EngineStats before = b.mgr->engine()->stats();
  kamino::stats::LatencyHistogram hist;
  std::mutex hist_mu;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> scan_errors{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      kamino::stats::LatencyHistogram local;
      uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(t);
      const std::string value =
          kamino::workload::YcsbValue(static_cast<uint64_t>(t), value_size);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t key = x % nkeys;
        const uint64_t t0 = kamino::stats::NowNanos();
        Status st = b.store->Update(key, value);
        if (st.ok()) {
          local.Record(kamino::stats::NowNanos() - t0);
          updates.fetch_add(1, std::memory_order_relaxed);
        }
        // Pace the open-loop load well below the pipeline's capacity:
        // otherwise the baseline p50 measures log-slot backpressure, and a
        // scanner that merely throttles throughput "improves" latency.
        if (write_gap_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(write_gap_us));
        }
      }
      std::lock_guard<std::mutex> lock(hist_mu);
      hist.Merge(local);
    });
  }
  if (mode != ScanMode::kNone) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        kamino::Result<std::vector<std::pair<uint64_t, std::string>>> rows =
            mode == ScanMode::kMain
                ? b.store->Scan(0, nkeys)
                : b.store->SnapshotScanChunked(0, nkeys, chunk);
        if (rows.ok() && rows->size() == nkeys) {
          scans.fetch_add(1, std::memory_order_relaxed);
        } else {
          scan_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const uint64_t start_ns = kamino::stats::NowNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(phase_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) {
    th.join();
  }
  const double elapsed_s =
      static_cast<double>(kamino::stats::NowNanos() - start_ns) / 1e9;
  b.mgr->WaitIdle();

  const kamino::txn::EngineStats after = b.mgr->engine()->stats();
  const double p50_us = static_cast<double>(hist.PercentileNs(50)) / 1000.0;
  if (mode == ScanMode::kNone) {
    *baseline_p50_us = p50_us;
  }
  JsonObject row;
  row.Str("phase", phase)
      .Num("update_p50_us", p50_us, 1)
      .Num("update_p99_us", static_cast<double>(hist.PercentileNs(99)) / 1000.0, 1)
      .Num("updates_per_sec", static_cast<double>(updates.load()) / elapsed_s, 0)
      .Num("scans_per_sec", static_cast<double>(scans.load()) / elapsed_s, 2)
      .Int("scan_errors", scan_errors.load())
      .Num("p50_inflation", *baseline_p50_us > 0 ? p50_us / *baseline_p50_us : 0, 3)
      // Backup-path evidence (zero in the other modes).
      .Int("backup_read_hits", after.backup_read_hits - before.backup_read_hits)
      .Int("backup_read_misses", after.backup_read_misses - before.backup_read_misses)
      .Int("snapshot_views", after.backup_snapshot_views - before.backup_snapshot_views)
      .Int("cut_fence_waits", after.backup_cut_fence_waits - before.backup_cut_fence_waits);
  return row;
}

struct ChainPoint {
  double stale_reads_per_sec = 0;
  double head_reads_per_sec = 0;  // Linearizable path; 0 when not measured.
};

double RunChainReaders(kamino::chain::Chain* chain, uint64_t nkeys, int readers,
                       uint64_t phase_ms, bool stale) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      uint64_t key = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        key = (key + 1) % nkeys;
        kamino::Result<std::string> v =
            stale ? chain->ReadStale(key) : chain->Read(key);
        if (v.ok()) {
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const uint64_t start_ns = kamino::stats::NowNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(phase_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) {
    th.join();
  }
  const double elapsed_s =
      static_cast<double>(kamino::stats::NowNanos() - start_ns) / 1e9;
  return static_cast<double>(reads.load()) / elapsed_s;
}

ChainPoint RunChain(int replicas, uint64_t nkeys, int readers, uint64_t phase_ms) {
  kamino::chain::ChainOptions opts;
  // Traditional geometry (f+1 replicas) hits the exact lengths 1 and 3;
  // StaleRead is chain-scheme-agnostic, so the scaling story is the same.
  opts.kamino = false;
  opts.f = replicas - 1;
  opts.pool_size = 32ull << 20;
  opts.log_region_size = 4ull << 20;
  opts.one_way_latency_us = 10;  // The paper's l_n on every protocol hop.
  auto chain = std::move(kamino::chain::Chain::Create(opts).value());
  if (static_cast<int>(chain->num_replicas()) != replicas) {
    std::fprintf(stderr, "geometry: wanted %d replicas, got %zu\n", replicas,
                 chain->num_replicas());
    std::abort();
  }
  kamino::bench::LoadKeys(chain.get(), nkeys, 128);
  if (!chain->Quiesce().ok()) {
    std::abort();
  }
  ChainPoint p;
  p.stale_reads_per_sec =
      RunChainReaders(chain.get(), nkeys, readers, phase_ms, /*stale=*/true);
  p.head_reads_per_sec =
      RunChainReaders(chain.get(), nkeys, readers, phase_ms, /*stale=*/false);
  return p;
}

}  // namespace

int main() {
  const uint64_t nkeys = EnvOr("KAMINO_BENCH_KEYS", 4096);
  const uint64_t value_size = EnvOr("KAMINO_BENCH_VALUE", 256);
  const uint64_t phase_ms = EnvOr("KAMINO_BENCH_PHASE_MS", 800);
  const int writers = static_cast<int>(EnvOr("KAMINO_BENCH_WRITERS", 2));
  const uint64_t chunk = EnvOr("KAMINO_BENCH_CHUNK", 128);
  const uint64_t write_gap_us = EnvOr("KAMINO_BENCH_WRITE_GAP_US", 150);
  const uint32_t flush_ns =
      static_cast<uint32_t>(EnvOr("KAMINO_BENCH_FLUSH_NS", 1'000));
  const uint64_t chain_keys = EnvOr("KAMINO_BENCH_CHAIN_KEYS", 512);
  const int readers = static_cast<int>(EnvOr("KAMINO_BENCH_READERS", 4));
  if (nkeys == 0 || value_size == 0 || phase_ms == 0 || writers <= 0 || chunk == 0 ||
      chain_keys == 0 || readers <= 0) {
    std::fprintf(stderr,
                 "invalid knobs: KAMINO_BENCH_KEYS/VALUE/PHASE_MS/WRITERS/CHUNK/"
                 "CHAIN_KEYS/READERS must be positive integers\n");
    return 2;
  }

  kamino::bench::BenchReport report;
  report.bench = "backup_reads";
  report.config.Str("engine", "kamino-simple")
      .Int("keys", nkeys)
      .Int("value_size", value_size)
      .Int("phase_ms", phase_ms)
      .Int("writers", writers)
      .Int("chunk", chunk)
      .Int("flush_ns", flush_ns)
      .Int("write_gap_us", write_gap_us)
      .Int("chain_keys", chain_keys)
      .Int("readers", readers);
  // A phase fails if its update p50 rises by more than --threshold. The
  // main_scan row is informational: it measures 2PL lock-wait latency under
  // a scanner, which is wildly run-to-run noisy on small hosts, and its one
  // gating role — an upper bound the backup path must beat — is a gate.
  report.compare = {{"phase"}, "update_p50_us", "lower", {"main_scan"}};
  // The backup-path scan inflates the writers' p50 by at most 1.3x AND by no
  // more than the main-path scan; it really takes the backup path (opens
  // snapshot views); no scan errs; and at 3 replicas round-robined stale
  // reads deliver >= 1.8x the linearizable head-path throughput.
  report.gates = {
      {"backup_scan.p50_inflation", "<=", 1.3},
      {"backup_scan.p50_inflation", "<=", 1.0, "main_scan.p50_inflation"},
      {"backup_scan.snapshot_views", ">=", 1},
      {"main_scan.scan_errors", "<=", 0},
      {"backup_scan.scan_errors", "<=", 0},
      {"replicas_3_stale_vs_head", ">=", 1.8},
  };

  InterferenceBundle b = BuildStore(nkeys, value_size, flush_ns);
  double baseline_p50_us = 0;
  for (const auto& [phase, mode] : {std::pair{"baseline", ScanMode::kNone},
                                    std::pair{"main_scan", ScanMode::kMain},
                                    std::pair{"backup_scan", ScanMode::kBackup}}) {
    std::fprintf(stderr, "interference: %s ...\n", phase);
    report.rows.push_back(RunPhase(b, phase, mode, nkeys, value_size, phase_ms, writers,
                                   chunk, write_gap_us, &baseline_p50_us));
    std::fprintf(stderr, "  %s\n", report.rows.back().str().c_str());
  }
  b.store.reset();
  b.mgr.reset();
  b.heap.reset();

  std::fprintf(stderr, "chain: 1 replica ...\n");
  const ChainPoint chain1 = RunChain(1, chain_keys, readers, phase_ms);
  std::fprintf(stderr, "chain: 3 replicas ...\n");
  const ChainPoint chain3 = RunChain(3, chain_keys, readers, phase_ms);
  report.summary.Num("replicas_1_stale_reads_per_sec", chain1.stale_reads_per_sec, 0)
      .Num("replicas_1_head_reads_per_sec", chain1.head_reads_per_sec, 0)
      .Num("replicas_3_stale_reads_per_sec", chain3.stale_reads_per_sec, 0)
      .Num("replicas_3_head_reads_per_sec", chain3.head_reads_per_sec, 0)
      .Num("replicas_3_stale_vs_head",
           chain3.head_reads_per_sec > 0
               ? chain3.stale_reads_per_sec / chain3.head_reads_per_sec
               : 0,
           3);
  return report.Write();
}
