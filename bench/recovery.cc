// Recovery pipeline benchmark (online-recovery ISSUE acceptance).
//
// Measures restart-to-first-op and restart-to-full-throughput across three
// sweeps, for kamino-simple (full mirror, optionally reconciled) and
// kamino-dynamic (persistent partial backup, nothing to reconcile):
//
//   heap:    heap size x {offline, online}. Offline recovery pays the whole
//            backup reconcile sweep before Open() returns, so restart grows
//            with allocated bytes; online recovery opens right after replay
//            and first-op cost is bounded by one dirty chunk — roughly flat
//            in heap size. That flatness is the acceptance gate.
//   workers: parallel log replay 1 -> 4 workers over a large dirty set. The
//            backup pool's injected drain latency *sleeps*, so concurrent
//            replay workers overlap their persistence stalls exactly like
//            the applier shards do; the replay-time speedup is the gate.
//   dirty:   committed-but-unapplied transaction count, online. Shows
//            first-op tracking the dirty set, not the heap.
//
// All latency is injected (sleeping) on the backup pool only, so the numbers
// are mostly machine-independent and comparable against the committed
// baseline. Each row is the per-field median of kRuns restarts, so one
// restart slowed by a busy neighbour does not decide a row. Emits
// BENCH_recovery.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/heap/heap.h"
#include "src/nvm/pool.h"
#include "src/txn/backup_store.h"
#include "src/txn/kamino_engine.h"
#include "src/txn/tx_manager.h"

namespace {

using kamino::Status;
using kamino::bench::EnvOr;
using kamino::bench::JsonObject;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Config {
  const char* engine = "kamino-simple";
  const char* sweep = "heap";
  uint64_t heap_mb = 64;
  uint64_t dirty_txs = 32;
  int workers = 2;
  bool online = false;
  bool reconcile = false;
};

struct Point {
  Config cfg;
  double restart_to_first_op_ms = 0;
  double restart_to_full_ms = 0;
  double replay_ms = 0;
  uint64_t loaded_objects = 0;
  uint64_t dirty_chunks = 0;
  double reconciled_mb = 0;
  uint64_t fence_waits = 0;
  uint64_t ondemand_reconciles = 0;
};

// Crash-sim pools that outlive heap/manager teardown, so the run can
// power-cycle the machine and time the restart (the tests' CrashableSystem,
// minus the gtest dependency, plus bench-sized log options).
struct Sys {
  std::unique_ptr<kamino::nvm::Pool> main_pool;
  std::unique_ptr<kamino::nvm::Pool> backup_pool;
  std::unique_ptr<kamino::heap::Heap> heap;
  std::unique_ptr<kamino::txn::TxManager> mgr;
  kamino::txn::TxManagerOptions options;
};

constexpr uint64_t kObjectSize = 4096;
constexpr double kFill = 0.25;  // Fraction of the allocator region loaded.

Sys MakeSys(const Config& cfg) {
  Sys sys;
  kamino::nvm::PoolOptions popts;
  popts.size = cfg.heap_mb << 20;
  popts.crash_sim = true;
  sys.main_pool = std::move(kamino::nvm::Pool::Create(popts).value());

  const bool dynamic = std::strcmp(cfg.engine, "kamino-dynamic") == 0;
  sys.options.engine = dynamic ? kamino::txn::EngineType::kKaminoDynamic
                               : kamino::txn::EngineType::kKaminoSimple;
  sys.options.alpha = 0.25;
  sys.options.lock.timeout_ms = 30'000;
  // Enough slots to freeze the largest dirty set in the applier queue.
  sys.options.log.num_slots = 512;
  sys.options.log.slot_size = 8 * 1024;
  sys.options.log.max_records = 32;

  sys.heap = std::move(kamino::heap::Heap::CreateOn(sys.main_pool.get(), 8ull << 20).value());

  kamino::nvm::PoolOptions bopts;
  bopts.crash_sim = true;
  if (dynamic) {
    const uint64_t budget = static_cast<uint64_t>(
        0.25 * static_cast<double>(sys.heap->allocator()->stats().capacity));
    bopts.size = kamino::txn::DynamicBackupStore::RequiredPoolSize(budget, 1 << 14);
    sys.options.dynamic_lookup_buckets = 1 << 14;
  } else {
    bopts.size = popts.size;
  }
  sys.backup_pool = std::move(kamino::nvm::Pool::Create(bopts).value());
  sys.options.external_backup_pool = sys.backup_pool.get();

  sys.mgr = std::move(kamino::txn::TxManager::Create(sys.heap.get(), sys.options).value());
  return sys;
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

Point RunOnce(const Config& cfg, uint32_t backup_flush_ns, uint32_t backup_drain_ns) {
  Sys sys = MakeSys(cfg);

  // Load objects to kFill of the allocator region, full speed (no latency).
  const uint64_t capacity = sys.heap->allocator()->stats().capacity;
  const uint64_t num_objects =
      static_cast<uint64_t>(kFill * static_cast<double>(capacity)) / kObjectSize;
  std::vector<uint64_t> offs;
  offs.reserve(num_objects);
  for (uint64_t done = 0; done < num_objects;) {
    const uint64_t batch = std::min<uint64_t>(8, num_objects - done);
    Check(sys.mgr->Run([&](kamino::txn::Tx& tx) -> Status {
            for (uint64_t i = 0; i < batch; ++i) {
              kamino::Result<uint64_t> off = tx.Alloc(kObjectSize);
              if (!off.ok()) {
                return off.status();
              }
              offs.push_back(*off);
            }
            return Status::Ok();
          }),
          "load");
    done += batch;
  }
  sys.mgr->WaitIdle();

  // Freeze the applier and stage the dirty set: committed-but-unapplied
  // overwrites of distinct objects (disjoint write sets, like any snapshot of
  // in-flight commits at crash time).
  static_cast<kamino::txn::KaminoEngine*>(sys.mgr->engine())->PauseApplier(true);
  const uint64_t dirty = std::min<uint64_t>(cfg.dirty_txs, offs.size());
  for (uint64_t i = 0; i < dirty; ++i) {
    Check(sys.mgr->Run([&](kamino::txn::Tx& tx) -> Status {
            kamino::Result<void*> p = tx.OpenWrite(offs[i], kObjectSize);
            if (!p.ok()) {
              return p.status();
            }
            std::memset(*p, 0x5a, kObjectSize);
            return Status::Ok();
          }),
          "dirty stage");
  }

  // Machine dies. From here on the backup pool charges realistic (sleeping,
  // overlappable) persistence latency — recovery pays it, the load did not.
  sys.mgr.reset();
  sys.heap.reset();
  Check(sys.main_pool->Crash(kamino::nvm::CrashMode::kDropUnflushed), "main crash");
  Check(sys.backup_pool->Crash(kamino::nvm::CrashMode::kDropUnflushed), "backup crash");
  sys.backup_pool->set_latency(backup_flush_ns, backup_drain_ns, /*sleep=*/true);

  sys.options.recovery.workers = cfg.workers;
  sys.options.recovery.online = cfg.online;
  sys.options.recovery.reconcile_backup = cfg.reconcile;
  sys.options.recovery.reconcile_workers = 2;

  // Restart: attach + recover + one write on an object outside the dirty
  // set (its chunk is still dirty under reconcile — the fence pays for
  // exactly one chunk, not the heap).
  const uint64_t probe = offs[offs.size() / 2];
  const uint64_t t0 = NowNs();
  sys.heap = std::move(kamino::heap::Heap::Attach(sys.main_pool.get()).value());
  sys.mgr = std::move(kamino::txn::TxManager::Open(sys.heap.get(), sys.options).value());
  Check(sys.mgr->Run([&](kamino::txn::Tx& tx) -> Status {
          kamino::Result<void*> p = tx.OpenWrite(probe, kObjectSize);
          if (!p.ok()) {
            return p.status();
          }
          std::memset(*p, 0x7e, kObjectSize);
          return Status::Ok();
        }),
        "first op");
  const uint64_t t_first = NowNs();
  sys.mgr->WaitForRecovery();
  sys.mgr->WaitIdle();
  const uint64_t t_full = NowNs();

  const kamino::txn::EngineStats stats = sys.mgr->engine()->stats();
  Point p;
  p.cfg = cfg;
  p.restart_to_first_op_ms = static_cast<double>(t_first - t0) / 1e6;
  p.restart_to_full_ms = static_cast<double>(t_full - t0) / 1e6;
  p.replay_ms = static_cast<double>(stats.recovery_replay_ns) / 1e6;
  p.loaded_objects = offs.size();
  p.dirty_chunks = stats.recovery_dirty_chunks;
  p.reconciled_mb = static_cast<double>(stats.recovery_reconciled_bytes) / (1 << 20);
  p.fence_waits = stats.recovery_fence_waits;
  p.ondemand_reconciles = stats.recovery_ondemand_reconciles;
  return p;
}

constexpr int kRuns = 3;

template <typename T>
T MedianOf(const std::vector<Point>& runs, T Point::*field) {
  std::vector<T> values;
  for (const Point& run : runs) {
    values.push_back(run.*field);
  }
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

Point MedianRun(const Config& cfg, uint32_t backup_flush_ns, uint32_t backup_drain_ns) {
  std::vector<Point> runs;
  for (int i = 0; i < kRuns; ++i) {
    runs.push_back(RunOnce(cfg, backup_flush_ns, backup_drain_ns));
  }
  Point p;
  p.cfg = cfg;
  p.restart_to_first_op_ms = MedianOf(runs, &Point::restart_to_first_op_ms);
  p.restart_to_full_ms = MedianOf(runs, &Point::restart_to_full_ms);
  p.replay_ms = MedianOf(runs, &Point::replay_ms);
  p.loaded_objects = MedianOf(runs, &Point::loaded_objects);
  p.dirty_chunks = MedianOf(runs, &Point::dirty_chunks);
  p.reconciled_mb = MedianOf(runs, &Point::reconciled_mb);
  p.fence_waits = MedianOf(runs, &Point::fence_waits);
  p.ondemand_reconciles = MedianOf(runs, &Point::ondemand_reconciles);
  return p;
}

JsonObject Row(const Point& p) {
  JsonObject row;
  row.Str("sweep", p.cfg.sweep)
      .Str("engine", p.cfg.engine)
      .Str("mode", p.cfg.online ? "online" : "offline")
      .Int("heap_mb", p.cfg.heap_mb)
      .Int("dirty_txs", p.cfg.dirty_txs)
      .Int("workers", p.cfg.workers)
      .Bool("reconcile", p.cfg.reconcile)
      .Num("restart_to_first_op_ms", p.restart_to_first_op_ms, 3)
      .Num("restart_to_full_ms", p.restart_to_full_ms, 3)
      .Num("replay_ms", p.replay_ms, 3)
      .Int("loaded_objects", p.loaded_objects)
      .Int("dirty_chunks", p.dirty_chunks)
      .Num("reconciled_mb", p.reconciled_mb, 1)
      .Int("fence_waits", p.fence_waits)
      .Int("ondemand_reconciles", p.ondemand_reconciles);
  return row;
}

}  // namespace

int main() {
  const uint32_t backup_flush_ns =
      static_cast<uint32_t>(EnvOr("KAMINO_BENCH_BACKUP_FLUSH_NS", 200));
  const uint32_t backup_drain_ns =
      static_cast<uint32_t>(EnvOr("KAMINO_BENCH_BACKUP_DRAIN_NS", 200'000));

  kamino::bench::BenchReport report;
  report.bench = "recovery";
  report.config.Int("object_size", kObjectSize)
      .Num("fill", kFill, 2)
      .Int("backup_flush_ns", backup_flush_ns)
      .Int("backup_drain_ns", backup_drain_ns);
  // A sweep point fails if its restart-to-full time rises by more than
  // --threshold. Gates: parallel replay speeds up >= 2x from 1 to 4 workers;
  // online restart-to-first-op stays roughly flat across heap sizes (bounded
  // by the dirty set, not the heap); offline restart-to-first-op visibly
  // grows with the heap (it pays the whole reconcile sweep up front — that
  // contrast is the point).
  report.compare = {{"sweep", "engine", "mode", "heap_mb", "dirty_txs", "workers"},
                    "restart_to_full_ms", "lower"};
  report.gates = {{"replay_speedup_1_to_4", ">=", 2.0},
                  {"online_first_op_spread", "<=", 3.0},
                  {"offline_first_op_spread", ">=", 1.5}};

  std::vector<Config> configs;
  // Sweep 1: heap size x mode, both engines (reconcile only has meaning for
  // the full mirror).
  for (const char* engine : {"kamino-simple", "kamino-dynamic"}) {
    const bool simple = std::strcmp(engine, "kamino-simple") == 0;
    for (uint64_t heap_mb : {32ull, 64ull, 128ull}) {
      for (bool online : {false, true}) {
        Config c;
        c.engine = engine;
        c.sweep = "heap";
        c.heap_mb = heap_mb;
        c.online = online;
        c.reconcile = simple;
        configs.push_back(c);
      }
    }
  }
  // Sweep 2: replay workers over a large dirty set, offline, no reconcile —
  // isolates parallel log replay.
  for (int workers : {1, 2, 4}) {
    Config c;
    c.sweep = "workers";
    c.dirty_txs = 256;
    c.workers = workers;
    configs.push_back(c);
  }
  // Sweep 3: dirty-set size, online + reconcile.
  for (uint64_t dirty : {16ull, 64ull, 256ull}) {
    Config c;
    c.sweep = "dirty";
    c.dirty_txs = dirty;
    c.online = true;
    c.reconcile = true;
    configs.push_back(c);
  }

  std::vector<Point> points;
  for (const Config& cfg : configs) {
    std::fprintf(stderr, "%s sweep ...\n", cfg.sweep);
    points.push_back(MedianRun(cfg, backup_flush_ns, backup_drain_ns));
    report.rows.push_back(Row(points.back()));
    std::fprintf(stderr, "  %s\n", report.rows.back().str().c_str());
  }

  // Acceptance summary.
  double replay_1 = 0, replay_4 = 0;
  double online_first_min = 0, online_first_max = 0;
  double offline_first_min = 0, offline_first_max = 0;
  for (const Point& p : points) {
    if (std::strcmp(p.cfg.sweep, "workers") == 0) {
      if (p.cfg.workers == 1) {
        replay_1 = p.replay_ms;
      }
      if (p.cfg.workers == 4) {
        replay_4 = p.replay_ms;
      }
    }
    if (std::strcmp(p.cfg.sweep, "heap") == 0 &&
        std::strcmp(p.cfg.engine, "kamino-simple") == 0) {
      double& mn = p.cfg.online ? online_first_min : offline_first_min;
      double& mx = p.cfg.online ? online_first_max : offline_first_max;
      if (mn == 0 || p.restart_to_first_op_ms < mn) {
        mn = p.restart_to_first_op_ms;
      }
      if (p.restart_to_first_op_ms > mx) {
        mx = p.restart_to_first_op_ms;
      }
    }
  }
  const double replay_speedup = replay_4 > 0 ? replay_1 / replay_4 : 0;
  const double online_spread = online_first_min > 0 ? online_first_max / online_first_min : 0;
  const double offline_spread =
      offline_first_min > 0 ? offline_first_max / offline_first_min : 0;

  report.summary.Num("replay_speedup_1_to_4", replay_speedup, 2)
      .Num("online_first_op_spread", online_spread, 2)
      .Num("offline_first_op_spread", offline_spread, 2);
  return report.Write();
}
