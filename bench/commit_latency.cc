// Commit critical-path benchmark.
//
// Measures what a client thread actually waits on between "update issued"
// and "commit durable": the intent-log fences. After the dataset loads at
// full speed, the main pool injects a per-drain latency
// (KAMINO_BENCH_DRAIN_NS) as an overlappable sleep — the same modelling
// choice as applier_scaling's backup drains: the stall is the device's, not
// the core's, so concurrent drains overlap and other threads keep running
// during one. The sweep runs the two commit-path fence schedules — the
// striped/elided/group-committed one ("new") and the epoch pipeline
// ("epoch") — across all engines and a client-thread sweep on YCSB-A.
//
// Group commit note: with sleeping drains the leader's own drain IS the
// coalescing window — committers that arrive while the current leader's
// drain is in flight queue behind it and the next leader covers them all
// with one drain (pipelined group commit).
//
// Epoch rows (LogOptions::epoch_commit) model the persist-behind client the
// pipeline is built for: updates go through KvStore::UpdateAsync and their
// latency is recorded at DRAM-commit return, while acknowledgements ride
// behind on the epoch durability tickets, bounded to KAMINO_BENCH_ACK_WINDOW
// (default 8) outstanding per client — a full window stalls the client on
// the oldest ticket's drain, and every issued update is settled durable
// before the run's clock stops. The ack-side stall is reported per row as
// ack_stall_p50/p99_us. Crash safety of exactly this window (acked commits
// survive, unacked ones never half-apply) is what
// tests/crash_points/crash_points_epoch_test.cc enumerates.
//
// Emits BENCH_commit_path.json. The summary block records the acceptance
// numbers: Kamino drains-per-update-txn at 8 clients, new vs epoch, the
// update p50s, the no-logging reference p50, and the epoch-vs-no-logging
// p50 ratio. tools/check_bench_regression.py gates them with absolute
// bounds. Read transactions never take a log slot (zero drains), so per-txn
// accounting divides by the number of UPDATE transactions, the same way for
// every fence schedule.
//
// Not a google-benchmark binary: the sweep is the product, and the JSON
// schema feeds tools/check_bench_regression.py.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/heap/heap.h"
#include "src/kv/kv_store.h"
#include "src/stats/histogram.h"
#include "src/txn/tx_manager.h"
#include "src/workload/ycsb.h"

namespace {

using kamino::Result;
using kamino::Status;
using kamino::StatusCode;

uint64_t EnvOr(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

// The JSON "fences" name of a row's commit-path fence schedule.
const char* FenceName(bool epoch) { return epoch ? "epoch" : "new"; }

struct EngineRow {
  const char* label;
  kamino::txn::EngineType engine;
  bool epoch;  // LogOptions::epoch_commit.
};

struct RunResult {
  std::string engine;
  bool epoch = false;
  int clients = 0;
  double ops_per_sec = 0;
  uint64_t update_txns = 0;
  double update_p50_us = 0;
  double update_p99_us = 0;
  // Epoch rows only: the client-side stall per acknowledgement
  // (WaitCommitDurable on the oldest outstanding ticket once the window
  // fills) — the persist-behind cost that moved off the commit return path.
  double ack_stall_p50_us = 0;
  double ack_stall_p99_us = 0;
  double flushes_per_txn = 0;
  double drains_per_txn = 0;
  uint64_t blocked_acquires = 0;
  uint64_t group_commit_commits = 0;
  uint64_t group_commit_leader_drains = 0;
  // Main-pool drain deltas per PersistSiteScope, per update txn.
  std::map<std::string, double> site_drains_per_txn;
};

RunResult RunOnce(const EngineRow& row, int clients, uint64_t nkeys,
                  uint64_t ops_per_thread, uint64_t value_size, uint32_t drain_ns,
                  uint64_t ack_window) {
  kamino::heap::HeapOptions hopts;
  hopts.pool_size = nkeys * value_size * 3 + (96ull << 20);
  hopts.flush_latency_ns = 0;  // Isolate the fences: only drains cost time.
  auto heap = std::move(kamino::heap::Heap::Create(hopts).value());

  kamino::txn::TxManagerOptions mopts;
  mopts.engine = row.engine;
  mopts.lock.timeout_ms = 30'000;
  mopts.log.epoch_commit = row.epoch;
  // A single applier shard so the queue concentrates and the batched slot
  // release (one fence per apply batch, LogManager::ReleaseSlots) gets
  // batches bigger than one; the backup drains sleep like the main pool's,
  // so the pipeline keeps up by batching rather than by parallelism.
  mopts.applier_threads = 1;
  mopts.backup_drain_latency_ns = drain_ns;
  mopts.backup_sleep_latency = true;
  auto mgr = std::move(kamino::txn::TxManager::Create(heap.get(), mopts).value());
  auto store = std::move(kamino::kv::KvStore::Create(mgr.get()).value());

  for (uint64_t k = 0; k < nkeys; ++k) {
    Status st = store->Upsert(k, kamino::workload::YcsbValue(k, value_size));
    if (!st.ok()) {
      std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  mgr->WaitIdle();
  // Load done: from here every drain of the main pool costs `drain_ns`,
  // overlappable (see file comment).
  heap->pool()->set_latency(0, drain_ns, /*sleep=*/true);

  const kamino::nvm::PoolStats pool_before = heap->pool()->stats();
  const std::vector<kamino::nvm::PoolSiteStats> sites_before = heap->pool()->site_stats();
  const kamino::txn::EngineStats engine_before = mgr->engine()->stats();

  kamino::stats::LatencyHistogram update_hist;
  kamino::stats::LatencyHistogram ack_hist;
  std::atomic<uint64_t> update_txns{0};
  std::atomic<uint64_t> key_count{nkeys};

  const uint64_t start_ns = kamino::stats::NowNanos();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      kamino::workload::YcsbGenerator gen(kamino::workload::YcsbWorkload::kA, nkeys,
                                          &key_count, 0x1F83D9ABu + static_cast<uint64_t>(t));
      const std::string value =
          kamino::workload::YcsbValue(static_cast<uint64_t>(t), value_size);
      uint64_t updates = 0;
      // Epoch rows model the persist-behind client: updates return at
      // DRAM-commit (that is the latency recorded) and acknowledgements ride
      // behind, bounded to `ack_window` outstanding tickets per client —
      // once the window fills, the client stalls on the oldest ticket's
      // epoch drain before issuing the next op.
      std::deque<kamino::txn::CommitAck> pending;
      auto settle_oldest = [&] {
        const uint64_t w0 = kamino::stats::NowNanos();
        mgr->WaitCommitDurable(pending.front());
        ack_hist.Record(kamino::stats::NowNanos() - w0);
        pending.pop_front();
      };
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto req = gen.Next();
        Status st;
        if (req.op == kamino::workload::YcsbOp::kRead) {
          st = store->Read(req.key).status();
        } else if (row.epoch) {
          while (pending.size() >= ack_window) {
            settle_oldest();
          }
          kamino::txn::CommitAck ack;
          const uint64_t op_start = kamino::stats::NowNanos();
          st = store->UpdateAsync(req.key, value, &ack);
          update_hist.Record(kamino::stats::NowNanos() - op_start);
          if (st.ok() && ack.ticket != 0) {
            pending.push_back(ack);
          }
          ++updates;
        } else {
          const uint64_t op_start = kamino::stats::NowNanos();
          st = store->Update(req.key, value);
          update_hist.Record(kamino::stats::NowNanos() - op_start);
          ++updates;
        }
        if (!st.ok() && st.code() != StatusCode::kNotFound) {
          std::fprintf(stderr, "op failed: %s\n", st.ToString().c_str());
          std::abort();
        }
      }
      while (!pending.empty()) {
        settle_oldest();  // Every issued update is acknowledged durable.
      }
      update_txns.fetch_add(updates, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  // Per-txn accounting must include the applier's release fence, so wait for
  // the pipeline before sampling the counters.
  mgr->WaitIdle();
  const uint64_t elapsed_ns = kamino::stats::NowNanos() - start_ns;

  const kamino::nvm::PoolStats pool_after = heap->pool()->stats();
  const std::vector<kamino::nvm::PoolSiteStats> sites_after = heap->pool()->site_stats();
  const kamino::txn::EngineStats engine_after = mgr->engine()->stats();

  RunResult r;
  r.engine = row.label;
  r.epoch = row.epoch;
  r.clients = clients;
  const double secs = static_cast<double>(elapsed_ns) / 1e9;
  r.ops_per_sec =
      secs > 0 ? static_cast<double>(ops_per_thread) * clients / secs : 0;
  r.update_txns = update_txns.load();
  r.update_p50_us = static_cast<double>(update_hist.PercentileNs(50)) / 1000.0;
  r.update_p99_us = static_cast<double>(update_hist.PercentileNs(99)) / 1000.0;
  if (row.epoch) {
    r.ack_stall_p50_us = static_cast<double>(ack_hist.PercentileNs(50)) / 1000.0;
    r.ack_stall_p99_us = static_cast<double>(ack_hist.PercentileNs(99)) / 1000.0;
  }
  const double txns = static_cast<double>(r.update_txns);
  if (txns > 0) {
    r.flushes_per_txn =
        static_cast<double>(pool_after.flush_calls - pool_before.flush_calls) / txns;
    r.drains_per_txn =
        static_cast<double>(pool_after.drain_calls - pool_before.drain_calls) / txns;
    std::map<std::string, uint64_t> before_by_site;
    for (const kamino::nvm::PoolSiteStats& s : sites_before) {
      before_by_site[s.site] = s.drain_calls;
    }
    for (const kamino::nvm::PoolSiteStats& s : sites_after) {
      const uint64_t delta = s.drain_calls - before_by_site[s.site];
      if (delta > 0) {
        r.site_drains_per_txn[s.site] = static_cast<double>(delta) / txns;
      }
    }
  }
  r.blocked_acquires = engine_after.log_blocked_acquires - engine_before.log_blocked_acquires;
  r.group_commit_commits =
      engine_after.group_commit_commits - engine_before.group_commit_commits;
  r.group_commit_leader_drains =
      engine_after.group_commit_leader_drains - engine_before.group_commit_leader_drains;
  return r;
}

// Micro-demonstration of the write-set batch API: opening N objects one by
// one drains N times; OpenWriteBatch flushes N records and drains once.
struct BatchMicro {
  uint64_t spans = 0;
  uint64_t loop_drains = 0;
  uint64_t batch_drains = 0;
};

BatchMicro RunBatchMicro() {
  constexpr uint64_t kSpans = 8;
  constexpr uint64_t kObjSize = 256;

  kamino::heap::HeapOptions hopts;
  hopts.pool_size = 64ull << 20;
  auto heap = std::move(kamino::heap::Heap::Create(hopts).value());
  kamino::txn::TxManagerOptions mopts;
  mopts.engine = kamino::txn::EngineType::kKaminoSimple;
  auto mgr = std::move(kamino::txn::TxManager::Create(heap.get(), mopts).value());

  uint64_t offs[2][kSpans];
  Status st = mgr->Run([&](kamino::txn::Tx& tx) -> Status {
    for (auto& group : offs) {
      for (uint64_t& off : group) {
        Result<uint64_t> o = tx.Alloc(kObjSize);
        if (!o.ok()) {
          return o.status();
        }
        off = *o;
      }
    }
    return Status::Ok();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "micro alloc failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  mgr->WaitIdle();

  BatchMicro m;
  m.spans = kSpans;
  auto drains = [&] { return heap->pool()->stats().drain_calls; };

  st = mgr->Run([&](kamino::txn::Tx& tx) -> Status {
    const uint64_t d0 = drains();
    for (uint64_t off : offs[0]) {
      Result<void*> p = tx.OpenWrite(off, kObjSize);
      if (!p.ok()) {
        return p.status();
      }
      std::memset(*p, 0xA5, kObjSize);
    }
    m.loop_drains = drains() - d0;
    return Status::Ok();
  });
  if (st.ok()) {
    st = mgr->Run([&](kamino::txn::Tx& tx) -> Status {
      kamino::txn::WriteSpan spans[kSpans];
      void* ptrs[kSpans];
      for (uint64_t i = 0; i < kSpans; ++i) {
        spans[i].offset = offs[1][i];
        spans[i].size = kObjSize;
      }
      const uint64_t d0 = drains();
      Status bst = tx.OpenWriteBatch(spans, kSpans, ptrs);
      if (!bst.ok()) {
        return bst;
      }
      m.batch_drains = drains() - d0;
      for (void* p : ptrs) {
        std::memset(p, 0x5A, kObjSize);
      }
      return Status::Ok();
    });
  }
  if (!st.ok()) {
    std::fprintf(stderr, "micro txn failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  mgr->WaitIdle();
  return m;
}

void PrintRow(std::FILE* f, const RunResult& r, bool last) {
  std::fprintf(f,
               "    {\"engine\": \"%s\", \"fences\": \"%s\", \"clients\": %d, "
               "\"ops_per_sec\": %.1f, \"update_txns\": %llu, "
               "\"update_p50_us\": %.2f, \"update_p99_us\": %.2f, "
               "\"ack_stall_p50_us\": %.2f, \"ack_stall_p99_us\": %.2f, "
               "\"flushes_per_txn\": %.3f, \"drains_per_txn\": %.3f, "
               "\"blocked_acquires\": %llu, \"group_commit_commits\": %llu, "
               "\"group_commit_leader_drains\": %llu, \"site_drains_per_txn\": {",
               r.engine.c_str(), FenceName(r.epoch), r.clients, r.ops_per_sec,
               static_cast<unsigned long long>(r.update_txns), r.update_p50_us,
               r.update_p99_us, r.ack_stall_p50_us, r.ack_stall_p99_us,
               r.flushes_per_txn, r.drains_per_txn,
               static_cast<unsigned long long>(r.blocked_acquires),
               static_cast<unsigned long long>(r.group_commit_commits),
               static_cast<unsigned long long>(r.group_commit_leader_drains));
  size_t i = 0;
  for (const auto& [site, per_txn] : r.site_drains_per_txn) {
    std::fprintf(f, "%s\"%s\": %.3f", i++ > 0 ? ", " : "", site.c_str(), per_txn);
  }
  std::fprintf(f, "}}%s\n", last ? "" : ",");
}

}  // namespace

int main() {
  const uint64_t nkeys = EnvOr("KAMINO_BENCH_KEYS", 4096);
  const uint64_t ops_per_thread = EnvOr("KAMINO_BENCH_OPS", 1200);
  const uint64_t value_size = EnvOr("KAMINO_BENCH_VALUE", 1024);
  const uint32_t drain_ns = static_cast<uint32_t>(EnvOr("KAMINO_BENCH_DRAIN_NS", 40'000));
  const uint64_t ack_window = EnvOr("KAMINO_BENCH_ACK_WINDOW", 8);
  const char* out_path = std::getenv("KAMINO_BENCH_JSON");
  if (out_path == nullptr) {
    out_path = "BENCH_commit_path.json";
  }
  if (nkeys == 0 || ops_per_thread == 0 || value_size == 0) {
    std::fprintf(stderr,
                 "invalid knobs: KAMINO_BENCH_KEYS/OPS/VALUE must be positive "
                 "integers (unparsable values read as 0)\n");
    return 2;
  }

  const EngineRow rows[] = {
      {"kamino-simple", kamino::txn::EngineType::kKaminoSimple, false},
      // Epoch/persist-behind commit (DESIGN.md §8): all commit-path fences
      // ride one shared epoch drain; gated at <= 1.5 drains/txn at 8 clients
      // and p50 within 1.5x of no-logging.
      {"kamino-simple", kamino::txn::EngineType::kKaminoSimple, true},
      {"kamino-dynamic", kamino::txn::EngineType::kKaminoDynamic, false},
      {"kamino-dynamic", kamino::txn::EngineType::kKaminoDynamic, true},
      {"undo-logging", kamino::txn::EngineType::kUndoLog, false},
      {"copy-on-write", kamino::txn::EngineType::kCow, false},
      {"redo-logging", kamino::txn::EngineType::kRedoLog, false},
      {"no-logging", kamino::txn::EngineType::kNoLogging, false},
  };
  const int sweep[] = {1, 2, 4, 8};

  std::vector<RunResult> results;
  for (const EngineRow& row : rows) {
    for (int clients : sweep) {
      std::fprintf(stderr, "%s/%s clients=%d ...\n", row.label, FenceName(row.epoch),
                   clients);
      results.push_back(
          RunOnce(row, clients, nkeys, ops_per_thread, value_size, drain_ns, ack_window));
      const RunResult& r = results.back();
      std::fprintf(stderr,
                   "  %.0f ops/s  p50 %.1fus p99 %.1fus  %.2f flushes/txn "
                   "%.2f drains/txn  (%llu gc commits, %llu leader drains)\n",
                   r.ops_per_sec, r.update_p50_us, r.update_p99_us, r.flushes_per_txn,
                   r.drains_per_txn, static_cast<unsigned long long>(r.group_commit_commits),
                   static_cast<unsigned long long>(r.group_commit_leader_drains));
    }
  }

  const BatchMicro micro = RunBatchMicro();
  std::fprintf(stderr, "batch micro: %llu spans, loop %llu drains vs batch %llu\n",
               static_cast<unsigned long long>(micro.spans),
               static_cast<unsigned long long>(micro.loop_drains),
               static_cast<unsigned long long>(micro.batch_drains));

  // Acceptance numbers: Kamino-Tx-Simple at 8 clients, new vs epoch, plus
  // the no-logging reference both p50 gates are measured against.
  const RunResult* new8 = nullptr;
  const RunResult* epoch8 = nullptr;
  const RunResult* nolog8 = nullptr;
  for (const RunResult& r : results) {
    if (r.clients != 8) {
      continue;
    }
    if (r.engine == "kamino-simple") {
      (r.epoch ? epoch8 : new8) = &r;
    } else if (r.engine == "no-logging") {
      nolog8 = &r;
    }
  }
  const double epoch_p50_vs_nolog =
      (epoch8 != nullptr && nolog8 != nullptr && nolog8->update_p50_us > 0)
          ? epoch8->update_p50_us / nolog8->update_p50_us
          : 0;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"commit_path\",\n");
  std::fprintf(f, "  \"workload\": \"ycsb-a\",\n");
  std::fprintf(f, "  \"keys\": %llu,\n", static_cast<unsigned long long>(nkeys));
  std::fprintf(f, "  \"ops_per_client\": %llu,\n",
               static_cast<unsigned long long>(ops_per_thread));
  std::fprintf(f, "  \"value_size\": %llu,\n", static_cast<unsigned long long>(value_size));
  std::fprintf(f, "  \"drain_latency_ns\": %u,\n", drain_ns);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    PrintRow(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"batch_open_micro\": {\"spans\": %llu, \"loop_drains\": %llu, "
               "\"batch_drains\": %llu},\n",
               static_cast<unsigned long long>(micro.spans),
               static_cast<unsigned long long>(micro.loop_drains),
               static_cast<unsigned long long>(micro.batch_drains));
  std::fprintf(f, "  \"summary\": {\n");
  std::fprintf(f, "    \"kamino_drains_per_txn_new_8c\": %.3f,\n",
               new8 != nullptr ? new8->drains_per_txn : 0);
  std::fprintf(f, "    \"kamino_update_p50_new_8c_us\": %.2f,\n",
               new8 != nullptr ? new8->update_p50_us : 0);
  std::fprintf(f, "    \"kamino_drains_per_txn_epoch_8c\": %.3f,\n",
               epoch8 != nullptr ? epoch8->drains_per_txn : 0);
  std::fprintf(f, "    \"kamino_update_p50_epoch_8c_us\": %.2f,\n",
               epoch8 != nullptr ? epoch8->update_p50_us : 0);
  std::fprintf(f, "    \"nolog_drains_per_txn_8c\": %.3f,\n",
               nolog8 != nullptr ? nolog8->drains_per_txn : 0);
  std::fprintf(f, "    \"nolog_update_p50_8c_us\": %.2f,\n",
               nolog8 != nullptr ? nolog8->update_p50_us : 0);
  std::fprintf(f, "    \"epoch_p50_vs_nolog\": %.3f\n", epoch_p50_vs_nolog);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr,
               "wrote %s (drains/txn 8c: new %.2f -> epoch %.2f; "
               "epoch p50 %.1fus = %.2fx no-logging)\n",
               out_path, new8 != nullptr ? new8->drains_per_txn : 0,
               epoch8 != nullptr ? epoch8->drains_per_txn : 0,
               epoch8 != nullptr ? epoch8->update_p50_us : 0, epoch_p50_vs_nolog);
  return 0;
}
