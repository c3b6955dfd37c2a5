#include "tests/crash_points/crash_point_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "src/pds/bplus_tree.h"
#include "src/txn/kamino_engine.h"
#include "tests/test_util.h"

namespace kamino::testing {
namespace {

// The marker lives far above every workload key so sweeps never collide.
constexpr uint64_t kProgressKey = 1'000'000;

using Model = std::map<uint64_t, std::string>;

struct WorkloadOp {
  bool is_delete = false;
  uint64_t key = 0;
  std::string value;
};

// The fixed, deterministic workload: upserts over a 10-key space with a
// delete every fourth op (when the victim exists). Values are padded past a
// cache line so the write set spans several flush events.
std::vector<WorkloadOp> BuildWorkload(uint64_t num_ops) {
  std::vector<WorkloadOp> ops;
  ops.reserve(num_ops);
  Model scratch;
  for (uint64_t i = 0; i < num_ops; ++i) {
    WorkloadOp op;
    op.key = 1 + (i * 7) % 10;
    if (i % 4 == 3 && scratch.count(op.key) != 0) {
      op.is_delete = true;
      scratch.erase(op.key);
    } else {
      op.value = "v" + std::to_string(i) +
                 std::string(72, static_cast<char>('a' + static_cast<char>(i % 26)));
      scratch[op.key] = op.value;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// models[j] is the expected tree content after the first j ops committed
// (progress marker included).
std::vector<Model> BuildModels(const std::vector<WorkloadOp>& ops) {
  std::vector<Model> models;
  models.reserve(ops.size() + 1);
  models.emplace_back();
  Model cur;
  for (uint64_t i = 0; i < ops.size(); ++i) {
    if (ops[i].is_delete) {
      cur.erase(ops[i].key);
    } else {
      cur[ops[i].key] = ops[i].value;
    }
    cur[kProgressKey] = std::to_string(i + 1);
    models.push_back(cur);
  }
  return models;
}

struct LiveSystem {
  test::CrashableSystem sys;
  std::unique_ptr<pds::BPlusTree> tree;
  uint64_t anchor = 0;
};

Result<LiveSystem> StartSystem(const CrashPointOptions& options) {
  LiveSystem live;
  live.sys = test::CrashableSystem::Create(options.engine, options.pool_size,
                                           /*alpha=*/0.25, options.applier_threads,
                                           options.log);
  Result<std::unique_ptr<pds::BPlusTree>> tree = pds::BPlusTree::Create(live.sys.mgr.get());
  if (!tree.ok()) {
    return tree.status();
  }
  live.tree = std::move(*tree);
  live.anchor = live.tree->anchor();
  live.sys.mgr->WaitIdle();
  return live;
}

void InstallObserver(LiveSystem& live, CrashScheduler* scheduler) {
  live.sys.main_pool->SetPersistenceObserver(scheduler);
  if (live.sys.backup_pool != nullptr) {
    live.sys.backup_pool->SetPersistenceObserver(scheduler);
  }
}

void UninstallObserver(LiveSystem& live) {
  live.sys.main_pool->SetPersistenceObserver(nullptr);
  if (live.sys.backup_pool != nullptr) {
    live.sys.backup_pool->SetPersistenceObserver(nullptr);
  }
}

// Executes ops in order, one transaction each (op + progress marker),
// waiting for the applier after every op so the event stream is serial.
// Stops at the first op boundary after the scheduler's crash point fires.
// Returns the per-op event-count boundaries: boundaries[i] = events observed
// once op i-1 is fully durable (boundaries[0] = 0).
Result<std::vector<uint64_t>> RunOps(LiveSystem& live, const std::vector<WorkloadOp>& ops,
                                     CrashScheduler* scheduler) {
  std::vector<uint64_t> boundaries;
  boundaries.push_back(0);
  for (uint64_t i = 0; i < ops.size(); ++i) {
    const WorkloadOp& op = ops[i];
    auto guard = live.tree->LockExclusive();
    Status st = live.sys.mgr->Run([&](txn::Tx& tx) -> Status {
      if (op.is_delete) {
        KAMINO_RETURN_IF_ERROR(live.tree->DeleteInTx(tx, op.key));
      } else {
        KAMINO_RETURN_IF_ERROR(live.tree->UpsertInTx(tx, op.key, op.value));
      }
      return live.tree->UpsertInTx(tx, kProgressKey, std::to_string(i + 1));
    });
    if (!st.ok()) {
      return st;
    }
    live.sys.mgr->WaitIdle();
    boundaries.push_back(scheduler->event_count());
    if (scheduler->crashed()) {
      break;  // The machine is dead; stop at the op boundary.
    }
  }
  return boundaries;
}

// "Power-cycles" the machine: volatile state dies, both pools lose unflushed
// lines, then heap + manager reattach through the recovery path. The
// scheduler is disarmed first so recovery's own persistence takes effect.
Status CrashAndRecover(LiveSystem& live, CrashScheduler* scheduler) {
  live.tree.reset();
  live.sys.mgr.reset();  // Appliers drain; their persists are still vetoed.
  live.sys.heap.reset();
  scheduler->Disarm();
  UninstallObserver(live);
  KAMINO_RETURN_IF_ERROR(live.sys.main_pool->Crash(nvm::CrashMode::kDropUnflushed));
  if (live.sys.backup_pool != nullptr) {
    KAMINO_RETURN_IF_ERROR(live.sys.backup_pool->Crash(nvm::CrashMode::kDropUnflushed));
  }
  Result<std::unique_ptr<heap::Heap>> h = heap::Heap::Attach(live.sys.main_pool.get());
  if (!h.ok()) {
    return h.status();
  }
  live.sys.heap = std::move(*h);
  Result<std::unique_ptr<txn::TxManager>> m =
      txn::TxManager::Open(live.sys.heap.get(), live.sys.options);
  if (!m.ok()) {
    return m.status();
  }
  live.sys.mgr = std::move(*m);
  return Status::Ok();
}

std::string ReplayHint(const CrashPointOptions& options, uint64_t k) {
  std::ostringstream os;
  os << " [replay: engine=" << EngineName(options.engine) << " num_ops=" << options.num_ops
     << " pool_mb=" << (options.pool_size >> 20) << " crash_ordinal=" << k;
  if (!options.suppress_site.empty()) {
    os << " suppress_site=" << options.suppress_site
       << " suppress_kind=" << nvm::PersistEventKindName(options.suppress_kind);
  }
  os << "]";
  return os.str();
}

// Runs one injection at crash point k and appends any failure to `report`.
void RunInjection(const CrashPointOptions& options, uint64_t k,
                  const std::vector<WorkloadOp>& ops, const std::vector<Model>& models,
                  const std::vector<CrashScheduler::EventRecord>& count_trace,
                  const std::vector<uint64_t>& count_boundaries, CrashPointReport* report) {
  const std::string fatal_site =
      k >= 1 && k <= count_trace.size() ? count_trace[k - 1].site : "unknown";
  auto fail = [&](const std::string& what) {
    CrashPointFailure f;
    f.crash_ordinal = k;
    f.site = fatal_site;
    f.message = what + ReplayHint(options, k);
    report->failures.push_back(std::move(f));
  };

  Result<LiveSystem> started = StartSystem(options);
  if (!started.ok()) {
    fail("system setup failed: " + started.status().ToString());
    return;
  }
  LiveSystem live = std::move(*started);
  CrashScheduler scheduler;
  InstallObserver(live, &scheduler);
  if (options.per_site) {
    const CrashScheduler::EventRecord& target = count_trace[k - 1];
    scheduler.ArmInjectionAtSite(target.kind, target.site, target.occurrence);
  } else {
    scheduler.ArmInjection(k);
  }
  if (!options.suppress_site.empty()) {
    scheduler.SuppressSite(options.suppress_site, options.suppress_kind);
  }
  Result<std::vector<uint64_t>> run = RunOps(live, ops, &scheduler);
  if (!run.ok()) {
    scheduler.Disarm();
    UninstallObserver(live);
    fail("workload op failed before the crash point: " + run.status().ToString());
    return;
  }

  const std::vector<CrashScheduler::EventRecord> inj_trace = scheduler.trace();
  const bool fired = scheduler.crashed();
  if (fired) {
    ++report->points_fired;
  }
  Status rec = CrashAndRecover(live, &scheduler);
  if (!rec.ok()) {
    fail("recovery failed: " + rec.ToString());
    return;
  }

  if (!options.per_site) {
    // Determinism: the pre-crash prefix must replay the count pass exactly.
    // (Per-site sweeps run with applier_threads > 1, where the global stream
    // legitimately interleaves differently run to run.)
    const size_t prefix =
        std::min<size_t>(k - 1, std::min(inj_trace.size(), count_trace.size()));
    for (size_t i = 0; i < prefix; ++i) {
      if (inj_trace[i].kind != count_trace[i].kind || inj_trace[i].site != count_trace[i].site) {
        std::ostringstream os;
        os << "nondeterministic event stream: event " << (i + 1) << " was "
           << nvm::PersistEventKindName(count_trace[i].kind) << "@" << count_trace[i].site
           << " in the count pass but " << nvm::PersistEventKindName(inj_trace[i].kind) << "@"
           << inj_trace[i].site << " in the injection run";
        fail(os.str());
        return;
      }
    }
  }

  if (!options.check_data) {
    return;  // Weak tier: recovery + determinism only.
  }

  Result<std::unique_ptr<pds::BPlusTree>> attached =
      pds::BPlusTree::Attach(live.sys.mgr.get(), live.anchor);
  if (!attached.ok()) {
    fail("tree attach failed after recovery: " + attached.status().ToString());
    return;
  }
  std::unique_ptr<pds::BPlusTree> tree = std::move(*attached);
  Status valid = tree->Validate();
  if (!valid.ok()) {
    fail("tree invariants violated after recovery: " + valid.ToString());
    return;
  }

  // The progress marker names the committed prefix j.
  uint64_t j = 0;
  Result<std::string> marker = tree->Get(kProgressKey);
  if (marker.ok()) {
    for (char c : *marker) {
      if (c < '0' || c > '9') {
        fail("progress marker is not a number: \"" + *marker + "\"");
        return;
      }
      j = j * 10 + static_cast<uint64_t>(c - '0');
    }
  } else if (marker.status().code() != StatusCode::kNotFound) {
    fail("progress marker read failed: " + marker.status().ToString());
    return;
  }
  if (j > ops.size()) {
    fail("progress marker " + std::to_string(j) + " exceeds workload size");
    return;
  }

  // Durability: every op whose final persistence event precedes k survived.
  // Defined over the global ordinal stream, so only checkable when the
  // injection run replays the count pass (not in per-site mode).
  if (!options.per_site) {
    uint64_t ops_durable = 0;
    while (ops_durable + 1 < count_boundaries.size() &&
           count_boundaries[ops_durable + 1] <= k - 1) {
      ++ops_durable;
    }
    if (j < ops_durable) {
      std::ostringstream os;
      os << "durability lost: op " << ops_durable << " finished persisting before the crash"
         << " but recovery reports only " << j << " ops committed";
      fail(os.str());
      return;
    }
  }

  // Atomicity: recovered contents equal the model after op j exactly.
  const Model& expect = models[j];
  const uint64_t count = tree->CountSlow();
  if (count != expect.size()) {
    std::ostringstream os;
    os << "committed prefix mismatch: recovered tree has " << count << " keys but model after op "
       << j << " has " << expect.size();
    fail(os.str());
    return;
  }
  for (const auto& [key, value] : expect) {
    Result<std::string> got = tree->Get(key);
    if (!got.ok() || *got != value) {
      std::ostringstream os;
      os << "committed data mismatch at key " << key << " after op " << j << ": expected \""
         << value.substr(0, 16) << "...\" got "
         << (got.ok() ? "\"" + got->substr(0, 16) + "...\"" : got.status().ToString());
      fail(os.str());
      return;
    }
  }
}

// --- Crash-during-recovery enumeration ---------------------------------------

// The staged recovery work that is not plain tree ops lives in standalone
// heap objects, one per transaction: Kamino holds write locks until the
// backup applier syncs, so with the applier paused any two staged
// transactions MUST have disjoint write sets (they could not both touch the
// tree's shared nodes or the progress marker). That is exactly the
// disjoint-write-set invariant parallel replay relies on (DESIGN.md §6).
constexpr uint64_t kStagedObjectSize = 128;
constexpr char kCommittedByte = 'A';   // Objects' initial committed pattern.
constexpr char kUnappliedByte = 'B';   // Committed-unapplied overwrite.

struct StagedRecovery {
  test::CrashableSystem sys;  // mgr/heap dead, pools crashed, image staged.
  uint64_t anchor = 0;
  Model expected;  // The one tree state every recovery must converge to.
  uint64_t leaked_offset = 0;  // Object a leaked in-flight tx scribbled on.
  // Objects overwritten by committed-but-unapplied transactions; recovery
  // must roll them forward to kUnappliedByte.
  std::vector<uint64_t> unapplied_offsets;
};

// Builds the staged crash image: applied ops, committed-but-unapplied ops
// (Kamino engines, behind PauseApplier), one leaked mid-write transaction,
// then a machine crash. Deterministic: same image every call.
Result<StagedRecovery> StageRecoveryWork(const RecoveryCrashOptions& options,
                                         const std::vector<WorkloadOp>& ops) {
  CrashPointOptions base;
  base.engine = options.engine;
  base.pool_size = options.pool_size;
  base.applier_threads = options.applier_threads;
  Result<LiveSystem> started = StartSystem(base);
  if (!started.ok()) {
    return started.status();
  }
  LiveSystem live = std::move(*started);

  auto run_op = [&](const WorkloadOp& op, uint64_t index) -> Status {
    auto guard = live.tree->LockExclusive();
    return live.sys.mgr->Run([&](txn::Tx& tx) -> Status {
      if (op.is_delete) {
        KAMINO_RETURN_IF_ERROR(live.tree->DeleteInTx(tx, op.key));
      } else {
        KAMINO_RETURN_IF_ERROR(live.tree->UpsertInTx(tx, op.key, op.value));
      }
      return live.tree->UpsertInTx(tx, kProgressKey, std::to_string(index + 1));
    });
  };

  for (uint64_t i = 0; i < options.num_ops && i < ops.size(); ++i) {
    KAMINO_RETURN_IF_ERROR(run_op(ops[i], i));
  }

  // Commit the standalone objects with a known pattern, fully applied.
  std::vector<uint64_t> objects;  // [0] = leaked target, rest = unapplied.
  const uint64_t num_objects = 1 + options.unapplied_ops;
  KAMINO_RETURN_IF_ERROR(live.sys.mgr->Run([&](txn::Tx& tx) -> Status {
    for (uint64_t i = 0; i < num_objects; ++i) {
      Result<uint64_t> off = tx.Alloc(kStagedObjectSize);
      if (!off.ok()) {
        return off.status();
      }
      Result<void*> p = tx.OpenWrite(*off, kStagedObjectSize);
      if (!p.ok()) {
        return p.status();
      }
      std::memset(*p, kCommittedByte, kStagedObjectSize);
      objects.push_back(*off);
    }
    return Status::Ok();
  }));
  live.sys.mgr->WaitIdle();

  // Scribble over object 0 in a transaction that dies mid-write — recovery
  // must roll it back to the committed pattern.
  {
    Result<txn::Tx> tx = live.sys.mgr->Begin();
    if (!tx.ok()) {
      return tx.status();
    }
    Result<void*> p = tx->OpenWrite(objects[0], kStagedObjectSize);
    if (!p.ok()) {
      return p.status();
    }
    std::memset(*p, 'x', kStagedObjectSize);
    if (*p == live.sys.main_pool->At(objects[0])) {
      // In-place engines: make sure the torn write actually reaches NVM, so
      // recovery has real damage to undo (a shadow write needs no flush —
      // main was never touched).
      live.sys.main_pool->Flush(*p, kStagedObjectSize);
    }
    tx->LeakForCrashTest();
  }

  // Freeze the applier (Kamino engines only — inline engines resolve
  // everything at commit) and commit the overwrite transactions: under a
  // paused applier they stay committed-but-unapplied, and recovery must roll
  // them forward. One object per transaction keeps the staged write sets
  // pairwise disjoint — which they must be, since each holds its write locks
  // until the (paused) applier syncs it.
  if (options.engine == txn::EngineType::kKaminoSimple ||
      options.engine == txn::EngineType::kKaminoDynamic) {
    static_cast<txn::KaminoEngine*>(live.sys.mgr->engine())->PauseApplier(true);
  }
  for (uint64_t i = 1; i < num_objects; ++i) {
    KAMINO_RETURN_IF_ERROR(live.sys.mgr->Run([&](txn::Tx& tx) -> Status {
      Result<void*> p = tx.OpenWrite(objects[i], kStagedObjectSize);
      if (!p.ok()) {
        return p.status();
      }
      std::memset(*p, kUnappliedByte, kStagedObjectSize);
      return Status::Ok();
    }));
  }

  StagedRecovery out;
  out.anchor = live.anchor;
  out.expected = BuildModels(ops)[std::min<uint64_t>(options.num_ops, ops.size())];
  out.leaked_offset = objects[0];
  out.unapplied_offsets.assign(objects.begin() + 1, objects.end());

  live.tree.reset();
  live.sys.mgr.reset();  // Paused appliers exit without draining their queues.
  live.sys.heap.reset();
  KAMINO_RETURN_IF_ERROR(live.sys.main_pool->Crash(nvm::CrashMode::kDropUnflushed));
  if (live.sys.backup_pool != nullptr) {
    KAMINO_RETURN_IF_ERROR(live.sys.backup_pool->Crash(nvm::CrashMode::kDropUnflushed));
  }
  out.sys = std::move(live.sys);
  return out;
}

// One full recovery of the staged image under the configured pipeline shape:
// attach, open (replay + reconcile), then drain both the reconcile workers
// and the applier pool so every recovery-owned persist lands inside the
// observed window.
Status RecoverStaged(StagedRecovery& staged, const RecoveryCrashOptions& options) {
  Result<std::unique_ptr<heap::Heap>> h = heap::Heap::Attach(staged.sys.main_pool.get());
  if (!h.ok()) {
    return h.status();
  }
  staged.sys.heap = std::move(*h);
  staged.sys.options.recovery = options.recovery;
  Result<std::unique_ptr<txn::TxManager>> m =
      txn::TxManager::Open(staged.sys.heap.get(), staged.sys.options);
  if (!m.ok()) {
    return m.status();
  }
  staged.sys.mgr = std::move(*m);
  staged.sys.mgr->WaitForRecovery();
  staged.sys.mgr->WaitIdle();
  return Status::Ok();
}

void InstallObserverOn(test::CrashableSystem& sys, CrashScheduler* scheduler) {
  sys.main_pool->SetPersistenceObserver(scheduler);
  if (sys.backup_pool != nullptr) {
    sys.backup_pool->SetPersistenceObserver(scheduler);
  }
}

// Asserts the recovered system equals the staged expectation exactly.
Status VerifyConverged(StagedRecovery& staged) {
  Result<std::unique_ptr<pds::BPlusTree>> attached =
      pds::BPlusTree::Attach(staged.sys.mgr.get(), staged.anchor);
  if (!attached.ok()) {
    return attached.status();
  }
  std::unique_ptr<pds::BPlusTree> tree = std::move(*attached);
  KAMINO_RETURN_IF_ERROR(tree->Validate());
  const uint64_t count = tree->CountSlow();
  if (count != staged.expected.size()) {
    return Status::Internal("recovered tree has " + std::to_string(count) +
                            " keys; expected " + std::to_string(staged.expected.size()));
  }
  for (const auto& [key, value] : staged.expected) {
    Result<std::string> got = tree->Get(key);
    if (!got.ok()) {
      return Status::Internal("key " + std::to_string(key) +
                              " missing after recovery: " + got.status().ToString());
    }
    if (*got != value) {
      return Status::Internal("key " + std::to_string(key) + " has wrong value after recovery");
    }
  }
  // The leaked in-flight write must be gone: its object reads the committed
  // pattern again (in-place scribbles rolled back from pre-images, shadow
  // scribbles discarded with their slot).
  const char* bytes = static_cast<const char*>(staged.sys.main_pool->At(staged.leaked_offset));
  for (uint64_t i = 0; i < kStagedObjectSize; ++i) {
    if (bytes[i] != kCommittedByte) {
      return Status::Internal("leaked in-flight write survived recovery at byte " +
                              std::to_string(i));
    }
  }
  // Every committed-but-unapplied transaction must have been rolled forward.
  for (uint64_t off : staged.unapplied_offsets) {
    const char* obj = static_cast<const char*>(staged.sys.main_pool->At(off));
    for (uint64_t i = 0; i < kStagedObjectSize; ++i) {
      if (obj[i] != kUnappliedByte) {
        return Status::Internal("committed-but-unapplied write lost at offset " +
                                std::to_string(off) + " byte " + std::to_string(i));
      }
    }
  }
  return Status::Ok();
}

std::string RecoveryReplayHint(const RecoveryCrashOptions& options, uint64_t k) {
  std::ostringstream os;
  os << " [replay: engine=" << EngineName(options.engine) << " num_ops=" << options.num_ops
     << " unapplied=" << options.unapplied_ops << " workers=" << options.recovery.workers
     << " online=" << (options.recovery.online ? 1 : 0)
     << " reconcile=" << (options.recovery.reconcile_backup ? 1 : 0)
     << " crash_ordinal=" << k << "]";
  return os.str();
}

}  // namespace

const char* EngineName(txn::EngineType engine) {
  switch (engine) {
    case txn::EngineType::kKaminoSimple:
      return "kamino-simple";
    case txn::EngineType::kKaminoDynamic:
      return "kamino-dynamic";
    case txn::EngineType::kUndoLog:
      return "undo";
    case txn::EngineType::kCow:
      return "cow";
    case txn::EngineType::kRedoLog:
      return "redo";
    case txn::EngineType::kNoLogging:
      return "nolog";
    case txn::EngineType::kChainReplica:
      return "chain-replica";
  }
  return "unknown";
}

std::string CrashPointReport::Summary() const {
  std::ostringstream os;
  os << "crash-point sweep: " << points_tested << "/" << total_events << " points tested ("
     << points_fired << " fired), " << failures.size() << " failure(s)";
  for (const CrashPointFailure& f : failures) {
    os << "\n  ordinal " << f.crash_ordinal << " (" << f.site << "): " << f.message;
  }
  return os.str();
}

CrashPointReport EnumerateCrashPoints(const CrashPointOptions& options) {
  CrashPointReport report;
  const std::vector<WorkloadOp> ops = BuildWorkload(options.num_ops);
  const std::vector<Model> models = BuildModels(ops);

  // --- Count pass: discover the event space and the per-op boundaries. ------
  std::vector<CrashScheduler::EventRecord> count_trace;
  std::vector<uint64_t> count_boundaries;
  {
    Result<LiveSystem> started = StartSystem(options);
    if (!started.ok()) {
      CrashPointFailure f;
      f.message = "count pass setup failed: " + started.status().ToString();
      report.failures.push_back(std::move(f));
      return report;
    }
    LiveSystem live = std::move(*started);
    CrashScheduler scheduler;
    InstallObserver(live, &scheduler);
    scheduler.ArmCounting();
    if (!options.suppress_site.empty()) {
      scheduler.SuppressSite(options.suppress_site, options.suppress_kind);
    }
    Result<std::vector<uint64_t>> boundaries = RunOps(live, ops, &scheduler);
    scheduler.Disarm();
    UninstallObserver(live);
    if (!boundaries.ok()) {
      CrashPointFailure f;
      f.message = "count pass workload failed: " + boundaries.status().ToString();
      report.failures.push_back(std::move(f));
      return report;
    }
    count_boundaries = std::move(*boundaries);
    count_trace = scheduler.trace();
    report.total_events = scheduler.event_count();
  }
  // The sweep's size goes into the test's XML report (--gtest_output=xml),
  // so two builds can be compared for event-space parity without a rerun.
  ::testing::Test::RecordProperty("total_events", std::to_string(report.total_events));
  if (report.total_events == 0) {
    CrashPointFailure f;
    f.message = "count pass observed no persistence events; hook not wired?";
    report.failures.push_back(std::move(f));
    return report;
  }

  // --- Injection sweep. -----------------------------------------------------
  for (uint64_t k = options.start; k <= report.total_events; k += options.stride) {
    if (options.max_points != 0 && report.points_tested >= options.max_points) {
      break;
    }
    ++report.points_tested;
    RunInjection(options, k, ops, models, count_trace, count_boundaries, &report);
  }
  return report;
}

CrashPointReport EnumerateRecoveryCrashPoints(const RecoveryCrashOptions& options) {
  CrashPointReport report;
  const std::vector<WorkloadOp> ops = BuildWorkload(options.num_ops);

  auto top_fail = [&](const std::string& what) {
    CrashPointFailure f;
    f.message = what;
    report.failures.push_back(std::move(f));
  };

  // --- Count pass: discover recovery's own persistence-event space. ---------
  std::vector<CrashScheduler::EventRecord> count_trace;
  {
    Result<StagedRecovery> staged = StageRecoveryWork(options, ops);
    if (!staged.ok()) {
      top_fail("recovery staging failed: " + staged.status().ToString());
      return report;
    }
    CrashScheduler scheduler;
    InstallObserverOn(staged->sys, &scheduler);
    scheduler.ArmCounting();
    Status rec = RecoverStaged(*staged, options);
    scheduler.Disarm();
    InstallObserverOn(staged->sys, nullptr);
    if (!rec.ok()) {
      top_fail("count-pass recovery failed: " + rec.ToString());
      return report;
    }
    count_trace = scheduler.trace();
    report.total_events = scheduler.event_count();
    // The staged image must itself recover to the expected model before any
    // crash is injected — otherwise every injection failure is noise.
    Status converged = VerifyConverged(*staged);
    if (!converged.ok()) {
      top_fail("count-pass recovery did not converge: " + converged.ToString());
      return report;
    }
  }
  ::testing::Test::RecordProperty("total_events", std::to_string(report.total_events));
  if (report.total_events == 0) {
    top_fail("recovery produced no persistence events; hook not wired?");
    return report;
  }

  // --- Injection sweep: kill recovery at event k, then recover cleanly. -----
  for (uint64_t k = options.start; k <= report.total_events; k += options.stride) {
    if (options.max_points != 0 && report.points_tested >= options.max_points) {
      break;
    }
    ++report.points_tested;
    const std::string fatal_site =
        k <= count_trace.size() ? count_trace[k - 1].site : "unknown";
    auto fail = [&](const std::string& what) {
      CrashPointFailure f;
      f.crash_ordinal = k;
      f.site = fatal_site;
      f.message = what + RecoveryReplayHint(options, k);
      report.failures.push_back(std::move(f));
    };

    Result<StagedRecovery> staged = StageRecoveryWork(options, ops);
    if (!staged.ok()) {
      fail("recovery staging failed: " + staged.status().ToString());
      continue;
    }
    CrashScheduler scheduler;
    InstallObserverOn(staged->sys, &scheduler);
    scheduler.ArmInjection(k);

    // Attempt #1: recovery dies at event k. An error status here is a
    // legitimate outcome — the machine lost power mid-recovery — so it is
    // recorded, not failed. Nondeterministic shapes (workers > 1, online) may
    // place ordinal k at a different logical moment than the count pass did;
    // that is still a valid power cut of *this* run.
    Status first = RecoverStaged(*staged, options);
    (void)first;
    if (scheduler.crashed()) {
      ++report.points_fired;
    }
    // The machine is dead: volatile state goes away under the armed observer
    // (shutdown-time persists are vetoed too), then both pools drop
    // unflushed lines.
    staged->sys.mgr.reset();
    staged->sys.heap.reset();
    scheduler.Disarm();
    InstallObserverOn(staged->sys, nullptr);
    Status crashed = staged->sys.main_pool->Crash(nvm::CrashMode::kDropUnflushed);
    if (crashed.ok() && staged->sys.backup_pool != nullptr) {
      crashed = staged->sys.backup_pool->Crash(nvm::CrashMode::kDropUnflushed);
    }
    if (!crashed.ok()) {
      fail("pool crash failed: " + crashed.ToString());
      continue;
    }

    // Attempt #2: a clean second recovery must succeed and converge to the
    // one expected state — crash-idempotence of every recovery persist site.
    Status second = RecoverStaged(*staged, options);
    if (!second.ok()) {
      fail("second recovery failed after crash at event " + std::to_string(k) + ": " +
           second.ToString());
      continue;
    }
    Status converged = VerifyConverged(*staged);
    if (!converged.ok()) {
      fail("recovery not idempotent: " + converged.ToString());
      continue;
    }
  }
  return report;
}

}  // namespace kamino::testing
