// Crash-point sweep over the backup-epoch stamp ("backup/cut", DESIGN.md
// §12): a power failure at every persistence event of the stamp site — and
// at every other durability boundary of a stamped workload — must leave a
// recovered store whose snapshot reads are still transaction-consistent.
//
// The invariant swept here is the safe-floor contract of the durable stamp:
// the stamp is persisted strictly AFTER the log slots of the counted
// transactions are released, so a crash can only lose stamp increments,
// never manufacture them. Concretely, with a single key updated by
// sequential transactions v1..vN, the recovered machine must satisfy
//
//     (recovered durable stamp - setup stamp)  <=  j
//
// where v_j is the committed value recovery converged to — i.e. the store
// never claims a cut epoch ahead of the transactions it actually retained.
// And once recovery is idle, a snapshot read must equal the main-path read
// (recovery's roll-forward batches stamp every re-applied transaction).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/pds/bplus_tree.h"
#include "src/txn/kamino_engine.h"
#include "tests/crash_points/crash_scheduler.h"
#include "tests/test_util.h"

namespace kamino::testing {
namespace {

constexpr uint64_t kKey = 1;
constexpr uint64_t kOps = 8;

std::string Value(uint64_t i) {
  std::string v = "v" + std::to_string(i);
  v.resize(80, '.');
  return v;
}

// Recovers the committed-prefix index j from the value v_j found on the key.
uint64_t IndexOfValue(const std::string& v) {
  return std::stoull(v.substr(1, v.find('.') - 1));
}

struct Machine {
  test::CrashableSystem sys;
  std::unique_ptr<pds::BPlusTree> tree;
  uint64_t anchor = 0;
  uint64_t setup_epoch = 0;  // Durable stamp once setup is idle.
};

Machine Build(txn::EngineType engine) {
  Machine m;
  m.sys = test::CrashableSystem::Create(engine, 24ull << 20, /*alpha=*/0.25,
                                        /*applier_threads=*/1);
  m.tree = std::move(pds::BPlusTree::Create(m.sys.mgr.get()).value());
  m.anchor = m.tree->anchor();
  {
    auto guard = m.tree->LockExclusive();
    EXPECT_TRUE(m.sys.mgr
                    ->Run([&](txn::Tx& tx) -> Status {
                      return m.tree->UpsertInTx(tx, kKey, Value(0));
                    })
                    .ok());
  }
  m.sys.mgr->WaitIdle();
  m.setup_epoch = m.sys.mgr->engine()->stats().backup_epoch;
  return m;
}

void InstallObserver(Machine& m, CrashScheduler* scheduler) {
  m.sys.main_pool->SetPersistenceObserver(scheduler);
  if (m.sys.backup_pool != nullptr) {
    m.sys.backup_pool->SetPersistenceObserver(scheduler);
  }
}

// Sequential committed updates v1..vN on one key, each fully drained before
// the next, so apply order equals commit order and the value index IS the
// per-key transaction count. Stops at the op boundary after the crash fires.
void RunOps(Machine& m, CrashScheduler* scheduler) {
  for (uint64_t i = 1; i <= kOps; ++i) {
    auto guard = m.tree->LockExclusive();
    ASSERT_TRUE(m.sys.mgr
                    ->Run([&](txn::Tx& tx) -> Status {
                      return m.tree->UpsertInTx(tx, kKey, Value(i));
                    })
                    .ok());
    guard.unlock();
    m.sys.mgr->WaitIdle();
    if (scheduler->crashed()) {
      break;
    }
  }
}

void CrashAndRecover(Machine& m, CrashScheduler* scheduler) {
  m.tree.reset();
  m.sys.mgr.reset();
  m.sys.heap.reset();
  scheduler->Disarm();
  m.sys.main_pool->SetPersistenceObserver(nullptr);
  if (m.sys.backup_pool != nullptr) {
    m.sys.backup_pool->SetPersistenceObserver(nullptr);
    ASSERT_TRUE(m.sys.backup_pool->Crash(nvm::CrashMode::kDropUnflushed).ok());
  }
  ASSERT_TRUE(m.sys.main_pool->Crash(nvm::CrashMode::kDropUnflushed).ok());
  m.sys.heap = std::move(heap::Heap::Attach(m.sys.main_pool.get()).value());
  Result<std::unique_ptr<txn::TxManager>> mgr =
      txn::TxManager::Open(m.sys.heap.get(), m.sys.options);
  ASSERT_TRUE(mgr.ok()) << mgr.status().message();
  m.sys.mgr = std::move(*mgr);
  m.sys.mgr->WaitForRecovery();
  m.sys.mgr->WaitIdle();
  m.tree = std::move(pds::BPlusTree::Attach(m.sys.mgr.get(), m.anchor).value());
}

// The post-crash contract checked at every injection coordinate.
void VerifyRecovered(Machine& m, const std::string& context) {
  // Recovery converged to exactly one committed value v_j.
  Result<std::string> main_read = m.tree->Get(kKey);
  ASSERT_TRUE(main_read.ok()) << context;
  const uint64_t j = IndexOfValue(*main_read);

  // Safe floor: the durable stamp never runs ahead of the transactions the
  // recovered image retained. (Losing the stamp persist is fine — it only
  // undercounts; overcounting would let a snapshot claim an epoch whose
  // transactions recovery re-rolled or never kept.)
  const txn::EngineStats stats = m.sys.mgr->engine()->stats();
  EXPECT_GE(stats.backup_epoch, m.setup_epoch) << context;
  EXPECT_LE(stats.backup_epoch - m.setup_epoch, j)
      << context << ": durable cut stamp claims more applied transactions "
      << "than the recovered image holds (served v" << j << ")";

  // Idle after recovery: the snapshot path and the main path must agree.
  txn::BackupStore* bs = m.sys.mgr->backup_store();
  ASSERT_NE(bs, nullptr) << context;
  Result<txn::BackupStore::SnapshotView> view = bs->OpenSnapshot();
  ASSERT_TRUE(view.ok()) << context << ": " << view.status().message();
  EXPECT_GE(view->epoch(), stats.backup_epoch) << context;
  Result<std::string> snap = m.tree->SnapshotGet(*view, kKey);
  ASSERT_TRUE(snap.ok()) << context << ": " << snap.status().message();
  EXPECT_EQ(*snap, *main_read) << context;
  view->Release();

  // The machine stays live: one more committed write moves both paths.
  {
    auto guard = m.tree->LockExclusive();
    ASSERT_TRUE(m.sys.mgr
                    ->Run([&](txn::Tx& tx) -> Status {
                      return m.tree->UpsertInTx(tx, kKey, Value(j + 1));
                    })
                    .ok())
        << context;
  }
  m.sys.mgr->WaitIdle();
  Result<txn::BackupStore::SnapshotView> after = bs->OpenSnapshot();
  ASSERT_TRUE(after.ok()) << context;
  EXPECT_EQ(m.tree->SnapshotGet(*after, kKey).value(), Value(j + 1)) << context;
  after->Release();
}

class BackupCutCrashTest : public ::testing::TestWithParam<txn::EngineType> {};

// Count pass: the stamped workload must actually exercise the stamp site.
TEST_P(BackupCutCrashTest, WorkloadReachesTheStampSite) {
  Machine m = Build(GetParam());
  CrashScheduler scheduler;
  InstallObserver(m, &scheduler);
  scheduler.ArmCounting();
  RunOps(m, &scheduler);
  scheduler.Disarm();
  m.sys.main_pool->SetPersistenceObserver(nullptr);
  if (m.sys.backup_pool != nullptr) {
    m.sys.backup_pool->SetPersistenceObserver(nullptr);
  }
  uint64_t cut_events = 0;
  for (const CrashScheduler::EventRecord& rec : scheduler.trace()) {
    if (rec.site == "backup/cut") {
      ++cut_events;
    }
  }
  EXPECT_GT(cut_events, 0u) << "no persistence events tagged backup/cut; "
                               "the stamp is not reaching the pool";
}

// The sweep: crash at EVERY (kind, occurrence) coordinate of "backup/cut"
// the workload produces, plus every drain anywhere in the stamped run (the
// durability boundaries around the stamp), and verify the recovered-machine
// contract at each.
TEST_P(BackupCutCrashTest, EveryCutCrashLeavesAConsistentSnapshotStore) {
  std::vector<CrashScheduler::EventRecord> targets;
  {
    Machine m = Build(GetParam());
    CrashScheduler scheduler;
    InstallObserver(m, &scheduler);
    scheduler.ArmCounting();
    RunOps(m, &scheduler);
    scheduler.Disarm();
    m.sys.main_pool->SetPersistenceObserver(nullptr);
    if (m.sys.backup_pool != nullptr) {
      m.sys.backup_pool->SetPersistenceObserver(nullptr);
    }
    for (const CrashScheduler::EventRecord& rec : scheduler.trace()) {
      if (rec.site == "backup/cut" ||
          rec.kind == nvm::PersistEventKind::kDrain) {
        targets.push_back(rec);
      }
    }
  }
  ASSERT_FALSE(targets.empty());

  // Budgeted like the shard sweep: KAMINO_CUT_SWEEP_MAX bounds the number of
  // injection runs; backup/cut coordinates are never strided past.
  const char* env = std::getenv("KAMINO_CUT_SWEEP_MAX");
  const size_t max_points =
      env != nullptr ? static_cast<size_t>(std::stoul(env)) : 80;
  size_t cut_count = 0;
  for (const auto& rec : targets) {
    if (rec.site == "backup/cut") {
      ++cut_count;
    }
  }
  const size_t others = targets.size() - cut_count;
  const size_t other_budget = max_points > cut_count ? max_points - cut_count : 0;
  const size_t stride =
      other_budget == 0 ? targets.size() + 1 : std::max<size_t>(1, others / other_budget);

  size_t tested = 0;
  size_t fired = 0;
  size_t other_seen = 0;
  for (const CrashScheduler::EventRecord& target : targets) {
    if (target.site != "backup/cut" && (other_seen++ % stride) != 0) {
      continue;
    }
    ++tested;
    const std::string context = "crash at " + target.site + " occ " +
                                std::to_string(target.occurrence);
    Machine m = Build(GetParam());
    CrashScheduler scheduler;
    InstallObserver(m, &scheduler);
    scheduler.ArmInjectionAtSite(target.kind, target.site, target.occurrence);
    RunOps(m, &scheduler);
    if (scheduler.crashed()) {
      ++fired;
    }
    CrashAndRecover(m, &scheduler);
    VerifyRecovered(m, context);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_EQ(fired, tested)
      << "some injection coordinates never fired: the stamped event stream "
         "was not deterministic";
  RecordProperty("points_tested", static_cast<int>(tested));
  RecordProperty("cut_points", static_cast<int>(cut_count));
}

INSTANTIATE_TEST_SUITE_P(Engines, BackupCutCrashTest,
                         ::testing::Values(txn::EngineType::kKaminoSimple,
                                           txn::EngineType::kKaminoDynamic),
                         [](const ::testing::TestParamInfo<txn::EngineType>& info) {
                           return info.param == txn::EngineType::kKaminoSimple
                                      ? "KaminoSimple"
                                      : "KaminoDynamic";
                         });

}  // namespace
}  // namespace kamino::testing
