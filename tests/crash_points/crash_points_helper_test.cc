// Crash-point sweep over cooperative apply (DESIGN.md §6, §12.1): the
// applier's persist sites — the roll-forward's backup flushes,
// "log/release-slot" and "backup/cut" — now also run on the thread of a
// blocked dependent transaction. A power failure at every one of them, and
// at every other event of the workload, must recover cleanly.
//
// Workload (single mutator, one applier, deterministic event stream):
//   1. T1 writes object A; the applier claims it and is parked at the first
//      persistence event of its roll-forward (test::ApplierPark).
//   2. T2 writes object B, queued behind the parked batch.
//   3. A read of B blocks on T2's write lock and applies T2 itself — the
//      helper's roll-forward, slot release and cut stamp.
//   4. The park is released and the applier finishes T1.
//
// Checked at every crash ordinal k: recovery succeeds; the event stream
// before k matches the count pass; each object holds its old or its new
// value, untorn; a transaction whose commit returned before k survives;
// main equals backup once idle; and the durable cut stamp never claims more
// transactions than the recovered image holds (the stamp is a floor).
//
// KAMINO_CRASH_POINT_STRIDE=N (env) tests every N-th crash point.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/txn/kamino_engine.h"
#include "tests/crash_points/crash_scheduler.h"
#include "tests/test_util.h"

namespace kamino::testing {
namespace {

constexpr uint64_t kObjectSize = 64;
constexpr uint64_t kWords = kObjectSize / sizeof(uint64_t);
constexpr uint64_t kNewA = 1;
constexpr uint64_t kNewB = 2;

uint64_t StrideFromEnv() {
  const char* s = std::getenv("KAMINO_CRASH_POINT_STRIDE");
  if (s == nullptr) {
    return 1;
  }
  const long v = std::atol(s);
  return v > 1 ? static_cast<uint64_t>(v) : 1;
}

struct Machine {
  test::CrashableSystem sys;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t setup_epoch = 0;  // Durable stamp once setup is idle.
};

// Event-count marks of one workload run, taken on the mutator thread.
struct Marks {
  uint64_t after_t1 = 0;    // T1's commit returned.
  uint64_t after_t2 = 0;    // T2's commit returned.
  uint64_t after_help = 0;  // The dependent read (and its helper batch) returned.
};

Status WriteAll(txn::TxManager* mgr, uint64_t off, uint64_t value) {
  return mgr->Run([&](txn::Tx& tx) -> Status {
    Result<void*> p = tx.OpenWrite(off, kObjectSize);
    if (!p.ok()) {
      return p.status();
    }
    auto* words = static_cast<uint64_t*>(*p);
    for (uint64_t i = 0; i < kWords; ++i) {
      words[i] = value;
    }
    return Status::Ok();
  });
}

Machine Build(txn::EngineType engine) {
  Machine m;
  m.sys = test::CrashableSystem::Create(engine, 24ull << 20, /*alpha=*/0.25,
                                        /*applier_threads=*/1);
  for (uint64_t* off : {&m.a, &m.b}) {
    EXPECT_TRUE(m.sys.mgr
                    ->Run([&](txn::Tx& tx) -> Status {
                      Result<uint64_t> r = tx.Alloc(kObjectSize);
                      if (!r.ok()) {
                        return r.status();
                      }
                      *off = *r;
                      return Status::Ok();
                    })
                    .ok());
  }
  m.sys.mgr->WaitIdle();
  m.setup_epoch = m.sys.mgr->engine()->stats().backup_epoch;
  return m;
}

void SetObserver(Machine& m, nvm::PersistenceObserver* observer) {
  m.sys.main_pool->SetPersistenceObserver(observer);
  m.sys.backup_pool->SetPersistenceObserver(observer);
}

// Runs the parked-applier workload with `scheduler` armed by the caller.
Marks RunWorkload(Machine& m, CrashScheduler* scheduler) {
  Marks marks;
  test::ApplierPark park(scheduler);
  SetObserver(m, &park);
  EXPECT_TRUE(WriteAll(m.sys.mgr.get(), m.a, kNewA).ok());
  EXPECT_TRUE(park.WaitParked()) << "the applier never reached T1's roll-forward";
  marks.after_t1 = scheduler->event_count();
  EXPECT_TRUE(WriteAll(m.sys.mgr.get(), m.b, kNewB).ok());
  marks.after_t2 = scheduler->event_count();
  EXPECT_TRUE(m.sys.mgr
                  ->Run([&](txn::Tx& tx) -> Status { return tx.ReadLock(m.b); })
                  .ok())
      << "dependent read did not get past the parked applier";
  marks.after_help = scheduler->event_count();
  park.Release();
  m.sys.mgr->WaitIdle();
  SetObserver(m, nullptr);
  return marks;
}

constexpr uint64_t kTorn = ~uint64_t{0};

// The object's value if all its words agree, kTorn otherwise.
uint64_t ValueOf(const uint64_t* words) {
  for (uint64_t i = 1; i < kWords; ++i) {
    if (words[i] != words[0]) {
      return kTorn;
    }
  }
  return words[0];
}

uint64_t MainValue(Machine& m, uint64_t off) {
  return ValueOf(static_cast<const uint64_t*>(m.sys.main_pool->At(off)));
}

// The object's value as the backup holds it (read through a snapshot view,
// which works for both backup shapes).
uint64_t BackupValue(Machine& m, uint64_t off) {
  Result<txn::BackupStore::SnapshotView> view = m.sys.mgr->backup_store()->OpenSnapshot();
  if (!view.ok()) {
    return kTorn;
  }
  uint64_t words[kWords] = {};
  if (!view->Read(off, kObjectSize, words).ok()) {
    return kTorn;
  }
  return ValueOf(words);
}

class HelperCrashTest : public ::testing::TestWithParam<txn::EngineType> {};

// Count pass: the helper really runs the applier's persist sites.
TEST_P(HelperCrashTest, HelperRunsTheApplierPersistSites) {
  Machine m = Build(GetParam());
  CrashScheduler scheduler;
  scheduler.ArmCounting();
  const Marks marks = RunWorkload(m, &scheduler);
  scheduler.Disarm();
  EXPECT_GE(m.sys.mgr->engine()->stats().helper_apply_batches, 1u);

  const std::vector<CrashScheduler::EventRecord> trace = scheduler.trace();
  ASSERT_GE(trace.size(), marks.after_help);
  bool release = false;
  bool cut = false;
  for (uint64_t i = marks.after_t2; i < marks.after_help; ++i) {
    release = release || trace[i].site == "log/release-slot";
    cut = cut || trace[i].site == "backup/cut";
  }
  EXPECT_TRUE(release) << "the helper released no log slot";
  EXPECT_TRUE(cut) << "the helper stamped no backup cut";
}

TEST_P(HelperCrashTest, EveryCrashPointRecoversConsistently) {
  std::vector<CrashScheduler::EventRecord> count_trace;
  Marks marks;
  {
    Machine m = Build(GetParam());
    CrashScheduler scheduler;
    scheduler.ArmCounting();
    marks = RunWorkload(m, &scheduler);
    scheduler.Disarm();
    count_trace = scheduler.trace();
  }
  ASSERT_GT(marks.after_help, marks.after_t2);

  const uint64_t stride = StrideFromEnv();
  uint64_t tested = 0;
  for (uint64_t k = 1; k <= count_trace.size(); k += stride) {
    ++tested;
    const std::string context = "crash at ordinal " + std::to_string(k) + " (" +
                                count_trace[k - 1].site + " " +
                                nvm::PersistEventKindName(count_trace[k - 1].kind) + ")";
    Machine m = Build(GetParam());
    CrashScheduler scheduler;
    scheduler.ArmInjection(k);
    RunWorkload(m, &scheduler);
    ASSERT_TRUE(scheduler.crashed()) << context << ": the crash point never fired";
    const std::vector<CrashScheduler::EventRecord> trace = scheduler.trace();
    for (uint64_t i = 0; i + 1 < k; ++i) {
      ASSERT_EQ(trace[i].site, count_trace[i].site) << context << ": event " << i + 1;
      ASSERT_EQ(trace[i].kind, count_trace[i].kind) << context << ": event " << i + 1;
    }

    // Power-fail and recover.
    scheduler.Disarm();
    m.sys.CrashAndRecover();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    const uint64_t stamp = m.sys.mgr->engine()->stats().backup_epoch;
    m.sys.mgr->WaitIdle();

    const uint64_t va = MainValue(m, m.a);
    const uint64_t vb = MainValue(m, m.b);
    ASSERT_TRUE(va == 0 || va == kNewA) << context << ": A torn or foreign (" << va << ")";
    ASSERT_TRUE(vb == 0 || vb == kNewB) << context << ": B torn or foreign (" << vb << ")";
    if (k > marks.after_t1) {
      EXPECT_EQ(va, kNewA) << context << ": T1's commit returned but was lost";
    }
    if (k > marks.after_t2) {
      EXPECT_EQ(vb, kNewB) << context << ": T2's commit returned but was lost";
    }
    EXPECT_EQ(BackupValue(m, m.a), va) << context << ": main and backup differ on A";
    EXPECT_EQ(BackupValue(m, m.b), vb) << context << ": main and backup differ on B";
    const uint64_t retained = (va == kNewA ? 1 : 0) + (vb == kNewB ? 1 : 0);
    EXPECT_GE(stamp, m.setup_epoch) << context;
    EXPECT_LE(stamp - m.setup_epoch, retained)
        << context << ": the durable cut stamp counts more transactions than survived";

    // Still live: a dependent-free write commits and applies.
    EXPECT_TRUE(WriteAll(m.sys.mgr.get(), m.b, kNewB + 1).ok()) << context;
    m.sys.mgr->WaitIdle();
    EXPECT_EQ(BackupValue(m, m.b), kNewB + 1) << context;
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  RecordProperty("points_tested", static_cast<int>(tested));
}

INSTANTIATE_TEST_SUITE_P(Engines, HelperCrashTest,
                         ::testing::Values(txn::EngineType::kKaminoSimple,
                                           txn::EngineType::kKaminoDynamic),
                         [](const ::testing::TestParamInfo<txn::EngineType>& info) {
                           return info.param == txn::EngineType::kKaminoSimple
                                      ? "KaminoSimple"
                                      : "KaminoDynamic";
                         });

}  // namespace
}  // namespace kamino::testing
