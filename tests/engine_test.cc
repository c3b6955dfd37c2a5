// Cross-engine semantics tests: all five atomicity engines behind the same
// API must agree on commit/abort/alloc/free behaviour (the no-logging engine
// is exempt from rollback guarantees).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "src/txn/kamino_engine.h"
#include "tests/test_util.h"

namespace kamino::txn {
namespace {

using test::CrashableSystem;

class EngineTest : public ::testing::TestWithParam<EngineType> {
 protected:
  void SetUp() override { sys_ = CrashableSystem::Create(GetParam()); }

  bool rolls_back() const { return GetParam() != EngineType::kNoLogging; }

  uint8_t* MainAt(uint64_t off) {
    return static_cast<uint8_t*>(sys_.main_pool->At(off));
  }

  CrashableSystem sys_;
};

TEST_P(EngineTest, CommitMakesWritesVisible) {
  uint64_t off = 0;
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    Result<uint64_t> a = tx.Alloc(128);
    if (!a.ok()) {
      return a.status();
    }
    off = *a;
    Result<void*> p = tx.OpenWrite(off, 128);
    if (!p.ok()) {
      return p.status();
    }
    std::memset(*p, 0x5A, 128);
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st;
  sys_.mgr->WaitIdle();
  EXPECT_EQ(MainAt(off)[0], 0x5A);
  EXPECT_EQ(MainAt(off)[127], 0x5A);
  EXPECT_TRUE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, AbortRollsBackWrites) {
  // Commit an initial value, then modify and abort.
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    void* p = tx.OpenWrite(off, 128).value();
                    std::memset(p, 0x11, 128);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    void* p = tx.OpenWrite(off, 128).value();
    std::memset(p, 0x22, 128);
    return Status::Internal("force abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(off)[0], 0x11);
    EXPECT_EQ(MainAt(off)[127], 0x11);
  }
  EXPECT_EQ(sys_.mgr->engine()->stats().aborted, 1u);
}

TEST_P(EngineTest, AbortFreesAllocations) {
  uint64_t off = 0;
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    off = tx.Alloc(256).value();
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, CommittedFreeTakesEffect) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(sys_.mgr->Run([&](Tx& tx) { return tx.Free(off); }).ok());
  sys_.mgr->WaitIdle();
  EXPECT_FALSE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, AbortedFreeHasNoEffect) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    KAMINO_RETURN_IF_ERROR(tx.Free(off));
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  EXPECT_TRUE(sys_.heap->allocator()->IsAllocated(off));
}

TEST_P(EngineTest, AllocIsZeroed) {
  uint64_t off = 0;
  // Dirty a slot, free it, re-allocate: the new object must read zero.
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(128).value();
                    void* p = tx.OpenWrite(off, 128).value();
                    std::memset(p, 0xFF, 128);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(sys_.mgr->Run([&](Tx& tx) { return tx.Free(off); }).ok());
  sys_.mgr->WaitIdle();
  uint64_t off2 = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off2 = tx.Alloc(128).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(off2, off) << "slot should be reused";
  EXPECT_EQ(MainAt(off2)[0], 0);
  EXPECT_EQ(MainAt(off2)[127], 0);
}

TEST_P(EngineTest, MultiObjectTransactionIsAtomic) {
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    a = tx.Alloc(64).value();
                    b = tx.Alloc(64).value();
                    std::memset(tx.OpenWrite(a, 64).value(), 1, 64);
                    std::memset(tx.OpenWrite(b, 64).value(), 1, 64);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  // Modify both, abort: both must revert.
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    std::memset(tx.OpenWrite(a, 64).value(), 2, 64);
    std::memset(tx.OpenWrite(b, 64).value(), 2, 64);
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(a)[0], 1);
    EXPECT_EQ(MainAt(b)[0], 1);
  }
}

TEST_P(EngineTest, RepeatedOpenWriteIsIdempotent) {
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    uint64_t off = tx.Alloc(64).value();
                    void* p1 = tx.OpenWrite(off, 64).value();
                    void* p2 = tx.OpenWrite(off, 64).value();
                    EXPECT_EQ(p1, p2);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
}

TEST_P(EngineTest, RootFieldUpdateInTransaction) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* root = static_cast<uint64_t*>(
                        tx.OpenWrite(sys_.heap->root_field_offset(), 8).value());
                    *root = off;
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(sys_.heap->root(), off);

  // Aborted root update reverts.
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    auto* root =
        static_cast<uint64_t*>(tx.OpenWrite(sys_.heap->root_field_offset(), 8).value());
    *root = 0xBAD;
    return Status::Internal("abort");
  });
  EXPECT_FALSE(st.ok());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(sys_.heap->root(), off);
  }
}

TEST_P(EngineTest, ExplicitAbortViaHandle) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    std::memset(tx.OpenWrite(off, 64).value(), 7, 64);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  Result<Tx> tx = sys_.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  std::memset(tx->OpenWrite(off, 64).value(), 9, 64);
  ASSERT_TRUE(tx->Abort().ok());
  EXPECT_FALSE(tx->active());
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(off)[0], 7);
  }
}

TEST_P(EngineTest, DroppedHandleAutoAborts) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    std::memset(tx.OpenWrite(off, 64).value(), 7, 64);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  {
    Result<Tx> tx = sys_.mgr->Begin();
    ASSERT_TRUE(tx.ok());
    std::memset(tx->OpenWrite(off, 64).value(), 9, 64);
    // Handle dropped without commit.
  }
  sys_.mgr->WaitIdle();
  if (rolls_back()) {
    EXPECT_EQ(MainAt(off)[0], 7);
  }
  EXPECT_EQ(sys_.mgr->engine()->stats().aborted, 1u);
}

TEST_P(EngineTest, ConflictingWritersSerialize) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Status st = sys_.mgr->RunWithRetries([&](Tx& tx) -> Status {
          Result<void*> p = tx.OpenWrite(off, 64);
          if (!p.ok()) {
            return p.status();
          }
          auto* counter = static_cast<uint64_t*>(*p);
          *counter += 1;
          return Status::Ok();
        });
        if (!st.ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(MainAt(off)), kThreads * kIters);
}

TEST_P(EngineTest, ReadLockBlocksUntilApplied) {
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                    *v = 1;
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  // Writer commits; a dependent reader must see the committed value.
  std::thread writer([&] {
    ASSERT_TRUE(sys_.mgr
                    ->Run([&](Tx& tx) -> Status {
                      auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                      *v = 2;
                      return Status::Ok();
                    })
                    .ok());
  });
  writer.join();
  uint64_t seen = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    KAMINO_RETURN_IF_ERROR(tx.ReadLock(off));
                    seen = *reinterpret_cast<uint64_t*>(MainAt(off));
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(seen, 2u);
  sys_.mgr->WaitIdle();
}

TEST_P(EngineTest, StatsCountCommits) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sys_.mgr
                    ->Run([&](Tx& tx) -> Status {
                      uint64_t off = tx.Alloc(64).value();
                      std::memset(tx.OpenWrite(off, 64).value(), 1, 64);
                      return Status::Ok();
                    })
                    .ok());
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(sys_.mgr->engine()->stats().committed, 5u);
}

TEST_P(EngineTest, LargeObjectTransactions) {
  // Spans (above the largest size class) must work transactionally too.
  const uint64_t kBig = 2ull << 20;
  uint64_t off = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(kBig, /*zero=*/false).value();
                    void* p = tx.OpenWrite(off, kBig).value();
                    std::memset(p, 0x3C, kBig);
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(MainAt(off)[0], 0x3C);
  EXPECT_EQ(MainAt(off)[kBig - 1], 0x3C);
  ASSERT_TRUE(sys_.mgr->Run([&](Tx& tx) { return tx.Free(off); }).ok());
  sys_.mgr->WaitIdle();
  EXPECT_FALSE(sys_.heap->allocator()->IsAllocated(off));
}

// Cross-shard prepare exists only on the Kamino engines; anywhere else it is
// refused before anything happens, and the transaction commits normally.
TEST_P(EngineTest, PrepareIsKaminoOnly) {
  const bool kamino = GetParam() == EngineType::kKaminoSimple ||
                      GetParam() == EngineType::kKaminoDynamic;
  Result<Tx> tx = sys_.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tx->Alloc(64).ok());
  Status st = tx->Prepare(/*gtxid=*/7, /*coord_shard=*/0);
  if (kamino) {
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(tx->prepared());
    EXPECT_TRUE(tx->FinishPrepared(/*commit=*/true).ok());
  } else {
    EXPECT_EQ(st.code(), StatusCode::kNotSupported);
    EXPECT_TRUE(tx->active());
    EXPECT_TRUE(tx->Commit().ok());
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(sys_.mgr->engine()->stats().committed, 1u);
}

// --- Persist ledger ---------------------------------------------------------
// Every flush and drain an engine issues for a fixed workload, per persist
// site and pool. The table pins each engine's persist stream: a refactor of
// the intent, alloc or free path that adds, drops or moves a flush or drain
// shows up here as a one-site diff.

// "pool:site" -> {flush calls, drain calls}.
using Ledger = std::map<std::string, std::pair<uint64_t, uint64_t>>;

Ledger SiteCounts(const nvm::Pool* pool, const std::string& name) {
  Ledger out;
  if (pool == nullptr) {
    return out;
  }
  for (const nvm::PoolSiteStats& s : pool->site_stats()) {
    out[name + ":" + s.site] = {s.flush_calls, s.drain_calls};
  }
  return out;
}

Ledger Delta(const Ledger& before, const Ledger& after) {
  Ledger out;
  for (const auto& [site, counts] : after) {
    auto it = before.find(site);
    const std::pair<uint64_t, uint64_t> base =
        it == before.end() ? std::pair<uint64_t, uint64_t>{0, 0} : it->second;
    if (counts != base) {
      out[site] = {counts.first - base.first, counts.second - base.second};
    }
  }
  return out;
}

// Per-site flush and drain deltas of the ledger workload below, per engine.
Ledger ExpectedLedger(EngineType type) {
  switch (type) {
    case EngineType::kKaminoSimple:
      return {
          {"backup:backup/apply", {2, 1}},
          {"main:applier/roll-forward", {1, 1}},
          {"main:backup/cut", {1, 1}},
          {"main:backup/restore", {1, 1}},
          {"main:engine/abort-rollback", {1, 1}},
          {"main:engine/flush-write-set", {2, 1}},
          {"main:log/abort-record", {1, 1}},
          {"main:log/acquire-slot", {2, 0}},
          {"main:log/append-intent", {5, 4}},
          {"main:log/commit-record", {1, 1}},
          {"main:log/release-slot", {2, 2}},
          {"main:untagged", {5, 4}},
      };
    case EngineType::kKaminoDynamic:
      return {
          {"backup:applier/roll-forward", {5, 4}},
          {"backup:backup/apply", {1, 1}},
          {"backup:backup/insert-copy", {1, 1}},
          {"backup:backup/insert-entry", {1, 1}},
          {"backup:backup/tombstone-entry", {1, 1}},
          {"main:applier/roll-forward", {1, 1}},
          {"main:backup/cut", {1, 1}},
          {"main:backup/restore", {1, 1}},
          {"main:engine/abort-rollback", {1, 1}},
          {"main:engine/flush-write-set", {2, 1}},
          {"main:log/abort-record", {1, 1}},
          {"main:log/acquire-slot", {2, 0}},
          {"main:log/append-intent", {5, 4}},
          {"main:log/commit-record", {1, 1}},
          {"main:log/release-slot", {2, 2}},
          {"main:untagged", {5, 4}},
      };
    case EngineType::kUndoLog:
      return {
          {"main:engine/abort-rollback", {2, 2}},
          {"main:engine/flush-write-set", {2, 1}},
          {"main:log/abort-record", {1, 1}},
          {"main:log/acquire-slot", {2, 0}},
          {"main:log/append-intent", {5, 4}},
          {"main:log/commit-record", {1, 1}},
          {"main:log/release-slot", {2, 2}},
          {"main:undo/snapshot", {2, 0}},
          {"main:untagged", {6, 5}},
      };
    case EngineType::kCow:
      return {
          {"main:cow/install", {1, 1}},
          {"main:cow/persist-shadows", {2, 1}},
          {"main:log/abort-record", {1, 1}},
          {"main:log/acquire-slot", {2, 0}},
          {"main:log/append-intent", {5, 4}},
          {"main:log/commit-record", {1, 1}},
          {"main:log/release-slot", {2, 2}},
          {"main:untagged", {11, 10}},
      };
    case EngineType::kRedoLog:
      return {
          {"main:log/abort-record", {1, 1}},
          {"main:log/acquire-slot", {2, 0}},
          {"main:log/append-intent", {5, 4}},
          {"main:log/commit-record", {1, 1}},
          {"main:log/release-slot", {2, 2}},
          {"main:redo/install", {1, 1}},
          {"main:redo/stage-commit", {2, 1}},
          {"main:untagged", {7, 6}},
      };
    case EngineType::kNoLogging:
      return {
          {"main:engine/flush-write-set", {2, 1}},
          {"main:untagged", {7, 6}},
      };
    default:
      return {};
  }
}

// One committed transaction (OpenWrite on an existing 1 KB object, Alloc,
// Free) and one aborted one (OpenWrite, Alloc), counted after WaitIdle.
TEST_P(EngineTest, PersistLedgerIsPinned) {
  uint64_t obj = 0;
  uint64_t victim = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    obj = tx.Alloc(1024).value();
                    victim = tx.Alloc(1024).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  auto snapshot = [&] {
    Ledger l = SiteCounts(sys_.main_pool.get(), "main");
    Ledger b = SiteCounts(sys_.backup_pool.get(), "backup");
    l.insert(b.begin(), b.end());
    return l;
  };
  const Ledger before = snapshot();

  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    std::memset(tx.OpenWrite(obj, 1024).value(), 0x42, 1024);
                    KAMINO_RETURN_IF_ERROR(tx.Alloc(64).status());
                    return tx.Free(victim);
                  })
                  .ok());
  Status st = sys_.mgr->Run([&](Tx& tx) -> Status {
    std::memset(tx.OpenWrite(obj, 1024).value(), 0x43, 1024);
    KAMINO_RETURN_IF_ERROR(tx.Alloc(64).status());
    return Status::Internal("force abort");
  });
  ASSERT_FALSE(st.ok());
  sys_.mgr->WaitIdle();

  EXPECT_EQ(Delta(before, snapshot()), ExpectedLedger(GetParam()));
}

// --- Recovery ledger ----------------------------------------------------------
// The recovery counterpart of the persist ledger: every flush and drain one
// TxManager::Open issues to resolve a fixed crash image, per site and pool,
// plus the forward/back outcome counts.

// Lets persist events through until the first commit-record drain, then
// vetoes every later one on every thread: a power cut right after the commit
// point, before the engine has installed, applied or released anything.
class CutAfterCommitRecord : public nvm::PersistenceObserver {
 public:
  bool OnPersistEvent(const nvm::PersistEvent& event) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (cut_) {
      return false;
    }
    cut_ = event.kind == nvm::PersistEventKind::kDrain &&
           std::strcmp(event.site, "log/commit-record") == 0;
    return true;
  }

 private:
  std::mutex mu_;
  bool cut_ = false;
};

struct RecoveryLedger {
  Ledger sites;
  uint64_t recovered_forward = 0;
  uint64_t recovered_back = 0;
};

RecoveryLedger ExpectedRecoveryLedger(EngineType type) {
  switch (type) {
    case EngineType::kKaminoSimple:
      return {{
                  {"backup:backup/apply", {2, 1}},
                  {"main:applier/roll-forward", {1, 1}},
                  {"main:backup/cut", {1, 1}},
                  {"main:backup/restore", {1, 1}},
                  {"main:engine/recover", {1, 1}},
                  {"main:log/release-slot", {2, 2}},
              },
              1,
              1};
    case EngineType::kKaminoDynamic:
      return {{
                  {"backup:applier/roll-forward", {5, 4}},
                  {"backup:backup/apply", {1, 1}},
                  {"backup:backup/insert-copy", {1, 1}},
                  {"backup:backup/insert-entry", {1, 1}},
                  {"backup:backup/tombstone-entry", {1, 1}},
                  {"main:applier/roll-forward", {1, 1}},
                  {"main:backup/cut", {1, 1}},
                  {"main:backup/restore", {1, 1}},
                  {"main:engine/recover", {1, 1}},
                  {"main:log/release-slot", {2, 2}},
              },
              1,
              1};
    case EngineType::kUndoLog:
      return {{
                  {"main:engine/recover", {3, 3}},
                  {"main:log/release-slot", {2, 2}},
              },
              1,
              1};
    case EngineType::kCow:
      return {{
                  {"main:engine/recover", {5, 5}},
                  {"main:log/release-slot", {2, 2}},
              },
              1,
              1};
    case EngineType::kRedoLog:
      return {{
                  {"main:engine/recover", {3, 3}},
                  {"main:log/release-slot", {2, 2}},
              },
              1,
              1};
    default:
      return {};  // No log, nothing to recover.
  }
}

// The crash image holds one in-flight transaction (OpenWrite on a 1 KB
// object and an Alloc, leaked before commit) and one committed-but-unreleased
// transaction (OpenWrite on another 1 KB object, Alloc, Free), cut right
// after its commit record. Counted over TxManager::Open, which runs Recover.
TEST_P(EngineTest, RecoveryLedgerIsPinned) {
  uint64_t obj = 0;
  uint64_t torn = 0;
  uint64_t victim = 0;
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    obj = tx.Alloc(1024).value();
                    torn = tx.Alloc(1024).value();
                    victim = tx.Alloc(1024).value();
                    return Status::Ok();
                  })
                  .ok());
  sys_.mgr->WaitIdle();

  {
    Result<Tx> tx = sys_.mgr->Begin();
    ASSERT_TRUE(tx.ok());
    std::memset(tx->OpenWrite(torn, 1024).value(), 0x77, 1024);
    ASSERT_TRUE(tx->Alloc(64).ok());
    tx->LeakForCrashTest();
  }

  CutAfterCommitRecord cut;
  sys_.main_pool->SetPersistenceObserver(&cut);
  if (sys_.backup_pool != nullptr) {
    sys_.backup_pool->SetPersistenceObserver(&cut);
  }
  ASSERT_TRUE(sys_.mgr
                  ->Run([&](Tx& tx) -> Status {
                    std::memset(tx.OpenWrite(obj, 1024).value(), 0x42, 1024);
                    KAMINO_RETURN_IF_ERROR(tx.Alloc(64).status());
                    return tx.Free(victim);
                  })
                  .ok());
  sys_.mgr->WaitIdle();
  sys_.mgr.reset();
  sys_.heap.reset();
  ASSERT_TRUE(sys_.main_pool->Crash(nvm::CrashMode::kDropUnflushed).ok());
  sys_.main_pool->SetPersistenceObserver(nullptr);
  if (sys_.backup_pool != nullptr) {
    ASSERT_TRUE(sys_.backup_pool->Crash(nvm::CrashMode::kDropUnflushed).ok());
    sys_.backup_pool->SetPersistenceObserver(nullptr);
  }

  sys_.heap = std::move(heap::Heap::Attach(sys_.main_pool.get()).value());
  auto snapshot = [&] {
    Ledger l = SiteCounts(sys_.main_pool.get(), "main");
    Ledger b = SiteCounts(sys_.backup_pool.get(), "backup");
    l.insert(b.begin(), b.end());
    return l;
  };
  const Ledger before = snapshot();
  sys_.mgr = std::move(TxManager::Open(sys_.heap.get(), sys_.options).value());
  sys_.mgr->WaitIdle();

  RecoveryLedger got;
  got.sites = Delta(before, snapshot());
  const EngineStats s = sys_.mgr->engine()->stats();
  got.recovered_forward = s.recovered_forward;
  got.recovered_back = s.recovered_back;
  const RecoveryLedger want = ExpectedRecoveryLedger(GetParam());
  EXPECT_EQ(got.sites, want.sites);
  EXPECT_EQ(got.recovered_forward, want.recovered_forward);
  EXPECT_EQ(got.recovered_back, want.recovered_back);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values(EngineType::kKaminoSimple,
                                           EngineType::kKaminoDynamic, EngineType::kUndoLog,
                                           EngineType::kCow, EngineType::kRedoLog,
                                           EngineType::kNoLogging),
                         [](const ::testing::TestParamInfo<EngineType>& info) {
                           switch (info.param) {
                             case EngineType::kKaminoSimple:
                               return "KaminoSimple";
                             case EngineType::kKaminoDynamic:
                               return "KaminoDynamic";
                             case EngineType::kUndoLog:
                               return "UndoLog";
                             case EngineType::kCow:
                               return "Cow";
                             case EngineType::kRedoLog:
                               return "RedoLog";
                             case EngineType::kNoLogging:
                               return "NoLogging";
                             default:
                               return "Unknown";
                           }
                         });

// --- Engine-specific behaviour ----------------------------------------------

TEST(CowEngineTest, WritesGoToShadowUntilCommit) {
  auto sys = CrashableSystem::Create(EngineType::kCow);
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                    *v = 1;
                    return Status::Ok();
                  })
                  .ok());

  Result<Tx> tx = sys.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  auto* shadow = static_cast<uint64_t*>(tx->OpenWrite(off, 64).value());
  *shadow = 99;
  // Shadow is a different location; the main copy still holds 1.
  EXPECT_NE(reinterpret_cast<uint8_t*>(shadow), sys.main_pool->At(off));
  EXPECT_EQ(*static_cast<uint64_t*>(sys.main_pool->At(off)), 1u);
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(*static_cast<uint64_t*>(sys.main_pool->At(off)), 99u);
}

TEST(KaminoEngineTest, BackupCatchesUpAfterCommit) {
  auto sys = CrashableSystem::Create(EngineType::kKaminoSimple);
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    auto* v = static_cast<uint64_t*>(tx.OpenWrite(off, 64).value());
                    *v = 0x1234;
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();
  EXPECT_EQ(*static_cast<uint64_t*>(sys.backup_pool->At(off)), 0x1234u);
}

TEST(KaminoEngineTest, LockHeldUntilApplied) {
  auto sys = CrashableSystem::Create(EngineType::kKaminoSimple);
  auto* engine = static_cast<KaminoEngine*>(sys.mgr->engine());
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();

  engine->PauseApplier(true);
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    std::memset(tx.OpenWrite(off, 64).value(), 1, 64);
                    return Status::Ok();
                  })
                  .ok());
  // Commit returned but the applier is frozen: the object stays locked.
  EXPECT_TRUE(sys.mgr->locks()->IsWriteLocked(off));
  engine->PauseApplier(false);
  sys.mgr->WaitIdle();
  EXPECT_FALSE(sys.mgr->locks()->IsWriteLocked(off));
}

TEST(KaminoEngineTest, DynamicMissCountsCopies) {
  auto sys = CrashableSystem::Create(EngineType::kKaminoDynamic);
  auto* engine = static_cast<KaminoEngine*>(sys.mgr->engine());
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(1024).value();
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();
  const uint64_t misses_before = engine->store()->stats().ensure_misses;
  // First write after the applier-created copy exists: hit, no copy.
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    std::memset(tx.OpenWrite(off, 1024).value(), 1, 1024);
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();
  EXPECT_EQ(engine->store()->stats().ensure_misses, misses_before);
}

}  // namespace
}  // namespace kamino::txn
