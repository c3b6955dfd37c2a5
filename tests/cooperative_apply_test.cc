// Cooperative apply (DESIGN.md §6): a transaction that blocks on a committed
// but not-yet-applied writer runs the applier's batch step itself instead of
// sleeping until an applier thread reaches its blocker.
//
// The applier is parked deterministically inside another transaction's
// apply (test::ApplierPark), so the only way a dependent operation can make
// progress is by helping. Both cases run under ThreadSanitizer ("txn").

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "src/txn/kamino_engine.h"
#include "tests/test_util.h"

namespace kamino::txn {
namespace {

constexpr uint64_t kObjectSize = 64;

struct Stack {
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<TxManager> mgr;

  static Stack Make(EngineType engine, uint64_t lock_timeout_ms) {
    Stack s;
    heap::HeapOptions hopts;
    hopts.pool_size = 32ull << 20;
    s.heap = std::move(heap::Heap::Create(hopts).value());
    TxManagerOptions mopts;
    mopts.engine = engine;
    mopts.applier_threads = 1;
    mopts.lock.timeout_ms = lock_timeout_ms;
    s.mgr = std::move(TxManager::Create(s.heap.get(), mopts).value());
    return s;
  }

  KaminoEngine* engine() { return static_cast<KaminoEngine*>(mgr->engine()); }

  std::vector<uint64_t> Alloc(int count) {
    std::vector<uint64_t> offs;
    for (int i = 0; i < count; ++i) {
      Status st = mgr->Run([&](Tx& tx) -> Status {
        Result<uint64_t> a = tx.Alloc(kObjectSize);
        if (!a.ok()) {
          return a.status();
        }
        offs.push_back(*a);
        return Status::Ok();
      });
      EXPECT_TRUE(st.ok()) << st.message();
    }
    mgr->WaitIdle();
    return offs;
  }

  Status Write(uint64_t off, uint64_t value) {
    return mgr->Run([&](Tx& tx) -> Status {
      Result<void*> p = tx.OpenWrite(off, kObjectSize);
      if (!p.ok()) {
        return p.status();
      }
      auto* words = static_cast<uint64_t*>(*p);
      for (uint64_t i = 0; i < kObjectSize / sizeof(uint64_t); ++i) {
        words[i] = value;
      }
      return Status::Ok();
    });
  }

  // A read-only transaction: read-locks `off` (a dependent operation when
  // `off` is committed but unapplied) and returns its first word.
  Result<uint64_t> Read(uint64_t off) {
    uint64_t value = 0;
    Status st = mgr->Run([&](Tx& tx) -> Status {
      KAMINO_RETURN_IF_ERROR(tx.ReadLock(off));
      std::memcpy(&value, heap->pool()->At(off), sizeof(value));
      return Status::Ok();
    });
    if (!st.ok()) {
      return st;
    }
    return value;
  }

  bool MainEqualsBackup(uint64_t off) {
    return std::memcmp(heap->pool()->At(off), mgr->backup_pool()->At(off), kObjectSize) == 0;
  }
};

// T1's apply is parked on the applier thread; T2 (a different object) is
// committed behind it. A read of T2's object blocks on T2's write lock and
// must apply T2 itself — returning while the applier is still parked.
TEST(CooperativeApplyTest, DependentReadAppliesPastParkedApplier) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/10'000);
  const std::vector<uint64_t> offs = s.Alloc(2);
  const uint64_t a = offs[0];
  const uint64_t b = offs[1];

  test::ApplierPark park;
  s.mgr->backup_pool()->SetPersistenceObserver(&park);
  // Every exit path, failed assertions included, un-parks the applier and
  // uninstalls the observer before the park and the engine go away.
  struct Unpark {
    Stack& s;
    test::ApplierPark& park;
    ~Unpark() {
      park.Release();
      s.mgr->WaitIdle();
      s.mgr->backup_pool()->SetPersistenceObserver(nullptr);
    }
  } unpark{s, park};
  ASSERT_TRUE(s.Write(a, 1).ok());  // T1
  ASSERT_TRUE(park.WaitParked()) << "the applier never reached T1's roll-forward";
  EXPECT_EQ(std::string(park.parked_site()).rfind("backup/", 0), 0u) << park.parked_site();
  ASSERT_TRUE(s.Write(b, 2).ok());  // T2, queued behind the parked batch.
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(b));

  auto read = std::async(std::launch::async, [&] { return s.Read(b); });
  const bool returned = read.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "dependent read waited for the parked applier";
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(a)) << "T1 applied while its applier was parked";
  park.Release();
  Result<uint64_t> got = read.get();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(*got, 2u);

  s.mgr->WaitIdle();
  const EngineStats stats = s.mgr->engine()->stats();
  EXPECT_GE(stats.helper_apply_batches, 1u);
  EXPECT_EQ(stats.applied, 4u);  // Two allocations, T1 and T2.
  EXPECT_EQ(stats.applier_queue_depth, 0u);
  EXPECT_TRUE(s.MainEqualsBackup(a));
  EXPECT_TRUE(s.MainEqualsBackup(b));
  EXPECT_FALSE(s.mgr->locks()->IsWriteLocked(a));
  EXPECT_FALSE(s.mgr->locks()->IsWriteLocked(b));
}

// PauseApplier freezes the committed-but-unapplied window (crash tests
// depend on it): a dependent operation may not help while it holds, so it
// times out and the backup stays behind.
TEST(CooperativeApplyTest, PausedApplierFreezesHelpers) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/200);
  const uint64_t a = s.Alloc(1)[0];

  s.engine()->PauseApplier(true);
  ASSERT_TRUE(s.Write(a, 7).ok());
  Result<uint64_t> read = s.Read(a);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kTxConflict);
  Status write = s.Write(a, 8);
  EXPECT_EQ(write.code(), StatusCode::kTxConflict);

  EngineStats stats = s.mgr->engine()->stats();
  EXPECT_EQ(stats.helper_apply_batches, 0u);
  EXPECT_EQ(stats.applier_queue_depth, 1u);
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(a));
  EXPECT_FALSE(s.MainEqualsBackup(a)) << "a paused engine applied a transaction";

  s.engine()->PauseApplier(false);
  s.mgr->WaitIdle();
  EXPECT_TRUE(s.MainEqualsBackup(a));
  Result<uint64_t> after = s.Read(a);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 7u);
}

}  // namespace
}  // namespace kamino::txn
