// TxManager / Tx API surface tests: handle lifecycle, lazy slots, error
// paths, retries, footprint accounting, and the engine-shared log region.

#include "src/txn/tx_manager.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace kamino::txn {
namespace {

using test::CrashableSystem;

TEST(TxManagerTest, RejectsNullHeap) {
  TxManagerOptions opts;
  EXPECT_FALSE(TxManager::Create(nullptr, opts).ok());
  EXPECT_FALSE(TxManager::Open(nullptr, opts).ok());
}

TEST(TxManagerTest, OperationsOnInactiveTxFail) {
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  Result<Tx> tx = sys.mgr->Begin();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_FALSE(tx->active());
  EXPECT_FALSE(tx->OpenWrite(64, 8).ok());
  EXPECT_FALSE(tx->Alloc(64).ok());
  EXPECT_FALSE(tx->Free(64).ok());
  EXPECT_FALSE(tx->ReadLock(64).ok());
  EXPECT_FALSE(tx->Commit().ok());
  EXPECT_FALSE(tx->Abort().ok());
  EXPECT_EQ(tx->OpenedPointer(64), nullptr);
}

TEST(TxManagerTest, ReadOnlyTransactionsSkipTheLog) {
  auto sys = CrashableSystem::Create(EngineType::kKaminoSimple);
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    return Status::Ok();
                  })
                  .ok());
  sys.mgr->WaitIdle();
  const uint64_t applied_before = sys.mgr->engine()->stats().applied;
  // A thousand read-only transactions: no slot, no applier involvement.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sys.mgr->Run([&](Tx& tx) { return tx.ReadLock(off); }).ok());
  }
  sys.mgr->WaitIdle();
  EXPECT_EQ(sys.mgr->engine()->stats().applied, applied_before);
  EXPECT_EQ(sys.mgr->engine()->stats().committed, 1001u);
}

TEST(TxManagerTest, MoveTransfersOwnership) {
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  Result<Tx> a = sys.mgr->Begin();
  ASSERT_TRUE(a.ok());
  const uint64_t txid = a->txid();
  Tx b = std::move(*a);
  EXPECT_TRUE(b.active());
  EXPECT_EQ(b.txid(), txid);
  ASSERT_TRUE(b.Commit().ok());
}

TEST(TxManagerTest, MoveAssignAbortsPreviousTransaction) {
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  uint64_t off = 0;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    off = tx.Alloc(64).value();
                    std::memset(tx.OpenWrite(off, 64).value(), 1, 64);
                    return Status::Ok();
                  })
                  .ok());
  Tx first = std::move(sys.mgr->Begin().value());
  std::memset(first.OpenWrite(off, 64).value(), 9, 64);
  first = std::move(sys.mgr->Begin().value());  // Old tx auto-aborts.
  EXPECT_EQ(static_cast<uint8_t*>(sys.main_pool->At(off))[0], 1);
  ASSERT_TRUE(first.Abort().ok());
  EXPECT_EQ(sys.mgr->engine()->stats().aborted, 2u);
}

TEST(TxManagerTest, RunCommitsOnOkAbortsOnError) {
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  EXPECT_TRUE(sys.mgr->Run([](Tx&) { return Status::Ok(); }).ok());
  EXPECT_EQ(sys.mgr->Run([](Tx&) { return Status::NotFound("x"); }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sys.mgr->engine()->stats().committed, 1u);
  EXPECT_EQ(sys.mgr->engine()->stats().aborted, 1u);
}

TEST(TxManagerTest, RunHonorsExplicitCommitInBody) {
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  Status st = sys.mgr->Run([](Tx& tx) -> Status {
    KAMINO_RETURN_IF_ERROR(tx.Commit());
    return Status::Internal("already committed; Run must not abort");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);  // Body's status is returned...
  EXPECT_EQ(sys.mgr->engine()->stats().committed, 1u);  // ...but the commit stood.
  EXPECT_EQ(sys.mgr->engine()->stats().aborted, 0u);
}

TEST(TxManagerTest, RunWithRetriesRetriesOnlyConflicts) {
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  int calls = 0;
  Status st = sys.mgr->RunWithRetries([&](Tx&) {
    ++calls;
    return Status::TxConflict("always");
  });
  EXPECT_EQ(st.code(), StatusCode::kTxConflict);
  EXPECT_EQ(calls, TxManager::kMaxAttempts);

  calls = 0;
  st = sys.mgr->RunWithRetries([&](Tx&) {
    ++calls;
    return Status::NotFound("no retry");
  });
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
}

TEST(TxManagerTest, FootprintMatchesScheme) {
  auto simple = CrashableSystem::Create(EngineType::kKaminoSimple);
  auto fp = simple.mgr->footprint();
  EXPECT_EQ(fp.backup_bytes, fp.main_bytes);  // 2 x dataSize.

  auto undo = CrashableSystem::Create(EngineType::kUndoLog);
  EXPECT_EQ(undo.mgr->footprint().backup_bytes, 0u);

  auto dynamic = CrashableSystem::Create(EngineType::kKaminoDynamic, 64ull << 20, 0.25);
  const auto dfp = dynamic.mgr->footprint();
  EXPECT_GT(dfp.backup_bytes, 0u);
  EXPECT_LT(dfp.backup_bytes, dfp.main_bytes);  // (1 + alpha) x dataSize.
}

TEST(TxManagerTest, IntentLogCapacityAborted) {
  // More OpenWrites than the slot holds records: the op fails, the
  // transaction aborts cleanly, and prior objects are rolled back.
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  std::vector<uint64_t> offs;
  for (int batch = 0; batch < 4; ++batch) {  // 4 x 50 allocs per transaction.
    ASSERT_TRUE(sys.mgr
                    ->Run([&](Tx& tx) -> Status {
                      for (int i = 0; i < 50; ++i) {
                        offs.push_back(tx.Alloc(64).value());
                      }
                      return Status::Ok();
                    })
                    .ok());
  }
  sys.mgr->WaitIdle();

  Status st = sys.mgr->Run([&](Tx& tx) -> Status {
    for (uint64_t off : offs) {  // 200 > default max_records of 128.
      Result<void*> p = tx.OpenWrite(off, 64);
      if (!p.ok()) {
        return p.status();
      }
      std::memset(*p, 0xAB, 64);
    }
    return Status::Ok();
  });
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
  sys.mgr->WaitIdle();
  for (uint64_t off : offs) {
    EXPECT_EQ(static_cast<uint8_t*>(sys.main_pool->At(off))[0], 0) << off;
  }
}

TEST(TxManagerTest, UndoPayloadCapacityAborted) {
  // Undo snapshots exceed the slot's payload area: clean abort, no torn data.
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  std::vector<uint64_t> offs;
  ASSERT_TRUE(sys.mgr
                  ->Run([&](Tx& tx) -> Status {
                    for (int i = 0; i < 2; ++i) {
                      offs.push_back(tx.Alloc(48 * 1024, /*zero=*/false).value());
                    }
                    return Status::Ok();
                  })
                  .ok());
  Status st = sys.mgr->Run([&](Tx& tx) -> Status {
    for (uint64_t off : offs) {  // 2 x 48K snapshots > 56K payload area.
      Result<void*> p = tx.OpenWrite(off, 48 * 1024);
      if (!p.ok()) {
        return p.status();
      }
    }
    return Status::Ok();
  });
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
}

TEST(TxManagerTest, OpenWriteOfUnknownOffsetNeedsSize) {
  auto sys = CrashableSystem::Create(EngineType::kUndoLog);
  Status st = sys.mgr->Run([&](Tx& tx) -> Status {
    // Offset inside the log region is not an allocation: size 0 must fail.
    Result<void*> p = tx.OpenWrite(sys.heap->log_region_offset() + 999, 0);
    return p.status();
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Contexts are recycled through a capped per-thread cache: releasing far
// more than the cap frees the excess, and a recycled context comes back
// reset, with a scan-sized buffer trimmed.
TEST(TxContextPoolTest, RecycledContextsAreResetAndThePoolIsCapped) {
  const size_t cap = TxContextCacheCapForTest();
  std::vector<TxContextPtr> held;
  for (size_t i = 0; i < cap + 200; ++i) {
    held.push_back(NewTxContext());
    held.back()->txid = i + 1;
  }
  EXPECT_EQ(CachedTxContextsForTest(), 0u);
  held.clear();
  EXPECT_EQ(CachedTxContextsForTest(), cap);

  TxContextPtr ctx = NewTxContext();
  ctx->txid = 7;
  ctx->active = false;
  ctx->slot.slot_index = 3;
  ctx->AddOpenIntent(Intent{IntentKind::kWrite, 4096, 64, 0});
  ctx->read_lock_keys.resize(10'000);
  TxContext* const raw = ctx.get();
  ctx.reset();
  ctx = NewTxContext();
  ASSERT_EQ(ctx.get(), raw);  // This thread's cache hands back the newest.
  EXPECT_EQ(ctx->txid, 0u);
  EXPECT_TRUE(ctx->active);
  EXPECT_FALSE(ctx->slot.valid());
  EXPECT_TRUE(ctx->intents.empty());
  EXPECT_EQ(ctx->FindOpen(4096), nullptr);
  EXPECT_TRUE(ctx->read_lock_keys.empty());
  EXPECT_LT(ctx->read_lock_keys.capacity(), 10'000u);
}

}  // namespace
}  // namespace kamino::txn
