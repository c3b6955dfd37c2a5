// Online recovery (DESIGN.md §10): parallel replay, applier handoff of
// committed-but-unapplied transactions, background backup reconciliation
// behind the dirty-map fence, and the continue-and-aggregate contract of
// KaminoEngine::Recover() when individual transactions fail to replay.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/txn/kamino_engine.h"
#include "src/txn/tx_manager.h"
#include "tests/test_util.h"

namespace kamino::txn {
namespace {

constexpr uint64_t kObjectSize = 256;

// Allocates `n` objects filled with `fill`, committed and fully applied.
std::vector<uint64_t> AllocPatterned(test::CrashableSystem& sys, int n, char fill) {
  std::vector<uint64_t> offs;
  Status st = sys.mgr->Run([&](Tx& tx) -> Status {
    for (int i = 0; i < n; ++i) {
      Result<uint64_t> off = tx.Alloc(kObjectSize);
      if (!off.ok()) {
        return off.status();
      }
      Result<void*> p = tx.OpenWrite(*off, kObjectSize);
      if (!p.ok()) {
        return p.status();
      }
      std::memset(*p, fill, kObjectSize);
      offs.push_back(*off);
    }
    return Status::Ok();
  });
  ASSERT_CRASH(st.ok());
  sys.mgr->WaitIdle();
  return offs;
}

// Overwrites one object with `fill` in its own committed transaction.
Status OverwriteOne(test::CrashableSystem& sys, uint64_t off, char fill) {
  return sys.mgr->Run([&](Tx& tx) -> Status {
    Result<void*> p = tx.OpenWrite(off, kObjectSize);
    if (!p.ok()) {
      return p.status();
    }
    std::memset(*p, fill, kObjectSize);
    return Status::Ok();
  });
}

bool AllBytesAre(const void* p, char expect) {
  const char* bytes = static_cast<const char*>(p);
  for (uint64_t i = 0; i < kObjectSize; ++i) {
    if (bytes[i] != expect) {
      return false;
    }
  }
  return true;
}

// "Machine dies": volatile state goes away, both pools drop unflushed lines.
void CrashMachine(test::CrashableSystem& sys) {
  sys.mgr.reset();
  sys.heap.reset();
  ASSERT_CRASH(sys.main_pool->Crash(nvm::CrashMode::kDropUnflushed).ok());
  if (sys.backup_pool) {
    ASSERT_CRASH(sys.backup_pool->Crash(nvm::CrashMode::kDropUnflushed).ok());
  }
}

void Reopen(test::CrashableSystem& sys) {
  sys.heap = std::move(heap::Heap::Attach(sys.main_pool.get()).value());
  sys.mgr = std::move(txn::TxManager::Open(sys.heap.get(), sys.options).value());
}

// Regression (ISSUE satellite 1): Recover() used to return at the FIRST
// failed transaction, leaving every later committed transaction un-replayed
// and its slot pinned. On a chain replica the rollback of an in-flight
// transaction always fails (no local backup to restore pre-images from), and
// the in-flight transaction holds the lowest txid here — the old early
// return would have dropped both committed transactions on the floor.
TEST(RecoverAggregation, FailedRollbackDoesNotStarveCommittedReplay) {
  test::CrashableSystem sys = test::CrashableSystem::Create(EngineType::kChainReplica);
  std::vector<uint64_t> offs = AllocPatterned(sys, 3, 'A');

  // Lowest staged txid: an in-flight transaction dies mid-scribble.
  {
    Result<Tx> tx = sys.mgr->Begin();
    ASSERT_TRUE(tx.ok());
    Result<void*> p = tx->OpenWrite(offs[0], kObjectSize);
    ASSERT_TRUE(p.ok());
    std::memset(*p, 'x', kObjectSize);
    tx->LeakForCrashTest();
  }
  // Then two committed transactions frozen in the applier queue.
  auto* engine = static_cast<KaminoEngine*>(sys.mgr->engine());
  engine->PauseApplier(true);
  ASSERT_TRUE(OverwriteOne(sys, offs[1], 'B').ok());
  ASSERT_TRUE(OverwriteOne(sys, offs[2], 'B').ok());

  CrashMachine(sys);
  sys.options.skip_recovery = true;  // Drive Recover() by hand, like the chain layer.
  Reopen(sys);

  // Recovery must fail (the rollback needs a neighbour) but still roll both
  // committed transactions forward and release their slots.
  Status first = sys.mgr->engine()->Recover();
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(sys.mgr->engine()->stats().recovered_forward, 2u);
  EXPECT_TRUE(AllBytesAre(sys.main_pool->At(offs[1]), 'B'));
  EXPECT_TRUE(AllBytesAre(sys.main_pool->At(offs[2]), 'B'));

  // Retry-safe: a second Recover() sees only the still-failing in-flight
  // transaction (the committed slots are gone) and fails the same way
  // without double-applying anything.
  Status second = sys.mgr->engine()->Recover();
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(sys.mgr->engine()->stats().recovered_forward, 2u);
}

// Online recovery hands committed-but-unapplied transactions to the applier
// pool and opens immediately; the handed-off writes are visible, new
// transactions run while the backup catches up, and WaitForRecovery drains
// everything to a mirror-consistent state.
TEST(OnlineRecovery, ServesTrafficWhileHandoffsDrain) {
  test::CrashableSystem sys =
      test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20, 0.25,
                                    /*applier_threads=*/2);
  std::vector<uint64_t> offs = AllocPatterned(sys, 4, 'A');

  static_cast<KaminoEngine*>(sys.mgr->engine())->PauseApplier(true);
  for (uint64_t off : offs) {
    ASSERT_TRUE(OverwriteOne(sys, off, 'B').ok());
  }

  CrashMachine(sys);
  sys.options.recovery.online = true;
  sys.options.recovery.workers = 2;
  Reopen(sys);

  // The engine is open: handed-off writes are already in main (roll-forward
  // re-applies main -> backup), and a new transaction on a recovered object
  // works immediately — it just waits for that object's handoff to sync.
  EXPECT_TRUE(AllBytesAre(sys.main_pool->At(offs[1]), 'B'));
  ASSERT_TRUE(OverwriteOne(sys, offs[0], 'C').ok());

  sys.mgr->WaitForRecovery();
  sys.mgr->WaitIdle();

  const EngineStats stats = sys.mgr->engine()->stats();
  EXPECT_EQ(stats.recovered_forward, 4u);
  EXPECT_GT(stats.recovery_replay_ns, 0u);

  // Backup mirror converged with main on every object.
  EXPECT_TRUE(AllBytesAre(sys.main_pool->At(offs[0]), 'C'));
  for (uint64_t off : offs) {
    EXPECT_EQ(std::memcmp(sys.main_pool->At(off), sys.backup_pool->At(off), kObjectSize), 0);
  }
}

// Untrusted-backup restart: reconcile_backup re-copies every allocated chunk
// main -> backup behind the dirty-map fence. A deliberately corrupted backup
// must come back mirror-consistent, and ops issued while the sweep runs must
// see fenced (already-clean) ranges only.
TEST(OnlineRecovery, ReconcileHealsCorruptedBackupWhileServing) {
  test::CrashableSystem sys =
      test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20);
  std::vector<uint64_t> offs = AllocPatterned(sys, 8, 'A');

  // The backup is stale/corrupt after e.g. a chain promotion: scribble it.
  for (uint64_t off : offs) {
    void* p = sys.backup_pool->At(off);
    std::memset(p, 'z', kObjectSize);
    sys.backup_pool->Flush(p, kObjectSize);
  }
  sys.backup_pool->Drain();

  CrashMachine(sys);
  sys.options.recovery.online = true;
  sys.options.recovery.reconcile_backup = true;
  sys.options.recovery.reconcile_workers = 2;
  sys.options.recovery.reconcile_chunk_bytes = 1ull << 16;  // Many chunks.
  Reopen(sys);

  // Serve traffic immediately: the fence reconciles this op's range on
  // demand (or waits for a background worker) before the write proceeds.
  ASSERT_TRUE(OverwriteOne(sys, offs[0], 'C').ok());

  sys.mgr->WaitForRecovery();
  sys.mgr->WaitIdle();

  const EngineStats stats = sys.mgr->engine()->stats();
  EXPECT_GT(stats.recovery_dirty_chunks, 0u);
  EXPECT_EQ(stats.recovery_dirty_chunks_left, 0u);
  EXPECT_GT(stats.recovery_reconciled_bytes, 0u);

  EXPECT_TRUE(AllBytesAre(sys.main_pool->At(offs[0]), 'C'));
  for (uint64_t off : offs) {
    EXPECT_EQ(std::memcmp(sys.main_pool->At(off), sys.backup_pool->At(off), kObjectSize), 0)
        << "backup not healed at offset " << off;
  }
}

// Offline reconcile: same healing contract, but the sweep completes before
// Open() returns — no fence waits are ever observable.
TEST(OfflineRecovery, ReconcileHealsCorruptedBackupBeforeOpen) {
  test::CrashableSystem sys =
      test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20);
  std::vector<uint64_t> offs = AllocPatterned(sys, 4, 'A');

  for (uint64_t off : offs) {
    void* p = sys.backup_pool->At(off);
    std::memset(p, 'z', kObjectSize);
    sys.backup_pool->Flush(p, kObjectSize);
  }
  sys.backup_pool->Drain();

  CrashMachine(sys);
  sys.options.recovery.reconcile_backup = true;  // online stays false.
  Reopen(sys);

  const EngineStats stats = sys.mgr->engine()->stats();
  EXPECT_GT(stats.recovery_dirty_chunks, 0u);
  EXPECT_EQ(stats.recovery_dirty_chunks_left, 0u);
  EXPECT_EQ(stats.recovery_fence_waits, 0u);
  for (uint64_t off : offs) {
    EXPECT_EQ(std::memcmp(sys.main_pool->At(off), sys.backup_pool->At(off), kObjectSize), 0);
  }
}

// Parallel replay must preserve exactly-once semantics: many disjoint
// committed-unapplied transactions replayed by four workers land with every
// write intact and the mirror consistent.
TEST(ParallelReplay, FourWorkersReplayDisjointTransactions) {
  test::CrashableSystem sys =
      test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20);
  std::vector<uint64_t> offs = AllocPatterned(sys, 16, 'A');

  static_cast<KaminoEngine*>(sys.mgr->engine())->PauseApplier(true);
  for (uint64_t off : offs) {
    ASSERT_TRUE(OverwriteOne(sys, off, 'B').ok());
  }

  CrashMachine(sys);
  sys.options.recovery.workers = 4;
  Reopen(sys);
  sys.mgr->WaitForRecovery();
  sys.mgr->WaitIdle();

  EXPECT_EQ(sys.mgr->engine()->stats().recovered_forward, 16u);
  for (uint64_t off : offs) {
    EXPECT_TRUE(AllBytesAre(sys.main_pool->At(off), 'B'));
    EXPECT_EQ(std::memcmp(sys.main_pool->At(off), sys.backup_pool->At(off), kObjectSize), 0);
  }
}

// A backlog larger than one apply batch (2 x kMaxApplyBatch + 5) crosses
// batch boundaries in recovery's roll-forward, offline with one and with
// four workers and online through the applier pool. Each way, every object's
// backup matches main, every log slot is free and the cut stamp counts each
// rolled-forward transaction exactly once.
TEST(RecoveryRollForward, BacklogLargerThanOneBatch) {
  constexpr uint64_t kBacklog = 69;
  struct Way {
    const char* name;
    int workers;
    bool online;
  };
  for (const Way& way : {Way{"offline, 1 worker", 1, false}, Way{"offline, 4 workers", 4, false},
                         Way{"online", 1, true}}) {
    SCOPED_TRACE(way.name);
    test::CrashableSystem sys =
        test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20);
    std::vector<uint64_t> offs = AllocPatterned(sys, static_cast<int>(kBacklog), 'A');

    auto* engine = static_cast<KaminoEngine*>(sys.mgr->engine());
    engine->PauseApplier(true);
    for (uint64_t off : offs) {
      ASSERT_TRUE(OverwriteOne(sys, off, 'B').ok());
    }
    const uint64_t stamp = engine->stats().backup_epoch;

    CrashMachine(sys);
    sys.options.recovery.workers = way.workers;
    sys.options.recovery.online = way.online;
    Reopen(sys);
    sys.mgr->WaitForRecovery();
    sys.mgr->WaitIdle();

    const EngineStats stats = sys.mgr->engine()->stats();
    EXPECT_EQ(stats.recovered_forward, kBacklog);
    EXPECT_EQ(stats.backup_epoch, stamp + kBacklog);
    EXPECT_TRUE(sys.mgr->log()->ScanForRecovery().empty());
    for (uint64_t off : offs) {
      EXPECT_TRUE(AllBytesAre(sys.main_pool->At(off), 'B'));
      EXPECT_EQ(std::memcmp(sys.main_pool->At(off), sys.backup_pool->At(off), kObjectSize), 0);
    }
  }
}

}  // namespace
}  // namespace kamino::txn
