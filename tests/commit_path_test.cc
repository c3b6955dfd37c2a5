// Commit critical-path tests (DESIGN.md §8): slot backpressure under
// exhaustion, leader-based group-commit coalescing, and the headline safety
// property — a crash inside a coalesced drain window never loses a commit
// that was acknowledged to a client.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/kv/kv_store.h"
#include "src/nvm/persist_hook.h"
#include "src/txn/log_manager.h"
#include "tests/test_util.h"

namespace kamino::txn {
namespace {

// ---------------------------------------------------------------------------
// Raw LogManager: slot exhaustion.

std::unique_ptr<LogManager> MakeLog(nvm::Pool* pool, uint64_t num_slots) {
  LogOptions lopts;
  lopts.num_slots = num_slots;
  lopts.slot_size = 16 * 1024;
  lopts.max_records = 32;
  return std::move(LogManager::Create(pool, 0, pool->size(), lopts).value());
}

// `drain_latency_ns` > 0 makes every drain an overlappable sleep (a device
// stall, not a busy core), as bench/commit_latency.cc models it.
std::unique_ptr<nvm::Pool> MakePool(uint32_t drain_latency_ns = 0) {
  nvm::PoolOptions popts;
  popts.size = 32ull << 20;
  popts.drain_latency_ns = drain_latency_ns;
  popts.sleep_latency = drain_latency_ns > 0;
  return std::move(nvm::Pool::Create(popts).value());
}

// Far more concurrent transactions than slots: every thread must still make
// progress (acquirers block on the freelists and are woken by releases), and
// every transaction must complete.
TEST(CommitPathTest, SlotExhaustionForwardProgress) {
  auto pool = MakePool();
  auto log = MakeLog(pool.get(), /*num_slots=*/4);

  constexpr int kThreads = 16;
  constexpr int kTxnsPerThread = 50;
  std::atomic<uint64_t> next_txid{1};
  std::atomic<uint64_t> completed{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const uint64_t txid = next_txid.fetch_add(1, std::memory_order_relaxed);
        SlotHandle s = log->AcquireSlot(txid).value();
        ASSERT_TRUE(log->AppendRecord(s, IntentKind::kWrite, 64 * txid, 64).ok());
        log->SetState(s, TxState::kCommitted);
        log->ReleaseSlot(s);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(completed.load(), static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  // Every slot must have been returned: the next four acquisitions cannot block.
  std::vector<SlotHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(log->AcquireSlot(1'000'000 + i).value());
  }
  for (auto& h : handles) {
    log->ReleaseSlot(h);
  }
}

// Deterministic backpressure accounting: with every slot held, one more
// acquirer must take the blocked slow path and have its wait time recorded.
TEST(CommitPathTest, BlockedAcquireIsCounted) {
  auto pool = MakePool();
  auto log = MakeLog(pool.get(), /*num_slots=*/4);

  std::vector<SlotHandle> held;
  for (int i = 0; i < 4; ++i) {
    held.push_back(log->AcquireSlot(1 + i).value());
  }
  EXPECT_EQ(log->stats().blocked_acquires, 0u);

  std::thread blocked([&] {
    SlotHandle s = log->AcquireSlot(99).value();
    log->ReleaseSlot(s);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log->ReleaseSlot(held[0]);
  blocked.join();

  const LogStats stats = log->stats();
  EXPECT_GE(stats.blocked_acquires, 1u);
  EXPECT_GT(stats.blocked_wait_ns, 0u);

  for (size_t i = 1; i < held.size(); ++i) {
    log->ReleaseSlot(held[i]);
  }
}

// ---------------------------------------------------------------------------
// Group commit: coalescing actually happens, and the log is clean afterwards.

TEST(CommitPathTest, GroupCommitCoalescesLeaderDrains) {
  // Sleeping drains: the leader's own drain is the coalescing window, so
  // committers that flush while it is in flight share the next leader's.
  auto pool = MakePool(/*drain_latency_ns=*/50'000);
  auto log = MakeLog(pool.get(), /*num_slots=*/64);

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 50;
  std::atomic<uint64_t> next_txid{1};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const uint64_t txid = next_txid.fetch_add(1, std::memory_order_relaxed);
        SlotHandle s = log->AcquireSlot(txid).value();
        ASSERT_TRUE(log->AppendRecord(s, IntentKind::kWrite, 64 * txid, 64).ok());
        log->SetState(s, TxState::kCommitted);
        log->ReleaseSlot(s);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  const LogStats stats = log->stats();
  // Every commit goes through the group-drain protocol exactly once.
  EXPECT_EQ(stats.group_commit_commits,
            static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  // Coalescing: with 8 threads behind 50us drains, leaders must have drained
  // on behalf of more than one request at least once.
  EXPECT_LT(stats.group_commit_leader_drains, stats.group_commit_commits);
  // Releases were durable: a fresh scan sees no leftover transactions.
  EXPECT_TRUE(log->ScanForRecovery().empty());
}

// ---------------------------------------------------------------------------
// Crash inside the coalesced drain window.

// Freezes durability from persistence event `freeze_at` (1-based) onward —
// the machine "loses power" there while execution continues on cached data.
// At the moment of the first vetoed event it snapshots the acknowledged
// counter for every key, under the same mutex the ack recorder uses, so the
// snapshot is exactly "what clients had been told was durable at the freeze".
class FreezeObserver : public nvm::PersistenceObserver {
 public:
  FreezeObserver(uint64_t freeze_at, std::vector<uint64_t>* acked)
      : freeze_at_(freeze_at), acked_(acked) {}

  bool OnPersistEvent(const nvm::PersistEvent&) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (disarmed_) {
      return true;
    }
    if (++ordinal_ < freeze_at_) {
      return true;
    }
    if (snapshot_.empty()) {
      snapshot_ = *acked_;  // First vetoed event: freeze the acked view.
    }
    return false;
  }

  void RecordAck(uint64_t key, uint64_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    (*acked_)[key] = n;
  }

  void Disarm() {
    std::lock_guard<std::mutex> lk(mu_);
    disarmed_ = true;
  }

  std::vector<uint64_t> snapshot() {
    std::lock_guard<std::mutex> lk(mu_);
    return snapshot_.empty() ? *acked_ : snapshot_;
  }

 private:
  std::mutex mu_;
  uint64_t ordinal_ = 0;
  const uint64_t freeze_at_;
  bool disarmed_ = false;
  std::vector<uint64_t>* acked_;
  std::vector<uint64_t> snapshot_;
};

std::string ValueFor(uint64_t key, uint64_t n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "k%04llu-n%08llu",
                static_cast<unsigned long long>(key), static_cast<unsigned long long>(n));
  return std::string(buf);
}

uint64_t ParseN(const std::string& value) {
  unsigned long long key = 0;
  unsigned long long n = 0;
  if (std::sscanf(value.c_str(), "k%4llu-n%8llu", &key, &n) != 2) {
    return ~0ull;
  }
  return n;
}

// K threads commit concurrently through the coalesced drain path while the
// power fails at an arbitrary persistence event. No commit that was
// acknowledged before the failure may be missing after recovery — even though
// the drain that made it durable was issued by another thread (the group
// leader). Each thread owns its keys and bumps a per-key counter, so the
// recovered counter must be >= the acked one (durability) and at most one
// ahead of it (the single in-flight update whose drain beat the freeze but
// whose ack was not yet recorded).
TEST(CommitPathTest, GroupCommitCrashNeverLosesAckedCommit) {
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread = 8;
  constexpr uint64_t kKeys = kThreads * kKeysPerThread;
  constexpr uint64_t kOpsPerThread = 24;

  for (uint64_t freeze_at : {30ull, 75ull, 150ull, 300ull}) {
    SCOPED_TRACE("freeze_at=" + std::to_string(freeze_at));
    auto sys = test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20,
                                             /*alpha=*/0.25, /*applier_threads=*/2);
    auto store = std::move(kv::KvStore::Create(sys.mgr.get()).value());
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(store->Insert(k, ValueFor(k, 0)).ok());
    }
    sys.mgr->WaitIdle();

    std::vector<uint64_t> acked(kKeys, 0);
    FreezeObserver observer(freeze_at, &acked);
    sys.main_pool->SetPersistenceObserver(&observer);
    if (sys.backup_pool) {
      sys.backup_pool->SetPersistenceObserver(&observer);
    }

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
          const uint64_t key = t * kKeysPerThread + (i % kKeysPerThread);
          const uint64_t n = i / kKeysPerThread + 1;
          ASSERT_TRUE(store->Update(key, ValueFor(key, n)).ok());
          // Update returned: the commit record was durably drained (possibly
          // by a group leader) — this is the client-visible acknowledgement.
          observer.RecordAck(key, n);
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }

    const std::vector<uint64_t> must_survive = observer.snapshot();
    store.reset();
    sys.mgr->WaitIdle();
    observer.Disarm();
    sys.main_pool->SetPersistenceObserver(nullptr);
    if (sys.backup_pool) {
      sys.backup_pool->SetPersistenceObserver(nullptr);
    }
    sys.CrashAndRecover(nvm::CrashMode::kDropUnflushed);

    auto recovered_store = std::move(kv::KvStore::Open(sys.mgr.get()).value());
    for (uint64_t k = 0; k < kKeys; ++k) {
      const std::string value = recovered_store->Read(k).value();
      const uint64_t n = ParseN(value);
      ASSERT_NE(n, ~0ull) << "key " << k << " recovered garbage: " << value;
      // Durability: nothing acknowledged before the freeze may be lost.
      EXPECT_GE(n, must_survive[k]) << "key " << k << " lost an acked commit";
      // Sanity: at most the one in-flight update past the acked counter can
      // have become durable.
      EXPECT_LE(n, must_survive[k] + 1) << "key " << k << " impossible value";
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch/persist-behind commit (LogOptions::epoch_commit): the ack-vs-persist
// window. The acknowledgement point moves from Update's return to
// WaitCommitDurable's return, and the safety contract splits in two: an
// acknowledged commit survives any power failure, and an unacknowledged
// DRAM-committed transaction may roll back wholesale but never half-applies.

LogOptions EpochLog() {
  LogOptions lopts;
  lopts.epoch_commit = true;
  return lopts;
}

// The epoch analogue of GroupCommitCrashNeverLosesAckedCommit, with the
// client running persist-behind: each thread keeps a small window of
// outstanding CommitAcks and only records an ack after WaitCommitDurable —
// the epoch-mode client-visible acknowledgement. Threads cycle through more
// keys than the window holds, so each key has at most one unacked update in
// flight: the recovered counter must be >= the acked one (an acked commit
// survived) and at most one ahead (the unacked in-flight update either
// became durable whole or rolled back whole).
TEST(CommitPathTest, EpochCrashNeverLosesAckedCommit) {
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread = 8;
  constexpr uint64_t kKeys = kThreads * kKeysPerThread;
  constexpr uint64_t kOpsPerThread = 24;
  constexpr size_t kAckWindow = 4;  // < kKeysPerThread: one unacked op per key.

  for (uint64_t freeze_at : {30ull, 75ull, 150ull, 300ull}) {
    SCOPED_TRACE("freeze_at=" + std::to_string(freeze_at));
    auto sys = test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20,
                                             /*alpha=*/0.25, /*applier_threads=*/2,
                                             EpochLog());
    auto store = std::move(kv::KvStore::Create(sys.mgr.get()).value());
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(store->Insert(k, ValueFor(k, 0)).ok());
    }
    sys.mgr->WaitIdle();

    std::vector<uint64_t> acked(kKeys, 0);
    FreezeObserver observer(freeze_at, &acked);
    sys.main_pool->SetPersistenceObserver(&observer);
    if (sys.backup_pool) {
      sys.backup_pool->SetPersistenceObserver(&observer);
    }

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        struct Pending {
          CommitAck ack;
          uint64_t key;
          uint64_t n;
        };
        std::deque<Pending> pending;
        auto settle_oldest = [&] {
          Pending p = pending.front();
          pending.pop_front();
          sys.mgr->WaitCommitDurable(p.ack);
          // Durability fence passed: only now may the client be told.
          observer.RecordAck(p.key, p.n);
        };
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
          const uint64_t key = t * kKeysPerThread + (i % kKeysPerThread);
          const uint64_t n = i / kKeysPerThread + 1;
          CommitAck ack;
          ASSERT_TRUE(store->UpdateAsync(key, ValueFor(key, n), &ack).ok());
          pending.push_back({ack, key, n});
          while (pending.size() > kAckWindow) {
            settle_oldest();
          }
        }
        while (!pending.empty()) {
          settle_oldest();
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }

    const std::vector<uint64_t> must_survive = observer.snapshot();
    store.reset();
    sys.mgr->WaitIdle();
    observer.Disarm();
    sys.main_pool->SetPersistenceObserver(nullptr);
    if (sys.backup_pool) {
      sys.backup_pool->SetPersistenceObserver(nullptr);
    }
    sys.CrashAndRecover(nvm::CrashMode::kDropUnflushed);

    auto recovered_store = std::move(kv::KvStore::Open(sys.mgr.get()).value());
    for (uint64_t k = 0; k < kKeys; ++k) {
      const std::string value = recovered_store->Read(k).value();
      const uint64_t n = ParseN(value);
      ASSERT_NE(n, ~0ull) << "key " << k << " recovered garbage: " << value;
      EXPECT_GE(n, must_survive[k]) << "key " << k << " lost an acked commit";
      EXPECT_LE(n, must_survive[k] + 1) << "key " << k << " impossible value";
    }
  }
}

// The other half of the contract: a DRAM-committed but unacknowledged
// transaction may vanish in a crash — but only wholesale. Power fails while
// the update's epoch is still open, with random cache-line eviction, so the
// main heap can hold any torn mix of old and new lines next to a possibly-
// evicted commit record. Recovery's CRC recomputation must resolve every such
// transaction to exactly the old or exactly the new value; a hybrid is the
// half-apply the checked commit record exists to prevent.
TEST(CommitPathTest, EpochUnackedCommitNeverHalfApplies) {
  constexpr uint64_t kKey = 7;
  const std::string v0 = ValueFor(kKey, 1);

  for (uint64_t freeze_at = 1; freeze_at <= 12; ++freeze_at) {
    SCOPED_TRACE("freeze_at=" + std::to_string(freeze_at));
    auto sys = test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20,
                                             /*alpha=*/0.25, /*applier_threads=*/1,
                                             EpochLog());
    auto store = std::move(kv::KvStore::Create(sys.mgr.get()).value());
    ASSERT_TRUE(store->Insert(kKey, v0).ok());
    sys.mgr->WaitIdle();

    std::vector<uint64_t> acked(1, 0);
    FreezeObserver observer(freeze_at, &acked);
    sys.main_pool->SetPersistenceObserver(&observer);
    if (sys.backup_pool) {
      sys.backup_pool->SetPersistenceObserver(&observer);
    }

    // DRAM-commit only: the ack (WaitCommitDurable) is deliberately never
    // issued, so this update is allowed to roll back after the crash.
    const std::string v1 = ValueFor(kKey, 2);
    CommitAck ack;
    ASSERT_TRUE(store->UpdateAsync(kKey, v1, &ack).ok());

    store.reset();
    sys.mgr->WaitIdle();
    observer.Disarm();
    sys.main_pool->SetPersistenceObserver(nullptr);
    if (sys.backup_pool) {
      sys.backup_pool->SetPersistenceObserver(nullptr);
    }
    sys.CrashAndRecover(nvm::CrashMode::kEvictRandomly);

    auto recovered_store = std::move(kv::KvStore::Open(sys.mgr.get()).value());
    const std::string value = recovered_store->Read(kKey).value();
    EXPECT_TRUE(value == v0 || value == v1)
        << "half-applied value after crash: " << value;
  }
}

// Dependent transactions gate on the epoch ticket: in epoch mode the write
// lock is held past UpdateAsync's return, until the commit's epoch is durable
// and the applier has synced the backup. A dependent reader must therefore
// (a) observe the fully committed value, never the pre-image, and (b) get
// unblocked by driving the epoch drain itself via the lock-contention hook —
// long before the lock timeout — even though this thread never waited on the
// ticket.
TEST(CommitPathTest, DependentReadBlocksOnEpochTicketThenSeesCommit) {
  constexpr uint64_t kKey = 3;
  auto sys = test::CrashableSystem::Create(EngineType::kKaminoSimple, 64ull << 20,
                                           /*alpha=*/0.25, /*applier_threads=*/1,
                                           EpochLog());
  auto store = std::move(kv::KvStore::Create(sys.mgr.get()).value());
  ASSERT_TRUE(store->Insert(kKey, ValueFor(kKey, 1)).ok());
  sys.mgr->WaitIdle();

  const std::string v1 = ValueFor(kKey, 2);
  CommitAck ack;
  ASSERT_TRUE(store->UpdateAsync(kKey, v1, &ack).ok());
  EXPECT_NE(ack.ticket, 0u) << "epoch mode must hand back a durability ticket";

  // The dependent read: blocked on the held write lock while the commit sits
  // in the open epoch. The reader's contention hook pays the drain, the
  // durability callback hands the commit to the applier, the applier releases
  // the lock — all well under the 2s lock timeout.
  const auto start = std::chrono::steady_clock::now();
  const std::string value = store->Read(kKey).value();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(value, v1) << "dependent read saw the pre-image";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1500)
      << "dependent read only unblocked by the lock timeout";

  // The ticket was drained on the reader's behalf: the ack fence is free now.
  sys.mgr->WaitCommitDurable(ack);
}

}  // namespace
}  // namespace kamino::txn
