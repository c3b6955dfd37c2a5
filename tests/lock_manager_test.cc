#include "src/txn/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/random.h"

namespace kamino::txn {
namespace {

LockOptions ShortTimeout() {
  LockOptions o;
  o.timeout_ms = 100;
  return o;
}

TEST(LockManagerTest, WriteLockBasic) {
  LockManager lm;
  EXPECT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.IsWriteLocked(100));
  lm.ReleaseWrite(100, 1);
  EXPECT_FALSE(lm.IsWriteLocked(100));
}

TEST(LockManagerTest, WriteIsReentrantForSameTx) {
  LockManager lm;
  EXPECT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.ReleaseWrite(100, 1);
  EXPECT_FALSE(lm.IsWriteLocked(100));
}

TEST(LockManagerTest, WriteExcludesWrite) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_EQ(lm.AcquireWrite(100, 2).code(), StatusCode::kTxConflict);
  lm.ReleaseWrite(100, 1);
  EXPECT_TRUE(lm.AcquireWrite(100, 2).ok());
  lm.ReleaseWrite(100, 2);
}

TEST(LockManagerTest, WriteExcludesRead) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_EQ(lm.AcquireRead(100, 2).code(), StatusCode::kTxConflict);
  lm.ReleaseWrite(100, 1);
}

TEST(LockManagerTest, ReadersShare) {
  LockManager lm(ShortTimeout());
  EXPECT_TRUE(lm.AcquireRead(100, 1).ok());
  EXPECT_TRUE(lm.AcquireRead(100, 2).ok());
  EXPECT_TRUE(lm.AcquireRead(100, 3).ok());
  EXPECT_EQ(lm.AcquireWrite(100, 4).code(), StatusCode::kTxConflict);
  lm.ReleaseRead(100, 1);
  lm.ReleaseRead(100, 2);
  lm.ReleaseRead(100, 3);
  EXPECT_TRUE(lm.AcquireWrite(100, 4).ok());
  lm.ReleaseWrite(100, 4);
}

TEST(LockManagerTest, WriterCanReadOwnLock) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.AcquireRead(100, 1).ok());
  // The read was a no-op: releasing write fully frees the key.
  lm.ReleaseWrite(100, 1);
  EXPECT_TRUE(lm.AcquireWrite(100, 2).ok());
  lm.ReleaseWrite(100, 2);
}

TEST(LockManagerTest, DistinctKeysIndependent) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  EXPECT_TRUE(lm.AcquireWrite(200, 2).ok());
  lm.ReleaseWrite(100, 1);
  lm.ReleaseWrite(200, 2);
}

TEST(LockManagerTest, BlockedWriterWakesOnRelease) {
  LockManager lm;  // Default (long) timeout.
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.AcquireWrite(100, 2).ok());
    got = true;
    lm.ReleaseWrite(100, 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got);
  lm.ReleaseWrite(100, 1);
  waiter.join();
  EXPECT_TRUE(got);
}

TEST(LockManagerTest, DoubleReleaseTolerated) {
  LockManager lm;
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.ReleaseWrite(100, 1);
  lm.ReleaseWrite(100, 1);  // No-op.
  lm.ReleaseRead(100, 1);   // No-op.
  lm.ReleaseWrite(999, 5);  // Unknown key: no-op.
}

TEST(LockManagerTest, ReleaseByWrongTxidIgnored) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.ReleaseWrite(100, 2);  // Wrong owner.
  EXPECT_TRUE(lm.IsWriteLocked(100));
  lm.ReleaseWrite(100, 1);
}

TEST(LockManagerTest, StatsCountBlockedAcquires) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  (void)lm.AcquireWrite(100, 2);  // Times out.
  LockStats s = lm.stats();
  EXPECT_EQ(s.write_acquires, 2u);
  EXPECT_EQ(s.blocked_acquires, 1u);
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_GT(s.total_block_ns, 0u);
  EXPECT_EQ(s.read_blocked_acquires, 0u);
  EXPECT_EQ(s.read_block_ns, 0u);
  (void)lm.AcquireRead(100, 3);  // Times out too.
  s = lm.stats();
  EXPECT_EQ(s.blocked_acquires, 2u);
  EXPECT_EQ(s.read_blocked_acquires, 1u);
  EXPECT_GT(s.read_block_ns, 0u);
  EXPECT_LT(s.read_block_ns, s.total_block_ns);
  lm.ReleaseWrite(100, 1);
}

// A committed writer's entry lets readers through (reporting the writer they
// passed) but still excludes other writers until the writer releases.
TEST(LockManagerTest, ReadersPassCommittedWriterWritersDoNot) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  uint64_t passed = 99;
  EXPECT_EQ(lm.AcquireRead(100, 2, &passed).code(), StatusCode::kTxConflict)
      << "a running writer let a reader through";
  EXPECT_EQ(passed, 0u);
  lm.MarkCommitted(100, 7);  // Not the holder: no effect.
  EXPECT_EQ(lm.AcquireRead(100, 2, &passed).code(), StatusCode::kTxConflict);

  lm.MarkCommitted(100, 1);
  ASSERT_TRUE(lm.AcquireRead(100, 2, &passed).ok());
  EXPECT_EQ(passed, 1u);
  ASSERT_TRUE(lm.AcquireRead(100, 3).ok());  // No out-parameter needed.
  EXPECT_EQ(lm.AcquireWrite(100, 4).code(), StatusCode::kTxConflict)
      << "a writer passed a committed writer";
  EXPECT_TRUE(lm.IsWriteLocked(100));
  EXPECT_EQ(lm.stats().read_blocked_acquires, 2u);  // Only the two timeouts.

  lm.MarkCommitted(200, 1);  // Unheld key: no-op, no entry left behind.
  EXPECT_EQ(lm.LiveEntriesForTest(), 1u);
  lm.ReleaseWrite(100, 1);
  EXPECT_FALSE(lm.IsWriteLocked(100));
  // The passed readers still hold their read locks.
  EXPECT_EQ(lm.AcquireWrite(100, 4).code(), StatusCode::kTxConflict);
  lm.ReleaseRead(100, 2);
  lm.ReleaseRead(100, 3);
  EXPECT_TRUE(lm.AcquireWrite(100, 4).ok());
  lm.ReleaseWrite(100, 4);
  EXPECT_EQ(lm.LiveEntriesForTest(), 0u);
}

// ReleaseWrite clears the mark: the key's next writer blocks readers again
// until its own commit.
TEST(LockManagerTest, ReleaseWriteClearsCommittedMark) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.MarkCommitted(100, 1);
  lm.ReleaseWrite(100, 1);
  ASSERT_TRUE(lm.AcquireWrite(100, 2).ok());
  uint64_t passed = 99;
  EXPECT_EQ(lm.AcquireRead(100, 3, &passed).code(), StatusCode::kTxConflict);
  EXPECT_EQ(passed, 0u);
  lm.MarkCommitted(100, 2);
  ASSERT_TRUE(lm.AcquireRead(100, 3, &passed).ok());
  EXPECT_EQ(passed, 2u);
  lm.ReleaseRead(100, 3);
  lm.ReleaseWrite(100, 2);
  EXPECT_EQ(lm.LiveEntriesForTest(), 0u);
}

// A reader blocked on a running writer is woken by the writer's commit mark
// and passes it; WaitReleased then blocks until the writer releases.
TEST(LockManagerTest, CommitMarkWakesBlockedReaderAndWaitReleasedSeesRelease) {
  LockManager lm;  // Default (long) timeout.
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  std::atomic<uint64_t> passed{99};
  std::thread reader([&] {
    uint64_t p = 0;
    EXPECT_TRUE(lm.AcquireRead(100, 2, &p).ok());
    passed = p;
  });
  while (lm.stats().read_blocked_acquires == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(passed.load(), 99u);
  lm.MarkCommitted(100, 1);
  reader.join();
  EXPECT_EQ(passed.load(), 1u);

  EXPECT_TRUE(lm.WaitReleased(100, 5).ok()) << "not the holder: nothing to wait for";
  EXPECT_TRUE(lm.WaitReleased(300, 1).ok()) << "unheld key: nothing to wait for";
  LockStats s = lm.stats();
  EXPECT_EQ(s.blocked_acquires, 1u) << "a wait that does not block is not counted";
  EXPECT_EQ(s.read_blocked_acquires, 1u);
  const uint64_t read_block_ns = s.read_block_ns;
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.WaitReleased(100, 1).ok());
    released = true;
  });
  // The commit-time wait counts as a read-mode blocked wait.
  while (lm.stats().read_blocked_acquires < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(released);
  lm.ReleaseWrite(100, 1);
  waiter.join();
  EXPECT_TRUE(released);
  s = lm.stats();
  EXPECT_EQ(s.blocked_acquires, 2u);
  EXPECT_EQ(s.read_blocked_acquires, 2u);
  EXPECT_GE(s.read_block_ns - read_block_ns, 30'000'000u);
  EXPECT_GE(s.total_block_ns, s.read_block_ns);
  EXPECT_EQ(s.timeouts, 0u);
  lm.ReleaseRead(100, 2);
  EXPECT_EQ(lm.LiveEntriesForTest(), 0u);
}

TEST(LockManagerTest, WaitReleasedTimesOut) {
  LockManager lm(ShortTimeout());
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.MarkCommitted(100, 1);
  EXPECT_EQ(lm.WaitReleased(100, 1).code(), StatusCode::kTxConflict);
  const LockStats s = lm.stats();
  EXPECT_EQ(s.blocked_acquires, 1u);
  EXPECT_EQ(s.read_blocked_acquires, 1u);
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_GT(s.read_block_ns, 0u);
  lm.ReleaseWrite(100, 1);
  EXPECT_EQ(lm.LiveEntriesForTest(), 0u);
}

// A reader that passes a committed entry runs the contention hook exactly
// once, told not to wait; a blocked acquirer runs it as a waiter.
TEST(LockManagerTest, PassingReaderRunsHookOnceWithoutWaiting) {
  LockManager lm(ShortTimeout());
  std::atomic<int> passes{0};
  std::atomic<int> waits{0};
  lm.SetContentionHook([&](bool waiting) {
    (waiting ? waits : passes).fetch_add(1);
    return false;
  });
  ASSERT_TRUE(lm.AcquireWrite(100, 1).ok());
  lm.MarkCommitted(100, 1);
  ASSERT_TRUE(lm.AcquireRead(100, 2).ok());
  EXPECT_EQ(passes.load(), 1);
  EXPECT_EQ(waits.load(), 0);
  ASSERT_TRUE(lm.AcquireRead(200, 2).ok());  // Free key: no hook.
  EXPECT_EQ(passes.load(), 1);
  EXPECT_EQ(lm.AcquireWrite(100, 3).code(), StatusCode::kTxConflict);
  EXPECT_EQ(passes.load(), 1);
  EXPECT_GE(waits.load(), 1);
  lm.SetContentionHook(nullptr);
  lm.ReleaseRead(100, 2);
  lm.ReleaseRead(200, 2);
  lm.ReleaseWrite(100, 1);
}

TEST(LockManagerTest, ManyThreadsSameKeySerialize) {
  LockManager lm;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const uint64_t txid = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i) + 1;
        ASSERT_TRUE(lm.AcquireWrite(42, txid).ok());
        ++counter;  // Protected by the lock under test.
        lm.ReleaseWrite(42, txid);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, 1600);
}

TEST(LockManagerTest, AcquireCountsExactAcrossThreads) {
  LockManager lm;
  constexpr int kThreads = 4;
  constexpr uint64_t kPairs = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lm, t] {
      const uint64_t txid = static_cast<uint64_t>(t) + 1;
      for (uint64_t i = 0; i < kPairs; ++i) {
        const uint64_t key = (static_cast<uint64_t>(t) << 32) + (i % 64) * 64;
        ASSERT_TRUE(lm.AcquireWrite(key, txid).ok());
        lm.ReleaseWrite(key, txid);
        ASSERT_TRUE(lm.AcquireRead(key, txid).ok());
        lm.ReleaseRead(key, txid);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const LockStats s = lm.stats();
  EXPECT_EQ(s.write_acquires, kThreads * kPairs);
  EXPECT_EQ(s.read_acquires, kThreads * kPairs);
  EXPECT_EQ(s.blocked_acquires, 0u);
  EXPECT_EQ(s.timeouts, 0u);
}

// Lock keys are allocator block offsets: blocks of one power-of-two size
// class, starting 4 KiB into 1 MiB chunks. Both the value-blob (2 KiB) and
// tree-node (512 B) strides must reach most shards.
TEST(LockManagerTest, ShardIndexSpreadsAllocatorStrides) {
  for (uint64_t stride : {512ull, 2048ull}) {
    std::set<size_t> shards;
    const uint64_t per_chunk = ((1ull << 20) - 4096) / stride;
    for (uint64_t i = 0; i < 5000; ++i) {
      const uint64_t chunk = 1 + i / per_chunk;
      const uint64_t key = (chunk << 20) + 4096 + (i % per_chunk) * stride;
      const size_t shard = LockManager::ShardIndex(key);
      ASSERT_LT(shard, LockManager::kNumShards);
      shards.insert(shard);
    }
    EXPECT_GE(shards.size(), 48u) << "stride " << stride;
  }
}

// Keys that all hash to shard 0, so one shard's table must grow.
std::vector<uint64_t> KeysInShardZero(size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t line = 1; keys.size() < n; ++line) {
    if (LockManager::ShardIndex(line * 64) == 0) {
      keys.push_back(line * 64);
    }
  }
  return keys;
}

// Timeout 0: a would-block acquisition fails at once with kTxConflict.
LockOptions NoWait() {
  LockOptions o;
  o.timeout_ms = 0;
  return o;
}

TEST(LockManagerTest, OneShardGrowsPastSeveralDoublings) {
  LockManager lm(NoWait());
  const std::vector<uint64_t> keys = KeysInShardZero(1000);  // 16 slots -> 2048.
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(lm.AcquireWrite(keys[i], i + 1).ok());
  }
  EXPECT_EQ(lm.LiveEntriesForTest(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(lm.IsWriteLocked(keys[i])) << i;
    EXPECT_EQ(lm.AcquireWrite(keys[i], 5000).code(), StatusCode::kTxConflict);
  }
  // Release every other key; the rest must stay findable after the
  // backward shifts.
  for (size_t i = 0; i < keys.size(); i += 2) {
    lm.ReleaseWrite(keys[i], i + 1);
  }
  EXPECT_EQ(lm.LiveEntriesForTest(), keys.size() / 2);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(lm.IsWriteLocked(keys[i]), i % 2 == 1) << i;
  }
  for (size_t i = 1; i < keys.size(); i += 2) {
    lm.ReleaseWrite(keys[i], i + 1);
  }
  EXPECT_EQ(lm.LiveEntriesForTest(), 0u);
}

TEST(LockManagerTest, GrowthWhileWaiterBlocked) {
  LockManager lm;  // Default (long) timeout.
  const std::vector<uint64_t> keys = KeysInShardZero(301);
  const uint64_t contended = keys[0];
  ASSERT_TRUE(lm.AcquireWrite(contended, 1).ok());
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.AcquireWrite(contended, 2).ok());
    got = true;
  });
  while (lm.stats().blocked_acquires == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The waiter is parked on the shard's cv; grow the shard's table under it
  // (several doublings), which moves the waited-on entry.
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_TRUE(lm.AcquireWrite(keys[i], 100 + i).ok());
  }
  EXPECT_FALSE(got);
  lm.ReleaseWrite(contended, 1);
  waiter.join();
  EXPECT_TRUE(got);
  EXPECT_TRUE(lm.IsWriteLocked(contended));
  for (size_t i = 1; i < keys.size(); ++i) {
    lm.ReleaseWrite(keys[i], 100 + i);
  }
  lm.ReleaseWrite(contended, 2);
  EXPECT_EQ(lm.LiveEntriesForTest(), 0u);
}

// A seeded random acquire/release/commit-mark sequence against a reference
// model of the table. With no waiting, the model decides each outcome:
// readers pass a committed writer and report it; writers never do.
TEST(LockManagerTest, RandomSequenceMatchesReferenceModel) {
  LockManager lm(NoWait());
  struct Model {
    uint64_t writer = 0;
    uint32_t readers = 0;
    bool committed = false;
  };
  std::map<uint64_t, Model> model;
  // Half the keys share shard 0 (long probe runs, shifts on erase), half
  // spread over all shards.
  std::vector<uint64_t> keys = KeysInShardZero(40);
  for (uint64_t k = 1; k <= 40; ++k) {
    keys.push_back(k * 2048 + 4096);
  }
  Xoshiro256 rng(42);
  for (int step = 0; step < 20'000; ++step) {
    const uint64_t key = keys[rng.Next() % keys.size()];
    const uint64_t txid = 1 + rng.Next() % 4;
    Model& m = model[key];
    switch (rng.Next() % 5) {
      case 0: {
        const bool ok = m.writer == txid || (m.writer == 0 && m.readers == 0);
        ASSERT_EQ(lm.AcquireWrite(key, txid).ok(), ok) << "step " << step;
        if (ok && m.writer != txid) {
          m.writer = txid;
          m.committed = false;
        }
        break;
      }
      case 1: {
        const bool ok = m.writer == txid || m.writer == 0 || m.committed;
        uint64_t passed = 99;
        ASSERT_EQ(lm.AcquireRead(key, txid, &passed).ok(), ok) << "step " << step;
        const bool passes = ok && m.writer != 0 && m.writer != txid;
        ASSERT_EQ(passed, passes ? m.writer : 0) << "step " << step;
        if (ok && m.writer != txid) {
          ++m.readers;
        }
        break;
      }
      case 2:
        lm.ReleaseWrite(key, txid);
        if (m.writer == txid) {
          m.writer = 0;
          m.committed = false;
        }
        break;
      case 3:
        lm.MarkCommitted(key, txid);
        if (m.writer == txid) {
          m.committed = true;
        }
        break;
      default:
        lm.ReleaseRead(key, txid);
        if (m.writer != txid && m.readers > 0) {
          --m.readers;
        }
        break;
    }
    size_t live = 0;
    for (const auto& [k, v] : model) {
      live += (v.writer != 0 || v.readers != 0) ? 1 : 0;
    }
    ASSERT_EQ(lm.LiveEntriesForTest(), live) << "step " << step;
    ASSERT_EQ(lm.IsWriteLocked(key), m.writer != 0) << "step " << step;
  }
  for (auto& [key, m] : model) {
    if (m.writer != 0) {
      lm.ReleaseWrite(key, m.writer);
    }
    for (; m.readers > 0; --m.readers) {
      lm.ReleaseRead(key, 999);  // Any txid but a writer's releases a read.
    }
  }
  EXPECT_EQ(lm.LiveEntriesForTest(), 0u);
}

}  // namespace
}  // namespace kamino::txn
