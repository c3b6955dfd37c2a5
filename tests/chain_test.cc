// Chain replication tests: traditional chain and Kamino-Tx-Chain (paper §5)
// including fail-stop repair, head promotion and quick-reboot recovery. The
// rest of the kv::Store client contract (Update/ReadModifyWrite/MultiUpdate on
// a missing key, atomic RMW) is checked by the conformance suite in
// kv_store_test.cc, which runs both chain schemes.

#include "src/chain/chain.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/common/random.h"
#include "src/pds/bplus_tree.h"

namespace kamino::chain {
namespace {

ChainOptions Opts(bool kamino, int f = 2) {
  ChainOptions o;
  o.kamino = kamino;
  o.f = f;
  o.pool_size = 32ull << 20;
  o.log_region_size = 4ull << 20;
  o.one_way_latency_us = 5;
  o.client_timeout_ms = 5'000;
  return o;
}

// All live replicas must hold identical KV contents (determinism invariant).
void ExpectReplicasConverged(Chain* chain, const std::map<uint64_t, std::string>& expect) {
  ASSERT_TRUE(chain->Quiesce().ok());
  const View v = chain->current_view();
  for (uint64_t id : v.nodes) {
    Replica* r = chain->replica_by_id(id);
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->tree()->Validate().ok()) << "replica " << id;
    EXPECT_EQ(r->tree()->CountSlow(), expect.size()) << "replica " << id;
    for (const auto& [k, val] : expect) {
      Result<std::string> got = r->tree()->Get(k);
      ASSERT_TRUE(got.ok()) << "replica " << id << " key " << k;
      EXPECT_EQ(*got, val) << "replica " << id << " key " << k;
    }
  }
}

// Every live allocation in a replica's heap, as (offset, size) pairs.
std::vector<std::pair<uint64_t, uint64_t>> Allocations(Replica* r) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  r->heap()->allocator()->ForEachAllocation(
      [&](uint64_t off, uint64_t size) { out.emplace_back(off, size); });
  return out;
}

class ChainTest : public ::testing::TestWithParam<bool> {
 protected:
  bool kamino() const { return GetParam(); }
};

TEST_P(ChainTest, GeometryMatchesTable1) {
  auto chain = Chain::Create(Opts(kamino(), /*f=*/2)).value();
  EXPECT_EQ(chain->num_replicas(), kamino() ? 4u : 3u);
}

TEST_P(ChainTest, WriteReadRoundTrip) {
  auto chain = Chain::Create(Opts(kamino())).value();
  ASSERT_TRUE(chain->Upsert(1, "hello").ok());
  EXPECT_EQ(chain->Read(1).value(), "hello");
  EXPECT_EQ(chain->Read(2).status().code(), StatusCode::kNotFound);
}

TEST_P(ChainTest, OverwriteAndDelete) {
  auto chain = Chain::Create(Opts(kamino())).value();
  ASSERT_TRUE(chain->Upsert(1, "v1").ok());
  ASSERT_TRUE(chain->Upsert(1, "v2").ok());
  EXPECT_EQ(chain->Read(1).value(), "v2");
  ASSERT_TRUE(chain->Delete(1).ok());
  EXPECT_EQ(chain->Read(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(chain->Delete(1).code(), StatusCode::kNotFound);
}

TEST_P(ChainTest, MultiUpsertIsAtomicAcrossChain) {
  auto chain = Chain::Create(Opts(kamino())).value();
  ASSERT_TRUE(chain->MultiUpsert({{1, "a"}, {2, "b"}, {3, "c"}}).ok());
  EXPECT_EQ(chain->Read(1).value(), "a");
  EXPECT_EQ(chain->Read(2).value(), "b");
  EXPECT_EQ(chain->Read(3).value(), "c");
}

// A write the head rejects must leave its allocator as it found it: the other
// replicas never see the op, and repair (ForceAllocAt) relies on every replica
// placing each later allocation at the same offset.
TEST_P(ChainTest, RejectedUpdatesLeaveAllocatorsIdentical) {
  auto chain = Chain::Create(Opts(kamino())).value();
  // kMaxKeys keys fill the root leaf, so an insert-path descent splits it first.
  for (uint64_t k = 0; k < pds::BPlusTree::kMaxKeys; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "v").ok());
  }
  EXPECT_EQ(chain->Update(1000, "x").code(), StatusCode::kNotFound);
  // The first pair grows into a new size class before the second is found
  // missing.
  EXPECT_EQ(chain->MultiUpdate({{1, std::string(4096, 'g')}, {1000, "x"}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(chain->Read(1).value(), "v");
  // Later writes claim fresh chunks in two other size classes.
  ASSERT_TRUE(chain->Upsert(2000, std::string(1500, 'a')).ok());
  ASSERT_TRUE(chain->Upsert(2001, std::string(300, 'b')).ok());
  ASSERT_TRUE(chain->Upsert(2002, std::string(4096, 'c')).ok());
  ASSERT_TRUE(chain->Quiesce().ok());

  const View v = chain->current_view();
  Replica* head = chain->replica_by_id(v.head());
  const auto expect = Allocations(head);
  const alloc::AllocatorStats head_stats = head->heap()->allocator()->stats();
  for (uint64_t id : v.nodes) {
    Replica* r = chain->replica_by_id(id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(Allocations(r), expect) << "replica " << id;
    const alloc::AllocatorStats st = r->heap()->allocator()->stats();
    EXPECT_EQ(st.bytes_reserved, head_stats.bytes_reserved) << "replica " << id;
    EXPECT_EQ(st.bytes_allocated, head_stats.bytes_allocated) << "replica " << id;
  }
}

TEST_P(ChainTest, AllReplicasConverge) {
  auto chain = Chain::Create(Opts(kamino())).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 60; ++k) {
    const std::string v = "val-" + std::to_string(k);
    ASSERT_TRUE(chain->Upsert(k, v).ok());
    model[k] = v;
  }
  for (uint64_t k = 0; k < 60; k += 4) {
    ASSERT_TRUE(chain->Delete(k).ok());
    model.erase(k);
  }
  ExpectReplicasConverged(chain.get(), model);
}

TEST_P(ChainTest, ConcurrentClientsPipeline) {
  auto chain = Chain::Create(Opts(kamino())).value();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
        if (!chain->Upsert(key, "v" + std::to_string(key)).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures, 0);
  std::map<uint64_t, std::string> model;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const uint64_t key = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
      model[key] = "v" + std::to_string(key);
    }
  }
  ExpectReplicasConverged(chain.get(), model);
}

TEST_P(ChainTest, DependentWritesSerializeToLastValue) {
  auto chain = Chain::Create(Opts(kamino())).value();
  ASSERT_TRUE(chain->Upsert(7, "init").ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(chain->Upsert(7, "w" + std::to_string(t) + "-" + std::to_string(i)).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(chain->Quiesce().ok());
  // Every replica agrees on whatever the last committed value was.
  const View v = chain->current_view();
  const std::string head_val =
      chain->replica_by_id(v.head())->tree()->Get(7).value();
  for (uint64_t id : v.nodes) {
    EXPECT_EQ(chain->replica_by_id(id)->tree()->Get(7).value(), head_val);
  }
}

TEST_P(ChainTest, StorageFootprint) {
  auto chain = Chain::Create(Opts(kamino(), /*f=*/2)).value();
  const uint64_t pool = (32ull << 20);
  if (kamino()) {
    // f+2 replicas + one full backup at the head (alpha = 1).
    EXPECT_EQ(chain->total_nvm_bytes(), 5 * pool);
  } else {
    // f+1 replicas, no backups.
    EXPECT_EQ(chain->total_nvm_bytes(), 3 * pool);
  }
}

// --- Failure handling ---------------------------------------------------------

TEST_P(ChainTest, TailFailure) {
  auto chain = Chain::Create(Opts(kamino())).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "pre").ok());
    model[k] = "pre";
  }
  ASSERT_TRUE(chain->Quiesce().ok());
  ASSERT_TRUE(chain->KillReplica(chain->current_view().tail()).ok());

  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "post").ok());
    model[k] = "post";
  }
  EXPECT_EQ(chain->Read(5).value(), "post");
  ExpectReplicasConverged(chain.get(), model);
}

TEST_P(ChainTest, MiddleFailure) {
  auto chain = Chain::Create(Opts(kamino())).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "pre").ok());
    model[k] = "pre";
  }
  ASSERT_TRUE(chain->Quiesce().ok());
  const View v = chain->current_view();
  ASSERT_GE(v.nodes.size(), 3u);
  ASSERT_TRUE(chain->KillReplica(v.nodes[1]).ok());

  for (uint64_t k = 10; k < 30; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "post").ok());
    model[k] = "post";
  }
  ExpectReplicasConverged(chain.get(), model);
}

TEST_P(ChainTest, HeadFailurePromotesAndContinues) {
  auto chain = Chain::Create(Opts(kamino())).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "pre").ok());
    model[k] = "pre";
  }
  ASSERT_TRUE(chain->Quiesce().ok());
  const uint64_t old_head = chain->current_view().head();
  ASSERT_TRUE(chain->KillReplica(old_head).ok());
  EXPECT_NE(chain->current_view().head(), old_head);

  // The promoted head accepts writes and serves (chain) reads.
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "post").ok()) << k;
    model[k] = "post";
  }
  EXPECT_EQ(chain->Read(3).value(), "post");
  ExpectReplicasConverged(chain.get(), model);
}

TEST_P(ChainTest, RepairRestoresFullStrength) {
  auto chain = Chain::Create(Opts(kamino())).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "v" + std::to_string(k)).ok());
    model[k] = "v" + std::to_string(k);
  }
  ASSERT_TRUE(chain->Quiesce().ok());
  const size_t full = chain->current_view().nodes.size();
  ASSERT_TRUE(chain->KillReplica(chain->current_view().tail()).ok());
  ASSERT_TRUE(chain->AddReplica().ok());
  EXPECT_EQ(chain->current_view().nodes.size(), full);

  // New tail must already hold the full dataset (state transfer) and keep up.
  for (uint64_t k = 25; k < 35; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "v" + std::to_string(k)).ok());
    model[k] = "v" + std::to_string(k);
  }
  ExpectReplicasConverged(chain.get(), model);
}

TEST_P(ChainTest, QuickRebootIdleReplica) {
  auto chain = Chain::Create(Opts(kamino())).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "v").ok());
    model[k] = "v";
  }
  ASSERT_TRUE(chain->Quiesce().ok());
  const View v = chain->current_view();
  ASSERT_TRUE(chain->RebootReplica(v.nodes[1]).ok());

  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "w").ok());
    model[k] = "w";
  }
  ExpectReplicasConverged(chain.get(), model);
}

TEST_P(ChainTest, QuickRebootMidApplyRollsForward) {
  auto chain = Chain::Create(Opts(kamino())).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "stable").ok());
    model[k] = "stable";
  }
  ASSERT_TRUE(chain->Quiesce().ok());

  // Arm a power failure in the middle of the victim's next apply, then issue
  // a write that trips it. The write stalls in the chain until the victim
  // reboots and rolls the incomplete transaction forward from its
  // predecessor (paper Figure 9).
  const View v = chain->current_view();
  Replica* victim = chain->replica_by_id(v.nodes[1]);
  victim->ArmCrashDuringNextApply();

  std::thread writer([&] {
    ASSERT_TRUE(chain->Upsert(5, "after-crash").ok());
  });
  // Give the op time to reach the victim and kill it.
  for (int i = 0; i < 200 && victim->alive(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(victim->alive()) << "fault never fired";
  ASSERT_TRUE(chain->RebootReplica(victim->node_id()).ok());
  writer.join();
  model[5] = "after-crash";

  EXPECT_EQ(chain->Read(5).value(), "after-crash");
  ExpectReplicasConverged(chain.get(), model);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ChainTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "KaminoChain" : "TraditionalChain";
                         });

// Stale reads are answered by any live replica at its applied watermark:
// after Quiesce every replica holds the committed state, so round-robined
// stale reads return correct values from every chain position.
TEST_P(ChainTest, StaleReadsServedFromEveryReplica) {
  auto chain = Chain::Create(Opts(kamino())).value();
  for (uint64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "sv" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(chain->Quiesce().ok());
  // One round per replica so the round-robin cursor visits every position.
  const size_t n = chain->current_view().nodes.size();
  for (size_t round = 0; round < n; ++round) {
    for (uint64_t k = 0; k < 32; ++k) {
      uint64_t applied = 0;
      Result<std::string> got = chain->ReadStale(k, &applied);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(*got, "sv" + std::to_string(k));
      EXPECT_GT(applied, 0u);  // Every replica has applied the writes.
    }
  }
  uint64_t applied = 0;
  EXPECT_EQ(chain->ReadStale(999, &applied).status().code(),
            StatusCode::kNotFound);
}

// A killed replica is skipped by the stale-read round-robin instead of
// failing the call.
TEST_P(ChainTest, StaleReadsSkipDeadReplicas) {
  auto chain = Chain::Create(Opts(kamino())).value();
  ASSERT_TRUE(chain->Upsert(7, "alive").ok());
  ASSERT_TRUE(chain->Quiesce().ok());
  const View before = chain->current_view();
  ASSERT_TRUE(chain->KillReplica(before.nodes[before.nodes.size() / 2]).ok());
  for (int i = 0; i < 8; ++i) {
    Result<std::string> got = chain->ReadStale(7);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, "alive");
  }
}

// Readers and quiescers racing a mid-flight promotion must get either a
// typed degradation (kUnavailable / kDegraded) or a consistent answer —
// never a torn value, a phantom miss, or a hang. The promotion holds the
// chain's recovery gate exclusively, so racing calls serialize against it;
// this test pins down that the observable outcomes stay within contract.
TEST_P(ChainTest, StaleReadsAndQuiesceRacingPromotionAreNeverTorn) {
  auto chain = Chain::Create(Opts(kamino())).value();
  constexpr uint64_t kKeys = 8;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "a-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(chain->Quiesce().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> unexpected{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> quiesces{0};

  // Every key only ever holds "a-k" or "b-k"; anything else is a torn or
  // phantom read. Errors must be typed degradation, nothing else.
  std::thread reader([&] {
    uint64_t k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t key = k++ % kKeys;
      Result<std::string> got = chain->ReadStale(key);
      reads.fetch_add(1, std::memory_order_relaxed);
      if (got.ok()) {
        if (*got != "a-" + std::to_string(key) && *got != "b-" + std::to_string(key)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (got.status().code() != StatusCode::kUnavailable &&
                 got.status().code() != StatusCode::kDegraded) {
        unexpected.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Quiesce must stay bounded (return a typed answer) even while the repair
  // gate is held; progress of this loop is the hang check.
  std::thread quiescer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Status st = chain->Quiesce(/*timeout_ms=*/300);
      quiesces.fetch_add(1, std::memory_order_relaxed);
      if (!st.ok() && st.code() != StatusCode::kUnavailable) {
        unexpected.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Overlapping writes give the reader a genuine old-vs-new race to observe.
  std::thread writer([&] {
    for (uint64_t k = 0; k < kKeys; ++k) {
      // May time out mid-repair; the read-side check accepts either version.
      (void)chain->Upsert(k, "b-" + std::to_string(k));
    }
  });

  ASSERT_TRUE(chain->KillReplica(chain->current_view().head()).ok());
  writer.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  reader.join();
  quiescer.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(quiesces.load(), 0u);

  // After the dust settles every key reads as one of its two versions, and
  // the chain still quiesces cleanly.
  ASSERT_TRUE(chain->Quiesce().ok());
  for (uint64_t k = 0; k < kKeys; ++k) {
    Result<std::string> got = chain->Read(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_TRUE(*got == "a-" + std::to_string(k) || *got == "b-" + std::to_string(k))
        << "key " << k << " read torn value " << *got;
  }
}

TEST(ChainDynamicHeadTest, DynamicBackupAtHeadWorks) {
  ChainOptions o = Opts(/*kamino=*/true);
  o.head_alpha = 0.3;
  auto chain = Chain::Create(o).value();
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(chain->Upsert(k, "dyn").ok());
    model[k] = "dyn";
  }
  ExpectReplicasConverged(chain.get(), model);
  // Head backup is a fraction of a full pool.
  const uint64_t pool = o.pool_size;
  EXPECT_LT(chain->total_nvm_bytes(), 5 * pool);
  EXPECT_GT(chain->total_nvm_bytes(), 4 * pool);
}

TEST(ChainSingleNodeTest, DegenerateChainWorks) {
  ChainOptions o = Opts(/*kamino=*/true, /*f=*/0);
  o.kamino = false;  // f=0 traditional => 1 replica.
  auto chain = Chain::Create(o).value();
  ASSERT_EQ(chain->num_replicas(), 1u);
  ASSERT_TRUE(chain->Upsert(1, "solo").ok());
  EXPECT_EQ(chain->Read(1).value(), "solo");
}

}  // namespace
}  // namespace kamino::chain
