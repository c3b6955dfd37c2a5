// The kv::Store conformance suite (src/kv/store.h): every front-end — a
// KvStore over each engine, a 4-shard ShardedStore, and a Kamino-Tx-Chain
// and a traditional chain each tolerating one failure — runs the same cases
// against the same contract. KvStore's crash reopen keeps its own test
// below.

#include "src/kv/kv_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <type_traits>

#include "src/chain/chain.h"
#include "src/common/random.h"
#include "src/kv/store.h"
#include "src/shard/sharded_store.h"
#include "tests/test_util.h"

namespace kamino::kv {
namespace {

using test::CrashableSystem;

// The front-ends under test. A single-node KvStore entry carries its
// engine's txn::EngineType value (so its tests keep the names and params
// they had before the other front-ends joined the suite).
enum class Frontend : std::underlying_type_t<txn::EngineType> {
  kKaminoSimple = static_cast<int>(txn::EngineType::kKaminoSimple),
  kKaminoDynamic = static_cast<int>(txn::EngineType::kKaminoDynamic),
  kUndoLog = static_cast<int>(txn::EngineType::kUndoLog),
  kCow = static_cast<int>(txn::EngineType::kCow),
  kNoLogging = static_cast<int>(txn::EngineType::kNoLogging),
  kSharded4 = 100,
  kKaminoChain,
  kTraditionalChain,
};

using Rows = std::vector<std::pair<uint64_t, std::string>>;

class KvStoreTest : public ::testing::TestWithParam<Frontend> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Frontend::kSharded4: {
        shard::ShardedStoreOptions sopts;
        sopts.num_shards = 4;
        sopts.pool_size = 32ull << 20;
        sopts.log_region_size = 4ull << 20;
        sopts.lock.timeout_ms = 2000;
        sharded_ = std::move(shard::ShardedStore::Create(sopts).value());
        store_ = sharded_.get();
        break;
      }
      case Frontend::kKaminoChain:
      case Frontend::kTraditionalChain: {
        chain::ChainOptions copts;
        copts.kamino = GetParam() == Frontend::kKaminoChain;
        copts.f = 1;
        copts.pool_size = 32ull << 20;
        copts.log_region_size = 4ull << 20;
        copts.one_way_latency_us = 5;
        chain_ = std::move(chain::Chain::Create(copts).value());
        store_ = chain_.get();
        break;
      }
      default:
        sys_ = CrashableSystem::Create(static_cast<txn::EngineType>(GetParam()));
        kv_ = std::move(KvStore::Create(sys_.mgr.get()).value());
        store_ = kv_.get();
        break;
    }
  }

  static std::string Value(uint64_t key, int version = 0) {
    std::string v = "record-" + std::to_string(key) + "-v" + std::to_string(version);
    v.resize(128, '.');
    return v;
  }

  // Waits until every acknowledged write is applied everywhere it goes
  // (appliers idle; chain replicas drained).
  void Settle() {
    if (sharded_ != nullptr) {
      sharded_->WaitIdle();
    } else if (chain_ != nullptr) {
      ASSERT_TRUE(chain_->Quiesce().ok());
    } else {
      sys_.mgr->WaitIdle();
    }
  }

  // Structural check of every tree behind the front-end.
  void ExpectValid() {
    if (sharded_ != nullptr) {
      for (int s = 0; s < sharded_->num_shards(); ++s) {
        EXPECT_TRUE(sharded_->shard_store(static_cast<size_t>(s))->tree()->Validate().ok())
            << "shard " << s;
      }
    } else if (chain_ != nullptr) {
      for (uint64_t id : chain_->current_view().nodes) {
        EXPECT_TRUE(chain_->replica_by_id(id)->tree()->Validate().ok()) << "replica " << id;
      }
    } else {
      EXPECT_TRUE(kv_->tree()->Validate().ok());
    }
  }

  // Scan is off the kv::Store interface: the chain has none.
  Result<Rows> Scan(uint64_t start, size_t limit) {
    if (sharded_ != nullptr) {
      return sharded_->Scan(start, limit);
    }
    if (kv_ != nullptr) {
      return kv_->Scan(start, limit);
    }
    return Status::NotSupported("front-end has no scan");
  }

  CrashableSystem sys_;
  std::unique_ptr<KvStore> kv_;
  std::unique_ptr<shard::ShardedStore> sharded_;
  std::unique_ptr<chain::Chain> chain_;
  Store* store_ = nullptr;
};

TEST_P(KvStoreTest, BasicCrud) {
  EXPECT_EQ(store_->Read(1).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store_->Upsert(1, Value(1)).ok());
  EXPECT_EQ(store_->Read(1).value(), Value(1));
  ASSERT_TRUE(store_->Update(1, Value(1, 2)).ok());
  EXPECT_EQ(store_->Read(1).value(), Value(1, 2));
  ASSERT_TRUE(store_->Upsert(1, Value(1, 3)).ok());  // Upsert overwrites too.
  EXPECT_EQ(store_->Read(1).value(), Value(1, 3));
  const std::string grown(4096, 'g');  // Outgrows the value's blob.
  ASSERT_TRUE(store_->Update(1, grown).ok());
  EXPECT_EQ(store_->Read(1).value(), grown);
  ASSERT_TRUE(store_->Delete(1).ok());
  EXPECT_EQ(store_->Read(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->Delete(1).code(), StatusCode::kNotFound);
}

TEST_P(KvStoreTest, UpdateMissingKeyFails) {
  EXPECT_EQ(store_->Update(404, "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->Read(404).status().code(), StatusCode::kNotFound);
}

TEST_P(KvStoreTest, ReadModifyWrite) {
  ASSERT_TRUE(store_->Upsert(5, Value(5)).ok());
  ASSERT_TRUE(store_->ReadModifyWrite(5, [](std::string& v) { v[0] = 'R'; }).ok());
  const std::string got = store_->Read(5).value();
  EXPECT_EQ(got[0], 'R');
  EXPECT_EQ(got.substr(1), Value(5).substr(1));
  EXPECT_EQ(store_->ReadModifyWrite(404, [](std::string& v) { v = "x"; }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store_->Read(404).status().code(), StatusCode::kNotFound);
}

TEST_P(KvStoreTest, ScanRange) {
  if (chain_ != nullptr) {
    GTEST_SKIP() << "Chain has no Scan";
  }
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(store_->Upsert(k, Value(k)).ok());
  }
  Rows rows = Scan(50, 10).value();
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().first, 50u);
  EXPECT_EQ(rows.back().first, 59u);
}

TEST_P(KvStoreTest, BulkLoadAndVerify) {
  constexpr uint64_t kN = 3000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(store_->Upsert(k, Value(k)).ok()) << k;
  }
  Settle();
  ExpectValid();
  for (uint64_t k = 0; k < kN; k += 131) {
    EXPECT_EQ(store_->Read(k).value(), Value(k));
  }
}

TEST_P(KvStoreTest, MixedConcurrentWorkload) {
  constexpr uint64_t kKeys = 1000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(store_->Upsert(k, Value(k)).ok());
  }
  Settle();
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      kamino::Xoshiro256 rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        const uint64_t key = rng.NextBounded(kKeys);
        if (rng.NextDouble() < 0.5) {
          if (!store_->Read(key).ok()) {
            ++failures;
          }
        } else {
          if (!store_->Update(key, Value(key, i)).ok()) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  Settle();
  EXPECT_EQ(failures, 0);
  ExpectValid();
}

// All or nothing: one missing key fails the whole MultiUpdate with
// kNotFound and leaves every other key as it was.
TEST_P(KvStoreTest, MultiUpdateWithMissingKeyChangesNothing) {
  for (uint64_t k = 1; k <= 3; ++k) {
    ASSERT_TRUE(store_->Upsert(k, Value(k)).ok());
  }
  EXPECT_EQ(store_->MultiUpdate({{1, Value(1, 1)}, {2, Value(2, 1)}, {999, Value(999, 1)},
                                 {3, Value(3, 1)}})
                .code(),
            StatusCode::kNotFound);
  // NoLogging keeps no undo copy (it measures what atomicity costs): its
  // abort leaves the in-place edits, so only the outcome is checked there.
  if (GetParam() != Frontend::kNoLogging) {
    for (uint64_t k = 1; k <= 3; ++k) {
      EXPECT_EQ(store_->Read(k).value(), Value(k)) << k;
    }
  }
  EXPECT_EQ(store_->Read(999).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(store_->MultiUpdate({{1, Value(1, 2)}, {2, Value(2, 2)}, {3, Value(3, 2)}}).ok());
  for (uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(store_->Read(k).value(), Value(k, 2)) << k;
  }
  Settle();
  ExpectValid();
}

// ReadModifyWrite is atomic: concurrent increments of one counter never
// lose an update (a Read followed by a separate Upsert would).
TEST_P(KvStoreTest, ConcurrentReadModifyWriteIsAtomic) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  const auto counter = [](int n) {
    const std::string digits = std::to_string(n);
    return std::string(8 - digits.size(), '0') + digits;
  };
  ASSERT_TRUE(store_->Upsert(7, counter(0)).ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Status st = store_->ReadModifyWrite(
            7, [&](std::string& v) { v = counter(std::stoi(v) + 1); });
        if (!st.ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures, 0);
  Settle();
  EXPECT_EQ(store_->Read(7).value(), counter(kThreads * kPerThread));
}

std::string FrontendName(const ::testing::TestParamInfo<Frontend>& info) {
  switch (info.param) {
    case Frontend::kKaminoSimple:
      return "KaminoSimple";
    case Frontend::kKaminoDynamic:
      return "KaminoDynamic";
    case Frontend::kUndoLog:
      return "UndoLog";
    case Frontend::kCow:
      return "Cow";
    case Frontend::kNoLogging:
      return "NoLogging";
    case Frontend::kSharded4:
      return "Sharded4";
    case Frontend::kKaminoChain:
      return "KaminoChain";
    case Frontend::kTraditionalChain:
      return "TraditionalChain";
  }
  return "Unknown";
}

// A point read takes exactly one object lock, its value blob's read lock:
// the tree latch keeps node writers out, so leaves need none (DESIGN.md
// §12.1). An in-place update takes its blob's write lock and no read lock.
TEST_P(KvStoreTest, PointOpsTakeOneObjectLock) {
  std::vector<txn::TxManager*> mgrs;
  if (sharded_ != nullptr) {
    for (int s = 0; s < sharded_->num_shards(); ++s) {
      mgrs.push_back(sharded_->shard_manager(static_cast<size_t>(s)));
    }
  } else if (kv_ != nullptr) {
    mgrs.push_back(sys_.mgr.get());
  } else {
    GTEST_SKIP() << "chain replicas lock on their own threads";
  }
  auto totals = [&] {
    txn::LockStats sum;
    for (txn::TxManager* m : mgrs) {
      const txn::LockStats s = m->locks()->stats();
      sum.read_acquires += s.read_acquires;
      sum.write_acquires += s.write_acquires;
    }
    return sum;
  };
  ASSERT_TRUE(store_->Upsert(7, Value(7)).ok());
  Settle();
  const txn::LockStats before = totals();
  ASSERT_TRUE(store_->Read(7).ok());
  const txn::LockStats read = totals();
  EXPECT_EQ(read.read_acquires - before.read_acquires, 1u);
  EXPECT_EQ(read.write_acquires - before.write_acquires, 0u);
  ASSERT_TRUE(store_->Update(7, Value(7, 1)).ok());
  const txn::LockStats updated = totals();
  EXPECT_EQ(updated.read_acquires - read.read_acquires, 0u);
  EXPECT_EQ(updated.write_acquires - read.write_acquires, 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, KvStoreTest,
                         ::testing::Values(Frontend::kKaminoSimple, Frontend::kKaminoDynamic,
                                           Frontend::kUndoLog, Frontend::kCow,
                                           Frontend::kNoLogging),
                         FrontendName);
INSTANTIATE_TEST_SUITE_P(Frontends, KvStoreTest,
                         ::testing::Values(Frontend::kSharded4, Frontend::kKaminoChain,
                                           Frontend::kTraditionalChain),
                         FrontendName);

// Full-stack crash: the store reopens from the heap root and recovers.
TEST(KvStoreCrashTest, StoreReopensAfterCrash) {
  for (txn::EngineType engine :
       {txn::EngineType::kKaminoSimple, txn::EngineType::kKaminoDynamic,
        txn::EngineType::kUndoLog, txn::EngineType::kCow}) {
    CrashableSystem sys = CrashableSystem::Create(engine, 128ull << 20);
    {
      auto store = KvStore::Create(sys.mgr.get()).value();
      for (uint64_t k = 0; k < 500; ++k) {
        ASSERT_TRUE(store->Insert(k, "value-" + std::to_string(k)).ok());
      }
      sys.mgr->WaitIdle();
    }
    sys.CrashAndRecover();
    auto store = KvStore::Open(sys.mgr.get()).value();
    ASSERT_TRUE(store->tree()->Validate().ok()) << txn::EngineTypeName(engine);
    EXPECT_EQ(store->tree()->CountSlow(), 500u);
    EXPECT_EQ(store->Read(123).value(), "value-123");
    // Usable post-recovery.
    ASSERT_TRUE(store->Insert(9999, "post-crash").ok());
    EXPECT_EQ(store->Read(9999).value(), "post-crash");
  }
}

}  // namespace
}  // namespace kamino::kv
