#include "src/pds/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "tests/test_util.h"

namespace kamino::pds {
namespace {

using test::CrashableSystem;

class BPlusTreeTest : public ::testing::TestWithParam<txn::EngineType> {
 protected:
  void SetUp() override {
    sys_ = CrashableSystem::Create(GetParam(), 256ull << 20);
    tree_ = std::move(BPlusTree::Create(sys_.mgr.get()).value());
  }

  std::string ValueFor(uint64_t key) { return "value-" + std::to_string(key); }

  CrashableSystem sys_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_P(BPlusTreeTest, EmptyTreeBehaves) {
  EXPECT_EQ(tree_->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_->Delete(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_->Update(1, "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_->CountSlow(), 0u);
  EXPECT_TRUE(tree_->Validate().ok());
}

TEST_P(BPlusTreeTest, InsertGetRoundTrip) {
  ASSERT_TRUE(tree_->Insert(42, "hello").ok());
  EXPECT_EQ(tree_->Get(42).value(), "hello");
  EXPECT_EQ(tree_->Insert(42, "again").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(tree_->Validate().ok());
}

TEST_P(BPlusTreeTest, SequentialInsertionsSplit) {
  constexpr uint64_t kN = 2000;  // Forces multiple levels.
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree_->Insert(k, ValueFor(k)).ok()) << k;
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(tree_->CountSlow(), kN);
  ASSERT_TRUE(tree_->Validate().ok());
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(tree_->Get(k).value(), ValueFor(k)) << k;
  }
}

TEST_P(BPlusTreeTest, ReverseInsertions) {
  for (uint64_t k = 1500; k > 0; --k) {
    ASSERT_TRUE(tree_->Insert(k, ValueFor(k)).ok()) << k;
  }
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(tree_->Validate().ok());
  EXPECT_EQ(tree_->CountSlow(), 1500u);
  EXPECT_EQ(tree_->Get(1).value(), ValueFor(1));
  EXPECT_EQ(tree_->Get(1500).value(), ValueFor(1500));
}

TEST_P(BPlusTreeTest, RandomInsertLookupDeleteAgainstModel) {
  std::map<uint64_t, std::string> model;
  Xoshiro256 rng(2024);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t key = rng.NextBounded(500);
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      const std::string v = ValueFor(key) + "-" + std::to_string(op);
      Status st = tree_->Upsert(key, v);
      ASSERT_TRUE(st.ok()) << st;
      model[key] = v;
    } else if (dice < 0.75) {
      Status st = tree_->Delete(key);
      if (model.count(key)) {
        ASSERT_TRUE(st.ok()) << st;
        model.erase(key);
      } else {
        ASSERT_EQ(st.code(), StatusCode::kNotFound);
      }
    } else {
      Result<std::string> v = tree_->Get(key);
      if (model.count(key)) {
        ASSERT_TRUE(v.ok());
        ASSERT_EQ(*v, model[key]);
      } else {
        ASSERT_EQ(v.status().code(), StatusCode::kNotFound);
      }
    }
    if (op % 500 == 0) {
      sys_.mgr->WaitIdle();
      ASSERT_TRUE(tree_->Validate().ok()) << "op " << op;
      ASSERT_EQ(tree_->CountSlow(), model.size());
    }
  }
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(tree_->Validate().ok());
  ASSERT_EQ(tree_->CountSlow(), model.size());
}

TEST_P(BPlusTreeTest, DeleteEverythingCollapsesTree) {
  constexpr uint64_t kN = 1200;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree_->Insert(k, ValueFor(k)).ok());
  }
  // Delete in an interleaved order to exercise borrows and merges.
  for (uint64_t k = 0; k < kN; k += 2) {
    ASSERT_TRUE(tree_->Delete(k).ok()) << k;
  }
  for (uint64_t k = 1; k < kN; k += 2) {
    ASSERT_TRUE(tree_->Delete(k).ok()) << k;
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(tree_->CountSlow(), 0u);
  ASSERT_TRUE(tree_->Validate().ok());
  // The tree remains usable.
  ASSERT_TRUE(tree_->Insert(5, "after").ok());
  EXPECT_EQ(tree_->Get(5).value(), "after");
}

TEST_P(BPlusTreeTest, UpdateInPlace) {
  ASSERT_TRUE(tree_->Insert(7, "original").ok());
  ASSERT_TRUE(tree_->Update(7, "modified").ok());
  EXPECT_EQ(tree_->Get(7).value(), "modified");
  // Same-size update (the YCSB hot path).
  ASSERT_TRUE(tree_->Update(7, "MODIFIED").ok());
  EXPECT_EQ(tree_->Get(7).value(), "MODIFIED");
}

TEST_P(BPlusTreeTest, UpdateGrowsBlobViaReallocPath) {
  ASSERT_TRUE(tree_->Insert(7, "tiny").ok());
  const std::string big(5000, 'x');  // Larger than the original blob class.
  ASSERT_TRUE(tree_->Update(7, big).ok());
  EXPECT_EQ(tree_->Get(7).value(), big);
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(tree_->Validate().ok());
}

TEST_P(BPlusTreeTest, ReadModifyWrite) {
  ASSERT_TRUE(tree_->Insert(1, "count=0").ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(tree_->ReadModifyWrite(1, [&](std::string& v) {
      v = "count=" + std::to_string(i);
    }).ok());
  }
  EXPECT_EQ(tree_->Get(1).value(), "count=5");
}

TEST_P(BPlusTreeTest, ReadModifyWriteGrowPath) {
  ASSERT_TRUE(tree_->Insert(1, "x").ok());
  ASSERT_TRUE(tree_->ReadModifyWrite(1, [](std::string& v) { v.append(4000, 'y'); }).ok());
  EXPECT_EQ(tree_->Get(1).value().size(), 4001u);
  sys_.mgr->WaitIdle();
  ASSERT_TRUE(tree_->Validate().ok());
}

TEST_P(BPlusTreeTest, ScanReturnsSortedRange) {
  for (uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree_->Insert(k * 10, ValueFor(k * 10)).ok());
  }
  auto rows = tree_->Scan(995, 20).value();
  ASSERT_EQ(rows.size(), 20u);
  EXPECT_EQ(rows[0].first, 1000u);
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_LT(rows[i].first, rows[i + 1].first);
  }
  EXPECT_EQ(rows[0].second, ValueFor(1000));
  // Scan past the end truncates.
  auto tail = tree_->Scan(2950, 100).value();
  EXPECT_EQ(tail.size(), 5u);
}

TEST_P(BPlusTreeTest, AbortedInsertLeavesNoTrace) {
  if (GetParam() == txn::EngineType::kNoLogging) {
    GTEST_SKIP() << "no-logging cannot roll back";
  }
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_->Insert(k, ValueFor(k)).ok());
  }
  sys_.mgr->WaitIdle();
  // Run the insert transaction but force an abort after the tree work.
  {
    auto guard = tree_->LockExclusive();
    Status st = sys_.mgr->Run([&](txn::Tx& tx) -> Status {
      KAMINO_RETURN_IF_ERROR(tree_->InsertInTx(tx, 1000, "doomed"));
      return Status::Internal("force abort");
    });
    EXPECT_FALSE(st.ok());
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(tree_->Get(1000).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(tree_->Validate().ok());
  EXPECT_EQ(tree_->CountSlow(), 100u);
}

TEST_P(BPlusTreeTest, MultiOpTransactionIsAtomic) {
  if (GetParam() == txn::EngineType::kNoLogging) {
    GTEST_SKIP() << "no-logging cannot roll back";
  }
  ASSERT_TRUE(tree_->Insert(1, "one").ok());
  ASSERT_TRUE(tree_->Insert(2, "two").ok());
  sys_.mgr->WaitIdle();
  // Transfer-like transaction: delete 1, update 2, insert 3 — aborted.
  {
    auto guard = tree_->LockExclusive();
    Status st = sys_.mgr->Run([&](txn::Tx& tx) -> Status {
      KAMINO_RETURN_IF_ERROR(tree_->DeleteInTx(tx, 1));
      KAMINO_RETURN_IF_ERROR(tree_->UpsertInTx(tx, 2, "two!"));
      KAMINO_RETURN_IF_ERROR(tree_->InsertInTx(tx, 3, "three"));
      return Status::Internal("abort");
    });
    EXPECT_FALSE(st.ok());
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(tree_->Get(1).value(), "one");
  EXPECT_EQ(tree_->Get(2).value(), "two");
  EXPECT_EQ(tree_->Get(3).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(tree_->Validate().ok());

  // Same transaction committed applies all three.
  {
    auto guard = tree_->LockExclusive();
    ASSERT_TRUE(sys_.mgr
                    ->Run([&](txn::Tx& tx) -> Status {
                      KAMINO_RETURN_IF_ERROR(tree_->DeleteInTx(tx, 1));
                      KAMINO_RETURN_IF_ERROR(tree_->UpsertInTx(tx, 2, "two!"));
                      KAMINO_RETURN_IF_ERROR(tree_->InsertInTx(tx, 3, "three"));
                      return Status::Ok();
                    })
                    .ok());
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(tree_->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_->Get(2).value(), "two!");
  EXPECT_EQ(tree_->Get(3).value(), "three");
}

TEST_P(BPlusTreeTest, ConcurrentDisjointWriters) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 400;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * 1'000'000 + i;
        if (!tree_->Insert(key, ValueFor(key)).ok()) {
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
  EXPECT_EQ(tree_->CountSlow(), kThreads * kPerThread);
  ASSERT_TRUE(tree_->Validate().ok());
}

TEST_P(BPlusTreeTest, ConcurrentReadersAndUpdaters) {
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree_->Insert(k, "v-00000").ok());
  }
  sys_.mgr->WaitIdle();
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread updater([&] {
    Xoshiro256 rng(1);
    for (int i = 0; i < 1500; ++i) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "v-%05d", i);
      if (!tree_->Update(rng.NextBounded(500), buf).ok()) {
        ++failures;
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) + 100);
      while (!stop) {
        Result<std::string> v = tree_->Get(rng.NextBounded(500));
        if (!v.ok() || v->size() != 7 || (*v)[0] != 'v') {
          ++failures;
          return;
        }
      }
    });
  }
  updater.join();
  for (auto& th : readers) {
    th.join();
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(failures, 0);
  ASSERT_TRUE(tree_->Validate().ok());
}

// A self-checking value: "<key hex>/<version hex>:" and then one fill byte
// repeated to a length both numbers determine, so a read that mixes two
// values, or lands on a freed or reused blob, fails Whole().
std::string Versioned(uint64_t key, uint64_t version) {
  char head[40];
  const int n = std::snprintf(head, sizeof(head), "%llx/%llx:",
                              static_cast<unsigned long long>(key),
                              static_cast<unsigned long long>(version));
  std::string v(head, static_cast<size_t>(n));
  v.resize(v.size() + 24 + (key * 7 + version * 13) % 200,
           static_cast<char>('a' + (key + version) % 26));
  return v;
}

bool Whole(uint64_t key, const std::string& v) {
  unsigned long long k = 0;
  unsigned long long version = 0;
  return std::sscanf(v.c_str(), "%llx/%llx:", &k, &version) == 2 && k == key &&
         v == Versioned(key, version);
}

// Readers hold only the shared latch and take no leaf locks, which is safe
// because every node writer holds the exclusive latch until its commit is
// durable. Readers Get (and scan) while one writer's Upserts and Deletes
// split and merge leaves, and replace the blobs of keys that stay: every
// read is a whole value or NotFound, never NotFound for a key that stays.
TEST_P(BPlusTreeTest, ReadersSeeWholeValuesWhileLeavesSplitAndMerge) {
  constexpr uint64_t kKeys = 1200;
  constexpr int kRounds = 3;
  auto stays = [](uint64_t key) { return key % 3 == 0; };
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Versioned(k, 0)).ok());
  }
  sys_.mgr->WaitIdle();

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<uint64_t> reads{0};
  std::thread writer([&] {
    Xoshiro256 rng(7);
    uint64_t version = 1;
    auto touch_stayer = [&] {
      const uint64_t k = rng.NextBounded(kKeys / 3) * 3;
      if (!tree_->Upsert(k, Versioned(k, version++)).ok()) {
        ++bad;
      }
    };
    for (int round = 0; round < kRounds; ++round) {
      // Drain two thirds of the keys (leaves merge), then refill (they split).
      for (uint64_t k = 0; k < kKeys; ++k) {
        if (!stays(k)) {
          const Status st = tree_->Delete(k);
          bad += st.ok() || st.code() == StatusCode::kNotFound ? 0 : 1;
        }
        if (k % 8 == 0) {
          touch_stayer();
        }
      }
      for (uint64_t i = 0; i < kKeys; ++i) {
        const uint64_t k = kKeys - 1 - i;
        if (!stays(k) && !tree_->Upsert(k, Versioned(k, version++)).ok()) {
          ++bad;
        }
        if (i % 8 == 0) {
          touch_stayer();
        }
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) + 100);
      while (!stop) {
        const uint64_t k = rng.NextBounded(kKeys);
        if (t == 0 && k % 16 == 0) {
          Result<std::vector<std::pair<uint64_t, std::string>>> rows = tree_->Scan(k, 24);
          bool ok = rows.ok();
          for (size_t i = 0; ok && i < rows->size(); ++i) {
            ok = (i == 0 || (*rows)[i - 1].first < (*rows)[i].first) &&
                 Whole((*rows)[i].first, (*rows)[i].second);
          }
          bad += ok ? 0 : 1;
          continue;
        }
        Result<std::string> v = tree_->Get(k);
        reads.fetch_add(1);
        if (v.ok() ? !Whole(k, *v) : v.status().code() != StatusCode::kNotFound || stays(k)) {
          ++bad;
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) {
    th.join();
  }
  sys_.mgr->WaitIdle();
  EXPECT_EQ(bad.load(), 0) << "of " << reads.load() << " reads";
  EXPECT_GT(reads.load(), 0u);
  ASSERT_TRUE(tree_->Validate().ok());
  EXPECT_EQ(tree_->CountSlow(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    Result<std::string> v = tree_->Get(k);
    ASSERT_TRUE(v.ok() && Whole(k, *v)) << k;
  }
}

TEST_P(BPlusTreeTest, AttachFindsExistingTree) {
  ASSERT_TRUE(tree_->Insert(11, "persist").ok());
  sys_.mgr->WaitIdle();
  auto again = BPlusTree::Attach(sys_.mgr.get(), tree_->anchor()).value();
  EXPECT_EQ(again->Get(11).value(), "persist");
}

INSTANTIATE_TEST_SUITE_P(Engines, BPlusTreeTest,
                         ::testing::Values(txn::EngineType::kKaminoSimple,
                                           txn::EngineType::kKaminoDynamic,
                                           txn::EngineType::kUndoLog, txn::EngineType::kCow,
                                           txn::EngineType::kRedoLog,
                                           txn::EngineType::kNoLogging),
                         [](const ::testing::TestParamInfo<txn::EngineType>& info) {
                           switch (info.param) {
                             case txn::EngineType::kKaminoSimple:
                               return "KaminoSimple";
                             case txn::EngineType::kKaminoDynamic:
                               return "KaminoDynamic";
                             case txn::EngineType::kUndoLog:
                               return "UndoLog";
                             case txn::EngineType::kCow:
                               return "Cow";
                             case txn::EngineType::kRedoLog:
                               return "RedoLog";
                             case txn::EngineType::kNoLogging:
                               return "NoLogging";
                             default:
                               return "Unknown";
                           }
                         });

// Crash recovery through the full stack: KV-style tree over crash-sim pools.
class BPlusTreeCrashTest : public ::testing::TestWithParam<txn::EngineType> {};

TEST_P(BPlusTreeCrashTest, TreeSurvivesMidTransactionCrash) {
  CrashableSystem sys = CrashableSystem::Create(GetParam(), 128ull << 20);
  uint64_t anchor = 0;
  {
    auto tree = BPlusTree::Create(sys.mgr.get()).value();
    anchor = tree->anchor();
    for (uint64_t k = 0; k < 800; ++k) {
      ASSERT_TRUE(tree->Insert(k, "stable-" + std::to_string(k)).ok());
    }
    sys.mgr->WaitIdle();
    // Begin a structural insert and die before committing.
    Result<txn::Tx> tx = sys.mgr->Begin();
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(tree->InsertInTx(*tx, 5000, "doomed").ok());
    tx->LeakForCrashTest();
  }
  sys.CrashAndRecover();
  auto tree = BPlusTree::Attach(sys.mgr.get(), anchor).value();
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_EQ(tree->CountSlow(), 800u);
  EXPECT_EQ(tree->Get(5000).status().code(), StatusCode::kNotFound);
  for (uint64_t k = 0; k < 800; k += 97) {
    EXPECT_EQ(tree->Get(k).value(), "stable-" + std::to_string(k));
  }
  // Still writable.
  EXPECT_TRUE(tree->Insert(5000, "alive").ok());
  EXPECT_EQ(tree->Get(5000).value(), "alive");
}

TEST_P(BPlusTreeCrashTest, RandomCrashSweepKeepsInvariants) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CrashableSystem sys = CrashableSystem::Create(GetParam(), 128ull << 20);
    uint64_t anchor = 0;
    {
      auto tree = BPlusTree::Create(sys.mgr.get()).value();
      anchor = tree->anchor();
      for (uint64_t k = 0; k < 300; ++k) {
        ASSERT_TRUE(tree->Insert(k * 3, std::to_string(k)).ok());
      }
      sys.mgr->WaitIdle();
      Result<txn::Tx> tx = sys.mgr->Begin();
      ASSERT_TRUE(tx.ok());
      // A delete (merge-heavy) left incomplete.
      ASSERT_TRUE(tree->DeleteInTx(*tx, 150).ok());
      ASSERT_TRUE(tree->DeleteInTx(*tx, 153).ok());
      tx->LeakForCrashTest();
    }
    sys.CrashAndRecover(nvm::CrashMode::kEvictRandomly, seed * 31);
    auto tree = BPlusTree::Attach(sys.mgr.get(), anchor).value();
    ASSERT_TRUE(tree->Validate().ok()) << "seed " << seed;
    EXPECT_EQ(tree->CountSlow(), 300u);
    EXPECT_TRUE(tree->Get(150).ok());
    EXPECT_TRUE(tree->Get(153).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, BPlusTreeCrashTest,
                         ::testing::Values(txn::EngineType::kKaminoSimple,
                                           txn::EngineType::kKaminoDynamic,
                                           txn::EngineType::kUndoLog, txn::EngineType::kCow,
                                           txn::EngineType::kRedoLog),
                         [](const ::testing::TestParamInfo<txn::EngineType>& info) {
                           switch (info.param) {
                             case txn::EngineType::kKaminoSimple:
                               return "KaminoSimple";
                             case txn::EngineType::kKaminoDynamic:
                               return "KaminoDynamic";
                             case txn::EngineType::kUndoLog:
                               return "UndoLog";
                             case txn::EngineType::kCow:
                               return "Cow";
                             case txn::EngineType::kRedoLog:
                               return "RedoLog";
                             default:
                               return "Unknown";
                           }
                         });

}  // namespace
}  // namespace kamino::pds
