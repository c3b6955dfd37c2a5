#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "src/stats/cost_model.h"
#include "src/stats/histogram.h"
#include "src/workload/tpcc_lite.h"
#include "src/workload/ycsb.h"
#include "src/workload/zipfian.h"
#include "tests/test_util.h"

namespace kamino::workload {
namespace {

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator zipf(1000);
  Xoshiro256 rng(1);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_LT(zipf.Next(rng), 1000u);
  }
}

TEST(ZipfianTest, IsSkewed) {
  ZipfianGenerator zipf(10000);
  Xoshiro256 rng(2);
  int hot = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (zipf.Next(rng) < 100) {
      ++hot;  // Top 1% of items.
    }
  }
  // Under theta=0.99, the top 1% draws far more than 1% of accesses.
  EXPECT_GT(hot, kN / 5);
}

TEST(ZipfianTest, ScrambledSpreadsHotKeys) {
  ScrambledZipfian zipf(10000);
  Xoshiro256 rng(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Next(rng)];
  }
  // Find the hottest key: it must NOT be key 0 specifically clustered at the
  // low end of the keyspace (scrambling), and skew must persist.
  uint64_t hottest = 0;
  int hot_count = 0;
  for (const auto& [k, c] : counts) {
    if (c > hot_count) {
      hot_count = c;
      hottest = k;
    }
  }
  EXPECT_GT(hot_count, 1000);  // ~ zipf head.
  (void)hottest;
}

TEST(ZipfianTest, LatestFavorsRecent) {
  FastLatestChooser latest;
  Xoshiro256 rng(4);
  int recent = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const uint64_t k = latest.Next(rng, 10000);
    ASSERT_LT(k, 10000u);
    if (k >= 9000) {
      ++recent;  // Most recent 10%.
    }
  }
  EXPECT_GT(recent, kN * 8 / 10);
}

TEST(YcsbTest, MixesMatchTable3) {
  for (YcsbWorkload w : {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
                         YcsbWorkload::kD, YcsbWorkload::kF}) {
    const YcsbSpec spec = YcsbSpec::For(w);
    EXPECT_NEAR(spec.read + spec.update + spec.insert + spec.rmw, 1.0, 1e-9)
        << YcsbWorkloadName(w);
  }
  EXPECT_EQ(YcsbSpec::For(YcsbWorkload::kA).update, 0.5);
  EXPECT_EQ(YcsbSpec::For(YcsbWorkload::kB).read, 0.95);
  EXPECT_EQ(YcsbSpec::For(YcsbWorkload::kC).read, 1.0);
  EXPECT_EQ(YcsbSpec::For(YcsbWorkload::kD).insert, 0.05);
  EXPECT_TRUE(YcsbSpec::For(YcsbWorkload::kD).latest_reads);
  EXPECT_EQ(YcsbSpec::For(YcsbWorkload::kF).rmw, 0.5);
}

TEST(YcsbTest, GeneratorHonorsMix) {
  std::atomic<uint64_t> count{10000};
  YcsbGenerator gen(YcsbWorkload::kA, 10000, &count, 7);
  int reads = 0, updates = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    auto req = gen.Next();
    ASSERT_LT(req.key, 10000u);
    if (req.op == YcsbOp::kRead) {
      ++reads;
    } else if (req.op == YcsbOp::kUpdate) {
      ++updates;
    }
  }
  EXPECT_NEAR(reads, kN / 2, kN / 20);
  EXPECT_NEAR(updates, kN / 2, kN / 20);
}

TEST(YcsbTest, InsertsGrowKeyspace) {
  std::atomic<uint64_t> count{1000};
  YcsbGenerator gen(YcsbWorkload::kD, 1000, &count, 7);
  int inserts = 0;
  for (int i = 0; i < 10000; ++i) {
    auto req = gen.Next();
    if (req.op == YcsbOp::kInsert) {
      ++inserts;
      EXPECT_GE(req.key, 1000u);
    }
  }
  EXPECT_NEAR(inserts, 500, 120);
  EXPECT_EQ(count.load(), 1000u + static_cast<uint64_t>(inserts));
}

TEST(YcsbTest, ValueIsDeterministicAndSized) {
  EXPECT_EQ(YcsbValue(42, 1024).size(), 1024u);
  EXPECT_EQ(YcsbValue(42, 64), YcsbValue(42, 64));
  EXPECT_NE(YcsbValue(42, 64), YcsbValue(43, 64));
}

class TpccTest : public ::testing::TestWithParam<txn::EngineType> {
 protected:
  void SetUp() override {
    sys_ = test::CrashableSystem::Create(GetParam(), 256ull << 20);
    TpccLite::Options topts;
    topts.warehouses = 1;
    topts.items = 200;
    topts.customers = 50;
    tpcc_ = std::move(TpccLite::Create(sys_.mgr.get(), topts).value());
    ASSERT_TRUE(tpcc_->Load().ok());
  }

  static TpccLite::Options Options() { return TpccLite::Options{}; }

  test::CrashableSystem sys_;
  std::unique_ptr<TpccLite> tpcc_;
};

TEST_P(TpccTest, RunsFullMix) {
  Xoshiro256 rng(11);
  int failures = 0;
  for (int i = 0; i < 300; ++i) {
    if (!tpcc_->RunOne(rng).ok()) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 0);
  sys_.mgr->WaitIdle();
  const TpccLite::Stats s = tpcc_->stats();
  EXPECT_EQ(s.new_order + s.payment + s.order_status + s.delivery + s.stock_level, 300u);
  EXPECT_GT(s.new_order, 90u);  // ~45%.
  EXPECT_GT(s.payment, 90u);    // ~43%.
}

TEST_P(TpccTest, NewOrderThenDeliveryConserves) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(tpcc_->RunTransaction(TpccLite::TxKind::kNewOrder, rng).ok()) << i;
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(tpcc_->RunTransaction(TpccLite::TxKind::kDelivery, rng).ok()) << i;
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tpcc_->RunTransaction(TpccLite::TxKind::kOrderStatus, rng).ok()) << i;
    ASSERT_TRUE(tpcc_->RunTransaction(TpccLite::TxKind::kStockLevel, rng).ok()) << i;
  }
  EXPECT_EQ(tpcc_->stats().aborted, 0u);
}

TEST_P(TpccTest, ConcurrentClients) {
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) + 100);
      for (int i = 0; i < 100; ++i) {
        if (!tpcc_->RunOne(rng).ok()) {
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
}

// Payment writes the district and then the customer. OrderStatus reads the
// same pair, so it must read in the same order: read customer-first, it
// closed a lock cycle with a running Payment that the lock table, which has
// no deadlock detection, ended only at the lock timeout. One district and
// two customers make the pair collide on almost every transaction.
TEST_P(TpccTest, PaymentAndOrderStatusTakeNoLockTimeout) {
  heap::HeapOptions hopts;
  hopts.pool_size = 64ull << 20;
  auto heap = heap::Heap::Create(hopts).value();
  txn::TxManagerOptions mopts;
  mopts.engine = GetParam();
  mopts.lock.timeout_ms = 200;
  auto mgr = txn::TxManager::Create(heap.get(), mopts).value();
  TpccLite::Options topts;
  topts.warehouses = 1;
  topts.districts = 1;
  topts.customers = 2;
  topts.items = 10;
  auto tpcc = TpccLite::Create(mgr.get(), topts).value();
  ASSERT_TRUE(tpcc->Load().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    const auto kind = t < 2 ? TpccLite::TxKind::kPayment : TpccLite::TxKind::kOrderStatus;
    threads.emplace_back([&, t, kind] {
      Xoshiro256 rng(static_cast<uint64_t>(t) + 200);
      for (int i = 0; i < 5000; ++i) {
        if (!tpcc->RunTransaction(kind, rng).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  mgr->WaitIdle();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(mgr->locks()->stats().timeouts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, TpccTest,
                         ::testing::Values(txn::EngineType::kKaminoSimple,
                                           txn::EngineType::kUndoLog),
                         [](const ::testing::TestParamInfo<txn::EngineType>& info) {
                           return info.param == txn::EngineType::kKaminoSimple
                                      ? "KaminoSimple"
                                      : "UndoLog";
                         });

}  // namespace
}  // namespace kamino::workload

namespace kamino::stats {
namespace {

TEST(HistogramTest, RecordsAndSummarizes) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.MeanNs(), 500.5, 0.5);
  EXPECT_EQ(h.MinNs(), 1u);
  EXPECT_EQ(h.MaxNs(), 1000u);
  // Log buckets give ~6% relative error.
  EXPECT_NEAR(static_cast<double>(h.PercentileNs(50)), 500.0, 40.0);
  EXPECT_NEAR(static_cast<double>(h.PercentileNs(99)), 990.0, 70.0);
}

TEST(HistogramTest, MergeAndReset) {
  LatencyHistogram a, b;
  a.Record(100);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.MeanNs(), 200.0, 0.1);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.MeanNs(), 0.0);
}

TEST(HistogramTest, LargeValues) {
  LatencyHistogram h;
  h.Record(5'000'000'000ull);  // 5 s.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.PercentileNs(50), 4'000'000'000ull);
}

TEST(CostModelTest, MoreNvmCostsMore) {
  CostModel model;
  const double one = model.Dollars(1, 100ull << 30);
  const double two = model.Dollars(1, 200ull << 30);
  EXPECT_GT(two, one);
  EXPECT_GT(model.Dollars(2, 100ull << 30), one);
}

TEST(CostModelTest, PerDollarPrefersCheaperAtEqualThroughput) {
  CostModel model;
  const double undo = model.OpsPerSecPerDollar(1000, 1, 100ull << 30);
  const double kamino_full = model.OpsPerSecPerDollar(1000, 1, 200ull << 30);
  EXPECT_GT(undo, kamino_full);
  // But enough of a throughput win flips it (the paper's write-heavy case).
  EXPECT_GT(model.OpsPerSecPerDollar(5000, 1, 200ull << 30), undo);
}

}  // namespace
}  // namespace kamino::stats
