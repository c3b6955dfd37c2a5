#include "src/nvm/pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace kamino::nvm {
namespace {

PoolOptions CrashSimOptions(uint64_t size = 1 << 20) {
  PoolOptions o;
  o.size = size;
  o.crash_sim = true;
  return o;
}

TEST(PoolTest, CreateZeroed) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  const uint8_t* p = pool->base();
  for (uint64_t i = 0; i < pool->size(); i += 4096) {
    EXPECT_EQ(p[i], 0);
  }
}

TEST(PoolTest, RejectsZeroSize) {
  PoolOptions o;
  o.size = 0;
  EXPECT_FALSE(Pool::Create(o).ok());
}

TEST(PoolTest, OffsetPointerRoundTrip) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  void* p = pool->At(12345);
  EXPECT_EQ(pool->OffsetOf(p), 12345u);
  EXPECT_TRUE(pool->Contains(p));
  int on_stack = 0;
  EXPECT_FALSE(pool->Contains(&on_stack));
}

TEST(PoolTest, UnflushedStoreIsNotPersisted) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  auto* x = static_cast<uint64_t*>(pool->At(128));
  *x = 0xDEADBEEF;
  EXPECT_FALSE(pool->IsPersisted(128, 8));
  ASSERT_TRUE(pool->Crash().ok());
  EXPECT_EQ(*static_cast<uint64_t*>(pool->At(128)), 0u);
}

TEST(PoolTest, FlushWithoutDrainIsNotDurable) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  auto* x = static_cast<uint64_t*>(pool->At(128));
  *x = 1;
  pool->Flush(x, 8);
  // No fence: a crash may lose the line (our model is adversarial).
  ASSERT_TRUE(pool->Crash().ok());
  EXPECT_EQ(*static_cast<uint64_t*>(pool->At(128)), 0u);
}

TEST(PoolTest, PersistSurvivesCrash) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  auto* x = static_cast<uint64_t*>(pool->At(128));
  *x = 77;
  pool->Persist(x, 8);
  EXPECT_TRUE(pool->IsPersisted(128, 8));
  ASSERT_TRUE(pool->Crash().ok());
  EXPECT_EQ(*static_cast<uint64_t*>(pool->At(128)), 77u);
}

TEST(PoolTest, FlushSnapshotsAtFlushTime) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  auto* x = static_cast<uint64_t*>(pool->At(256));
  *x = 1;
  pool->Flush(x, 8);
  *x = 2;  // Dirty again after the flush snapshot.
  pool->Drain();
  ASSERT_TRUE(pool->Crash().ok());
  // The drained value is the snapshot (1); the post-flush store was lost.
  EXPECT_EQ(*static_cast<uint64_t*>(pool->At(256)), 1u);
}

TEST(PoolTest, CrashPreservesOtherPersistedData) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  for (uint64_t i = 0; i < 100; ++i) {
    auto* p = static_cast<uint64_t*>(pool->At(i * 64));
    *p = i + 1;
    pool->Persist(p, 8);
  }
  auto* dirty = static_cast<uint64_t*>(pool->At(100 * 64));
  *dirty = 999;
  ASSERT_TRUE(pool->Crash().ok());
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(*static_cast<uint64_t*>(pool->At(i * 64)), i + 1);
  }
  EXPECT_EQ(*static_cast<uint64_t*>(pool->At(100 * 64)), 0u);
}

TEST(PoolTest, EvictRandomlyEitherKeepsOrDrops) {
  // With survive_prob 1.0 every dirty line survives; with 0.0 none do.
  auto keep = Pool::Create(CrashSimOptions()).value();
  auto* k = static_cast<uint64_t*>(keep->At(0));
  *k = 5;
  ASSERT_TRUE(keep->Crash(CrashMode::kEvictRandomly, 1, 1.0).ok());
  EXPECT_EQ(*static_cast<uint64_t*>(keep->At(0)), 5u);

  auto drop = Pool::Create(CrashSimOptions()).value();
  auto* d = static_cast<uint64_t*>(drop->At(0));
  *d = 5;
  ASSERT_TRUE(drop->Crash(CrashMode::kEvictRandomly, 1, 0.0).ok());
  EXPECT_EQ(*static_cast<uint64_t*>(drop->At(0)), 0u);
}

TEST(PoolTest, EvictRandomlyIsPerLine) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  const int kLines = 512;
  for (int i = 0; i < kLines; ++i) {
    *static_cast<uint64_t*>(pool->At(static_cast<uint64_t>(i) * 64)) = 1;
  }
  ASSERT_TRUE(pool->Crash(CrashMode::kEvictRandomly, 42, 0.5).ok());
  int survived = 0;
  for (int i = 0; i < kLines; ++i) {
    survived += *static_cast<uint64_t*>(pool->At(static_cast<uint64_t>(i) * 64)) == 1 ? 1 : 0;
  }
  EXPECT_GT(survived, kLines / 4);
  EXPECT_LT(survived, 3 * kLines / 4);
}

TEST(PoolTest, CrashRequiresCrashSim) {
  PoolOptions o;
  o.size = 1 << 20;
  auto pool = Pool::Create(o).value();
  EXPECT_EQ(pool->Crash().code(), StatusCode::kNotSupported);
  // IsPersisted degenerates to true without a shadow image.
  EXPECT_TRUE(pool->IsPersisted(0, 64));
}

TEST(PoolTest, StatsCountFlushesAndDrains) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  pool->ResetStats();
  auto* p = static_cast<uint8_t*>(pool->At(0));
  std::memset(p, 1, 200);
  pool->Flush(p, 200);  // 200 bytes @ offset 0 -> 4 lines.
  pool->Drain();
  PoolStats s = pool->stats();
  EXPECT_EQ(s.flush_calls, 1u);
  EXPECT_EQ(s.lines_flushed, 4u);
  EXPECT_EQ(s.drain_calls, 1u);
  EXPECT_EQ(s.bytes_persisted, 4 * 64u);
}

TEST(PoolTest, FlushSpanningLineBoundary) {
  auto pool = Pool::Create(CrashSimOptions()).value();
  // Write 16 bytes straddling a line boundary; persist only via one call.
  auto* p = static_cast<uint8_t*>(pool->At(56));
  std::memset(p, 0xAB, 16);
  pool->Persist(p, 16);
  ASSERT_TRUE(pool->Crash().ok());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<uint8_t*>(pool->At(56))[i], 0xAB);
  }
}

TEST(PoolTest, FileBackedPool) {
  PoolOptions o;
  o.size = 1 << 20;
  o.path = "/tmp/kamino_pool_test.pool";
  auto pool = Pool::Create(o).value();
  auto* x = static_cast<uint64_t*>(pool->At(0));
  *x = 42;
  pool->Persist(x, 8);
  EXPECT_EQ(*static_cast<uint64_t*>(pool->At(0)), 42u);
  ::unlink(o.path.c_str());
}

TEST(PoolTest, SizeRoundedToCacheLine) {
  PoolOptions o;
  o.size = 100;  // Not a multiple of 64.
  o.crash_sim = true;
  auto pool = Pool::Create(o).value();
  EXPECT_EQ(pool->size() % 64, 0u);
  EXPECT_GE(pool->size(), 100u);
}

TEST(PoolTest, TrackStatsOffSkipsAccounting) {
  PoolOptions o;
  o.size = 1 << 20;
  o.track_stats = false;
  auto pool = Pool::Create(o).value();
  auto* x = static_cast<uint64_t*>(pool->At(0));
  *x = 7;
  pool->Persist(x, 8);
  pool->Flush(x, 8);
  pool->Drain();
  const PoolStats s = pool->stats();
  EXPECT_EQ(s.flush_calls, 0u);
  EXPECT_EQ(s.lines_flushed, 0u);
  EXPECT_EQ(s.drain_calls, 0u);
}

// Each of `threads` threads issues `per_thread` Flush(128 B on its own
// lines) + Drain pairs, cycling through `tags`.
void FlushDrainFromThreads(Pool* pool, int threads, int per_thread,
                           const std::vector<const char*>& tags) {
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([pool, t, per_thread, &tags] {
      auto* p = static_cast<uint8_t*>(pool->At(static_cast<uint64_t>(t) * 4096));
      for (int i = 0; i < per_thread; ++i) {
        PersistSiteScope site(tags[static_cast<size_t>(i) % tags.size()]);
        p[0] = static_cast<uint8_t>(i);
        pool->Flush(p, 128);  // Line-aligned: 2 lines.
        pool->Drain();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
}

TEST(PoolTest, StatsExactAcrossThreads) {
  PoolOptions o;
  o.size = 1 << 20;
  auto pool = Pool::Create(o).value();
  const std::vector<const char*> tags = {"test/a", "test/b", "test/c"};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100'000;
  FlushDrainFromThreads(pool.get(), kThreads, kPerThread, tags);

  // The workers have exited; their counts must still be there.
  PoolStats s = pool->stats();
  EXPECT_EQ(s.flush_calls, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.lines_flushed, 2 * uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.drain_calls, uint64_t{kThreads} * kPerThread);
  const std::vector<PoolSiteStats> sites = pool->site_stats();
  ASSERT_EQ(sites.size(), 3u);
  const uint64_t per_tag[] = {33'334, 33'333, 33'333};  // i % 3 over 100k.
  for (size_t k = 0; k < sites.size(); ++k) {
    EXPECT_EQ(sites[k].site, tags[k]);
    EXPECT_EQ(sites[k].flush_calls, kThreads * per_tag[k]);
    EXPECT_EQ(sites[k].lines_flushed, 2 * kThreads * per_tag[k]);
    EXPECT_EQ(sites[k].drain_calls, kThreads * per_tag[k]);
  }

  pool->ResetStats();
  s = pool->stats();
  EXPECT_EQ(s.flush_calls, 0u);
  EXPECT_EQ(s.lines_flushed, 0u);
  EXPECT_EQ(s.drain_calls, 0u);
  EXPECT_TRUE(pool->site_stats().empty());

  // New threads (reusing the exited ones' stripes) count from zero.
  FlushDrainFromThreads(pool.get(), 2, 1000, tags);
  s = pool->stats();
  EXPECT_EQ(s.flush_calls, 2000u);
  EXPECT_EQ(s.lines_flushed, 4000u);
  EXPECT_EQ(s.drain_calls, 2000u);
}

TEST(PoolTest, SiteStatsSumToTotalsPastTableCapacity) {
  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) {
    names.push_back("test/site-" + std::to_string(i));
  }
  std::vector<const char*> tags;
  for (const std::string& n : names) {
    tags.push_back(n.c_str());
  }
  PoolOptions o;
  o.size = 1 << 20;
  auto pool = Pool::Create(o).value();
  FlushDrainFromThreads(pool.get(), 2, 1000, tags);

  uint64_t flushes = 0;
  uint64_t lines = 0;
  uint64_t drains = 0;
  bool overflow = false;
  for (const PoolSiteStats& site : pool->site_stats()) {
    flushes += site.flush_calls;
    lines += site.lines_flushed;
    drains += site.drain_calls;
    overflow |= site.site == "overflow" && site.drain_calls > 0;
  }
  const PoolStats s = pool->stats();
  EXPECT_EQ(s.flush_calls, 2000u);
  EXPECT_EQ(flushes, s.flush_calls);
  EXPECT_EQ(lines, s.lines_flushed);
  EXPECT_EQ(drains, s.drain_calls);
  EXPECT_TRUE(overflow);
}

}  // namespace
}  // namespace kamino::nvm
