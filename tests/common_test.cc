#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/thread_stripe.h"

namespace kamino {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (uint8_t c = 0; c <= static_cast<uint8_t>(StatusCode::kNotSupported); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfMemory("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    KAMINO_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(CachelineTest, FloorCeil) {
  EXPECT_EQ(CacheLineFloor(0), 0u);
  EXPECT_EQ(CacheLineFloor(63), 0u);
  EXPECT_EQ(CacheLineFloor(64), 64u);
  EXPECT_EQ(CacheLineCeil(1), 64u);
  EXPECT_EQ(CacheLineCeil(64), 64u);
  EXPECT_EQ(CacheLineCeil(65), 128u);
}

TEST(CachelineTest, AlignUp) {
  EXPECT_EQ(AlignUp(0, 4096), 0u);
  EXPECT_EQ(AlignUp(1, 4096), 4096u);
  EXPECT_EQ(AlignUp(4096, 4096), 4096u);
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(96));
}

TEST(ChecksumTest, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 is the standard CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(ChecksumTest, Crc64Properties) {
  const char a[] = "kamino";
  const char b[] = "kaminO";
  EXPECT_NE(Crc64(a, sizeof(a)), Crc64(b, sizeof(b)));
  EXPECT_EQ(Crc64(a, sizeof(a)), Crc64(a, sizeof(a)));
  EXPECT_EQ(Crc64(nullptr, 0), 0u);
}

TEST(ChecksumTest, DetectsSingleBitFlip) {
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 31);
  }
  const uint64_t base = Crc64(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); i += 17) {
    buf[i] ^= 1;
    EXPECT_NE(Crc64(buf.data(), buf.size()), base) << "flip at " << i;
    buf[i] ^= 1;
  }
}

// The bytewise table loop the checksums used before slicing-by-8: the
// reference every persisted CRC must keep matching.
template <typename T>
T BytewiseCrc(T poly, const void* data, size_t len, T seed) {
  T table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    T crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
    }
    table[i] = crc;
  }
  const auto* p = static_cast<const uint8_t*>(data);
  T crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

TEST(ChecksumTest, Crc64KnownVector) {
  // CRC-64/XZ check value.
  EXPECT_EQ(Crc64("123456789", 9), 0x995DC9BBDF1939FAull);
}

TEST(ChecksumTest, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr uint32_t kCrc32cPoly = 0x82F63B78u;
  constexpr uint64_t kCrc64Poly = 0xC96C5795D7870F42ull;
  std::vector<uint8_t> buf(300 + 8);
  Xoshiro256 rng(7);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = buf.data() + align;
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc64(p, len), BytewiseCrc<uint64_t>(kCrc64Poly, p, len, 0))
          << "len " << len << " align " << align;
      ASSERT_EQ(Crc32c(p, len), BytewiseCrc<uint32_t>(kCrc32cPoly, p, len, 0))
          << "len " << len << " align " << align;
      // Chained: a seed carries a previous call's result into the next.
      const size_t split = len / 3;
      ASSERT_EQ(Crc64(p + split, len - split, Crc64(p, split)), Crc64(p, len));
      ASSERT_EQ(Crc32c(p + split, len - split, Crc32c(p, split)), Crc32c(p, len));
      const uint64_t seed64 = 0x0123456789ABCDEFull + len;
      const uint32_t seed32 = 0x89ABCDEFu + static_cast<uint32_t>(len);
      ASSERT_EQ(Crc64(p, len, seed64), BytewiseCrc<uint64_t>(kCrc64Poly, p, len, seed64));
      ASSERT_EQ(Crc32c(p, len, seed32), BytewiseCrc<uint32_t>(kCrc32cPoly, p, len, seed32));
    }
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, BoundedStaysInBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(11);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 80000; ++i) {
    ++counts[rng.NextBounded(8)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 600);
  }
}

TEST(ThreadStripeTest, ExitedThreadsIdsAreReused) {
  (void)ThreadStripe();
  const size_t bound = ThreadStripeBound();
  for (int i = 0; i < 100; ++i) {
    std::thread([] {
      const size_t stripe = ThreadStripe();
      EXPECT_LT(stripe, ThreadStripeBound());
    }).join();
  }
  // One thread at a time is live beside this one: at most one more stripe.
  EXPECT_LE(ThreadStripeBound(), bound + 1);
}

TEST(ThreadStripeTest, CountsExactWhenThreadsShareStripes) {
  StripedCounters<2> counters;
  constexpr int kThreads = static_cast<int>(kMaxThreadStripes) + 16;
  constexpr uint64_t kAdds = 1000;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Hold every thread live until all have ids, so some share a stripe.
      (void)ThreadStripe();
      started.fetch_add(1);
      while (started.load() < kThreads) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; i < kAdds; ++i) {
        counters.Add(0);
        counters.Add(1, 2);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ThreadStripeBound(), kSharedThreadStripe);
  EXPECT_EQ(counters.Sum(0), kThreads * kAdds);
  EXPECT_EQ(counters.Sum(1), 2 * kThreads * kAdds);
  counters.Reset();
  EXPECT_EQ(counters.Sum(0), 0u);
  EXPECT_EQ(counters.Sum(1), 0u);
}

// How long a test lets a thread that must stay blocked try to get in.
constexpr auto kBlockedFor = std::chrono::milliseconds(30);

TEST(StripedSharedMutexTest, WriterExcludesReaders) {
  StripedSharedMutex latch;
  latch.lock();
  std::atomic<bool> entered{false};
  std::thread reader([&] {
    std::shared_lock<StripedSharedMutex> g(latch);
    entered = true;
  });
  std::this_thread::sleep_for(kBlockedFor);
  EXPECT_FALSE(entered.load()) << "a reader got in under the writer";
  latch.unlock();
  reader.join();
  EXPECT_TRUE(entered.load());
}

TEST(StripedSharedMutexTest, ReadersDoNotBlockEachOther) {
  StripedSharedMutex latch;
  std::shared_lock<StripedSharedMutex> mine(latch);
  std::atomic<int> entered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::shared_lock<StripedSharedMutex> g(latch);
      entered.fetch_add(1);
    });
  }
  for (auto& t : readers) {
    t.join();  // Would hang if a held shared lock excluded other readers.
  }
  EXPECT_EQ(entered.load(), 3);
}

TEST(StripedSharedMutexTest, WriterWaitsForReaderThatEnteredFirst) {
  StripedSharedMutex latch;
  latch.lock_shared();
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    std::unique_lock<StripedSharedMutex> g(latch);
    wrote = true;
  });
  std::this_thread::sleep_for(kBlockedFor);
  EXPECT_FALSE(wrote.load()) << "a writer got in beside a reader";
  latch.unlock_shared();
  writer.join();
  EXPECT_TRUE(wrote.load());
}

// A reader may hold the latch while it waits on an object lock, so a writer
// that waits for it must sleep, not burn a core: its CPU time over a long
// reader hold stays a small share of the wall time.
TEST(StripedSharedMutexTest, WriterSleepsWhileReaderHolds) {
  constexpr auto kHold = std::chrono::milliseconds(200);
  StripedSharedMutex latch;
  latch.lock_shared();
  std::atomic<bool> waiting{false};
  std::atomic<int64_t> writer_cpu_ns{-1};
  std::thread writer([&] {
    const auto cpu_ns = [] {
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    };
    const int64_t before = cpu_ns();
    waiting = true;
    latch.lock();
    writer_cpu_ns = cpu_ns() - before;
    latch.unlock();
  });
  while (!waiting.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(kHold);
  latch.unlock_shared();
  writer.join();
  const int64_t hold_ns = std::chrono::nanoseconds(kHold).count();
  EXPECT_GE(writer_cpu_ns.load(), 0);
  EXPECT_LT(writer_cpu_ns.load(), hold_ns / 4) << "the writer spun while it waited";
}

// Readers and writers on every thread: writers keep a two-word invariant
// that no reader may see broken.
TEST(StripedSharedMutexTest, ConcurrentReadersAndWriters) {
  StripedSharedMutex latch;
  int64_t a = 0;
  int64_t b = 0;
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        if (i % 8 == 0) {
          std::unique_lock<StripedSharedMutex> g(latch);
          ++a;
          ++b;
        } else {
          std::shared_lock<StripedSharedMutex> g(latch);
          if (a != b) {
            torn = true;
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(a, 4 * 625);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(torn.load());
}

// A thread beyond the exclusive ids counts on the shared stripe, which takes
// atomic adds; a writer still waits for it. Live threads hold ids until one
// lands on the shared stripe: 64 live threads at most (this one and up to 63
// more).
TEST(StripedSharedMutexTest, ReaderOnSharedStripe) {
  StripedSharedMutex latch;
  (void)ThreadStripe();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> ids;  // Guarded by mu, one per started holder.
  bool reader_go = false;
  bool reader_in = false;
  bool release = false;
  std::vector<std::thread> holders;
  while (holders.size() < kSharedThreadStripe) {
    holders.emplace_back([&] {
      const size_t id = ThreadStripe();
      std::unique_lock<std::mutex> lk(mu);
      ids.push_back(id);
      cv.notify_all();
      if (id == kSharedThreadStripe) {
        cv.wait(lk, [&] { return reader_go; });
        latch.lock_shared();
        reader_in = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
        latch.unlock_shared();
        return;
      }
      cv.wait(lk, [&] { return release; });
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return ids.size() == holders.size(); });
    if (ids.back() == kSharedThreadStripe) {
      break;
    }
  }
  bool found = false;
  std::atomic<bool> wrote{false};
  std::thread writer;
  {
    std::unique_lock<std::mutex> lk(mu);
    found = ids.back() == kSharedThreadStripe;
    if (found) {
      reader_go = true;
      cv.notify_all();
      cv.wait(lk, [&] { return reader_in; });
    }
  }
  if (found) {
    writer = std::thread([&] {
      std::unique_lock<StripedSharedMutex> g(latch);
      wrote = true;
    });
    std::this_thread::sleep_for(kBlockedFor);
    EXPECT_FALSE(wrote.load()) << "a writer missed a reader on the shared stripe";
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : holders) {
    t.join();
  }
  if (writer.joinable()) {
    writer.join();
  }
  ASSERT_TRUE(found) << "no thread landed on the shared stripe";
  EXPECT_TRUE(wrote.load());
}

}  // namespace
}  // namespace kamino
