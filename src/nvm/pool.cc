#include "src/nvm/pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/random.h"

namespace kamino::nvm {
namespace {

std::atomic<uint64_t> next_pool_uid{1};

// Per-thread, direct-mapped cache of (pool, tag pointer) -> site cell, so a
// flush or drain resolves its site with two compares instead of hashing and
// comparing the tag's characters. Cells are never unclaimed and pool uids
// are never reused, so an entry never goes stale.
struct SiteCacheEntry {
  uint64_t pool_uid = 0;
  const char* tag = nullptr;
  size_t cell = 0;
};
constexpr int kSiteCacheBits = 6;
thread_local std::array<SiteCacheEntry, size_t{1} << kSiteCacheBits> tls_site_cache;

}  // namespace

Pool::Pool() : uid_(next_pool_uid.fetch_add(1, std::memory_order_relaxed)) {}

Result<std::unique_ptr<Pool>> Pool::Create(const PoolOptions& options) {
  if (options.size == 0) {
    return Status::InvalidArgument("pool size must be non-zero");
  }
  auto pool = std::unique_ptr<Pool>(new Pool());
  Status st = pool->Init(options);
  if (!st.ok()) {
    return st;
  }
  return pool;
}

Result<std::unique_ptr<Pool>> Pool::OpenFile(const PoolOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("OpenFile requires a backing file path");
  }
  auto pool = std::unique_ptr<Pool>(new Pool());
  pool->crash_sim_ = false;  // Shadow-image state cannot outlive a process.
  pool->flush_latency_ns_ = options.flush_latency_ns;
  pool->drain_latency_ns_ = options.drain_latency_ns;
  pool->track_stats_ = options.track_stats;
  pool->sleep_latency_ = options.sleep_latency;
  pool->site_prefix_ = options.site_prefix;

  pool->fd_ = ::open(options.path.c_str(), O_RDWR);
  if (pool->fd_ < 0) {
    return Status::IoError("open(" + options.path + ") failed");
  }
  struct stat st{};
  if (::fstat(pool->fd_, &st) != 0 || st.st_size <= 0) {
    return Status::IoError("fstat failed or empty file");
  }
  pool->size_ = static_cast<uint64_t>(st.st_size);
  void* mem =
      ::mmap(nullptr, pool->size_, PROT_READ | PROT_WRITE, MAP_SHARED, pool->fd_, 0);
  if (mem == MAP_FAILED) {
    return Status::IoError("mmap failed");
  }
  pool->base_ = static_cast<uint8_t*>(mem);
  pool->file_backed_ = true;
  return pool;
}

Status Pool::Init(const PoolOptions& options) {
  size_ = CacheLineCeil(options.size);
  crash_sim_ = options.crash_sim;
  flush_latency_ns_ = options.flush_latency_ns;
  drain_latency_ns_ = options.drain_latency_ns;
  track_stats_ = options.track_stats;
  sleep_latency_ = options.sleep_latency;
  site_prefix_ = options.site_prefix;

  if (!options.path.empty()) {
    fd_ = ::open(options.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) {
      return Status::IoError("open(" + options.path + ") failed");
    }
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return Status::IoError("ftruncate failed");
    }
    void* mem = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    if (mem == MAP_FAILED) {
      ::close(fd_);
      fd_ = -1;
      return Status::IoError("mmap failed");
    }
    base_ = static_cast<uint8_t*>(mem);
    file_backed_ = true;
  } else {
    void* mem =
        ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      return Status::OutOfMemory("anonymous mmap failed");
    }
    base_ = static_cast<uint8_t*>(mem);
  }

  if (crash_sim_) {
    persistent_ = std::make_unique<uint8_t[]>(size_);
    std::memset(persistent_.get(), 0, size_);
  }
  return Status::Ok();
}

Pool::~Pool() {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Pool::SpinFor(uint32_t ns) const {
  if (ns == 0) {
    return;
  }
  if (sleep_latency_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
    // Busy wait: models the synchronous stall of a slow NVM write-back.
  }
}

void Pool::Flush(const void* addr, uint64_t len) {
  if (len == 0) {
    return;
  }
  if (PersistenceObserver* obs = observer_.load(std::memory_order_acquire)) {
    PersistEvent ev;
    ev.kind = PersistEventKind::kFlush;
    ev.site = CurrentPersistSite();
    ev.shard = site_prefix_.c_str();
    ev.offset = OffsetOf(addr);
    ev.len = len;
    ev.pool = this;
    if (!obs->OnPersistEvent(ev)) {
      return;  // Vetoed: nothing staged, as if power failed before the CLWB.
    }
  }
  const uint64_t start = CacheLineFloor(OffsetOf(addr));
  const uint64_t end = CacheLineCeil(OffsetOf(addr) + len);
  const uint64_t lines = (end - start) / kCacheLineSize;

  if (track_stats_) {
    totals_.Add(kFlushCalls);
    totals_.Add(kLinesFlushed, lines);
    const size_t cell = SiteCellFor(CurrentPersistSite());
    site_counts_.Add(SiteIndex(cell, kSiteFlushCalls));
    site_counts_.Add(SiteIndex(cell, kSiteLinesFlushed), lines);
  }

  if (crash_sim_) {
    std::lock_guard<std::mutex> guard(mu_);
    for (uint64_t off = start; off < end; off += kCacheLineSize) {
      auto& slot = staged_[off];
      std::memcpy(slot.data(), base_ + off, kCacheLineSize);
    }
  }
  SpinFor(static_cast<uint32_t>(lines * flush_latency_ns_.load(std::memory_order_relaxed)));
}

void Pool::Drain() {
  if (PersistenceObserver* obs = observer_.load(std::memory_order_acquire)) {
    PersistEvent ev;
    ev.kind = PersistEventKind::kDrain;
    ev.site = CurrentPersistSite();
    ev.shard = site_prefix_.c_str();
    ev.pool = this;
    if (!obs->OnPersistEvent(ev)) {
      return;  // Vetoed: staged lines stay undurable, as if the fence never ran.
    }
  }
  if (track_stats_) {
    totals_.Add(kDrainCalls);
    site_counts_.Add(SiteIndex(SiteCellFor(CurrentPersistSite()), kSiteDrainCalls));
  }
  if (crash_sim_) {
    std::lock_guard<std::mutex> guard(mu_);
    for (const auto& [off, snapshot] : staged_) {
      std::memcpy(persistent_.get() + off, snapshot.data(), kCacheLineSize);
    }
    if (track_stats_) {
      totals_.Add(kBytesPersisted, staged_.size() * kCacheLineSize);
    }
    staged_.clear();
  }
  SpinFor(drain_latency_ns_.load(std::memory_order_relaxed));
}

Status Pool::Crash(CrashMode mode, uint64_t seed, double survive_prob) {
  if (!crash_sim_) {
    return Status::NotSupported("Crash() requires PoolOptions::crash_sim");
  }
  std::lock_guard<std::mutex> guard(mu_);
  // Flushed-but-unfenced lines are lost either way: CLWB without a fence
  // gives no durability ordering guarantee we can rely on here; dropping them
  // is the adversarial (and allowed) outcome.
  staged_.clear();

  if (mode == CrashMode::kEvictRandomly) {
    // Lines that differ between images were dirty in "cache". Each one may
    // have been written back by an eviction before the failure.
    Xoshiro256 rng(seed);
    for (uint64_t off = 0; off < size_; off += kCacheLineSize) {
      if (std::memcmp(base_ + off, persistent_.get() + off, kCacheLineSize) != 0) {
        if (rng.NextDouble() < survive_prob) {
          std::memcpy(persistent_.get() + off, base_ + off, kCacheLineSize);
        }
      }
    }
  }
  std::memcpy(base_, persistent_.get(), size_);
  return Status::Ok();
}

size_t Pool::SiteCellFor(const char* tag) {
  const uint64_t h = (reinterpret_cast<uintptr_t>(tag) ^ uid_) * 0x9E3779B97F4A7C15ull;
  SiteCacheEntry& entry = tls_site_cache[h >> (64 - kSiteCacheBits)];
  if (entry.tag != tag || entry.pool_uid != uid_) {
    entry = {uid_, tag, ClaimSiteCell(tag)};
  }
  return entry.cell;
}

size_t Pool::ClaimSiteCell(const char* tag) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the tag's content.
  for (const char* p = tag; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint8_t>(*p)) * 1099511628211ull;
  }
  for (size_t probe = 0; probe < kOverflowSiteCell; ++probe) {
    const size_t cell = (h + probe) % kOverflowSiteCell;
    const char* cur = site_tags_[cell].load(std::memory_order_acquire);
    if (cur == nullptr) {
      const char* expected = nullptr;
      if (site_tags_[cell].compare_exchange_strong(expected, tag, std::memory_order_acq_rel)) {
        return cell;
      }
      cur = expected;
    }
    if (cur == tag || std::strcmp(cur, tag) == 0) {
      return cell;
    }
  }
  return kOverflowSiteCell;  // Table full: counted, under "overflow".
}

std::vector<PoolSiteStats> Pool::site_stats() const {
  std::vector<PoolSiteStats> out;
  for (size_t cell = 0; cell < kMaxSiteCells; ++cell) {
    const char* tag = cell == kOverflowSiteCell ? "overflow"
                                                : site_tags_[cell].load(std::memory_order_acquire);
    if (tag == nullptr) {
      continue;
    }
    PoolSiteStats s;
    s.site = tag;
    s.flush_calls = site_counts_.Sum(SiteIndex(cell, kSiteFlushCalls));
    s.lines_flushed = site_counts_.Sum(SiteIndex(cell, kSiteLinesFlushed));
    s.drain_calls = site_counts_.Sum(SiteIndex(cell, kSiteDrainCalls));
    if (s.flush_calls != 0 || s.lines_flushed != 0 || s.drain_calls != 0) {
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PoolSiteStats& a, const PoolSiteStats& b) { return a.site < b.site; });
  return out;
}

bool Pool::IsPersisted(uint64_t offset, uint64_t len) const {
  if (!crash_sim_) {
    return true;
  }
  std::lock_guard<std::mutex> guard(mu_);
  return std::memcmp(base_ + offset, persistent_.get() + offset, len) == 0;
}

}  // namespace kamino::nvm
