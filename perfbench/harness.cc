#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t CpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

uint64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

namespace {

constexpr size_t kWords = kValueSize / sizeof(uint64_t);

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

// Four independent multiply-xor lanes, so checking a value stays cheap
// next to the calls being timed.
uint64_t Digest(const uint64_t* w, size_t n) {
  uint64_t h[4] = {0xCBF29CE484222325ull, 0x84222325CBF29CE4ull, 0x9E3779B97F4A7C15ull,
                   0xC2B2AE3D27D4EB4Full};
  for (size_t i = 0; i < n; ++i) {
    uint64_t& lane = h[i % 4];
    lane = (lane ^ w[i]) * 0x100000001B3ull;
    lane ^= lane >> 29;
  }
  return Mix(h[0] ^ Mix(h[1] ^ Mix(h[2] ^ Mix(h[3] ^ n))));
}

}  // namespace

void FillValue(uint64_t key, uint64_t tag, std::string* out) {
  uint64_t w[kWords];
  w[0] = key;
  w[1] = tag;
  const uint64_t s = Mix(key ^ Mix(tag));
  for (size_t i = 2; i + 1 < kWords; ++i) {
    w[i] = s + i * 0x9E3779B97F4A7C15ull;
  }
  w[kWords - 1] = Digest(w, kWords - 1);
  out->resize(kValueSize);
  std::memcpy(out->data(), w, kValueSize);
}

bool CheckValue(uint64_t key, std::string_view value) {
  if (value.size() != kValueSize) {
    return false;
  }
  uint64_t w[kWords];
  std::memcpy(w, value.data(), kValueSize);
  return w[0] == key && Digest(w, kWords - 1) == w[kWords - 1];
}

double PercentileUs(std::vector<uint32_t>& ns, double q) {
  if (ns.empty()) {
    return 0;
  }
  const double rank = std::ceil(q / 100.0 * static_cast<double>(ns.size()));
  const size_t idx = std::min(ns.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx), ns.end());
  return static_cast<double>(ns[idx]) / 1000.0;
}

Layers Snapshot(const std::vector<kamino::txn::TxManager*>& mgrs) {
  Layers l;
  for (kamino::txn::TxManager* mgr : mgrs) {
    const kamino::nvm::PoolStats m = mgr->heap()->pool()->stats();
    l.main.flush_calls += m.flush_calls;
    l.main.lines_flushed += m.lines_flushed;
    l.main.drain_calls += m.drain_calls;
    l.main.bytes_persisted += m.bytes_persisted;
    if (mgr->backup_pool() != nullptr) {
      const kamino::nvm::PoolStats b = mgr->backup_pool()->stats();
      l.backup.flush_calls += b.flush_calls;
      l.backup.lines_flushed += b.lines_flushed;
      l.backup.drain_calls += b.drain_calls;
      l.backup.bytes_persisted += b.bytes_persisted;
    }
    for (const kamino::nvm::PoolSiteStats& site : mgr->heap()->pool()->site_stats()) {
      std::string name = site.site;
      if (name.rfind("shard", 0) == 0 && name.find('/') != std::string::npos) {
        name = name.substr(name.find('/') + 1);
      }
      l.site_drains[name] += site.drain_calls;
    }
    const kamino::alloc::AllocatorStats a = mgr->heap()->allocator()->stats();
    l.alloc_calls += a.alloc_calls;
    l.free_calls += a.free_calls;
    l.bytes_allocated += a.bytes_allocated;
    l.bytes_reserved += a.bytes_reserved;
    const kamino::txn::LockStats k = mgr->locks()->stats();
    l.lock.write_acquires += k.write_acquires;
    l.lock.read_acquires += k.read_acquires;
    l.lock.blocked_acquires += k.blocked_acquires;
    l.lock.timeouts += k.timeouts;
    l.lock.total_block_ns += k.total_block_ns;
    const kamino::txn::EngineStats e = mgr->engine()->stats();
    l.committed += e.committed;
    l.aborted += e.aborted;
    l.apply_batches += e.apply_batches;
    l.coalesced_ranges += e.coalesced_ranges;
    l.log_blocked_acquires += e.log_blocked_acquires;
    l.log_blocked_wait_ns += e.log_blocked_wait_ns;
    l.committed_per_mgr.push_back(e.committed);
    l.lag_p50_ns.push_back(e.apply_lag_p50_ns);
    l.lag_p99_ns.push_back(e.apply_lag_p99_ns);
  }
  l.cpu_ns = CpuNs();
  l.t_ns = NowNs();
  return l;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note});
}

void Report::PrintLines(FILE* out) const {
  for (const Entry& e : entries_) {
    std::fprintf(out, "metric %-52s = %14.6f %s%s%s\n", e.name.c_str(), e.value, e.unit.c_str(),
                 e.note.empty() ? "" : "  ", e.note.c_str());
  }
}

std::string Report::Json() const {
  std::string out = "{";
  for (const Entry& e : entries_) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += "\"" + e.name + "\": {\"value\": " + FormatDouble(e.value) + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
