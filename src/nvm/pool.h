// Emulated byte-addressable non-volatile memory.
//
// The paper evaluates on DRAM standing in for NVDIMM (§7: "We use DRAM to
// emulate NVM"). We go one step further and give the emulated NVM an explicit
// *persistence model* so that recovery code can actually be tested:
//
//   - CPU stores land in the working image immediately (they are "in cache").
//   - `Flush(addr, len)` stages a snapshot of the covered cache lines
//     (emulating CLWB issued on each line).
//   - `Drain()` makes all staged lines durable (emulating SFENCE).
//   - `Persist(addr, len)` = Flush + Drain.
//
// When `crash_sim` is enabled the pool keeps a second, "persistent" image.
// `Crash(...)` rebuilds the working image from the persistent one, discarding
// stores that were never flushed — exactly what a power failure does to data
// sitting in the cache hierarchy. The `kEvictRandomly` mode additionally lets
// each dirty-but-unflushed line survive with probability p, modelling
// arbitrary cache evictions; crash-consistent code must tolerate both.
//
// Pools can also inject per-line flush latency and per-fence latency to model
// NVM technologies slower than DRAM (§7 notes Kamino-Tx's advantage grows as
// media slows down).

#ifndef SRC_NVM_POOL_H_
#define SRC_NVM_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/status.h"
#include "src/common/thread_stripe.h"
#include "src/nvm/persist_hook.h"

namespace kamino::nvm {

struct PoolOptions {
  // Total pool size in bytes. Rounded up to a cache-line multiple.
  uint64_t size = 64ull << 20;

  // Backing file path. Empty means anonymous (volatile, test-only) memory.
  std::string path;

  // Enable the persistent shadow image + Crash() support.
  bool crash_sim = false;

  // Injected latency, in nanoseconds, charged per cache line flushed and per
  // drain (fence). Zero disables injection.
  uint32_t flush_latency_ns = 0;
  uint32_t drain_latency_ns = 0;

  // When false, Flush/Drain skip the stats counters entirely so benchmarks
  // measure the engine rather than the emulator's bookkeeping. Crash-sim
  // pools keep their correctness machinery regardless; only counters are
  // affected. The counters are per-thread stripes (thread_stripe.h), so
  // counting costs an uncontended add, not a shared cache line.
  bool track_stats = true;

  // When true, injected latency yields the CPU (sleep) instead of spinning.
  // A spinning emulated NVM stall occupies a core, which makes applier
  // scaling unmeasurable on hosts with fewer cores than threads; sleeping
  // models a stalled-but-idle memory-controller wait instead. Spin remains
  // the default because it preserves cache/TLB behaviour for latency
  // microbenchmarks.
  bool sleep_latency = false;

  // Attached to every PersistEvent this pool emits (PersistEvent::shard).
  // A sharded store names each shard's pools (e.g. "shard3") so crash-point
  // observers can qualify site tags per shard ("shard3/log/commit-record")
  // — including events from applier/reconciler threads, which carry no
  // thread-local shard identity. Empty = unsharded.
  std::string site_prefix;
};

// How Crash() treats dirty lines that were never flushed.
enum class CrashMode {
  // All unflushed lines are lost (clean power-cut model).
  kDropUnflushed,
  // Each dirty unflushed line independently survives with probability
  // `survive_prob` — models cache evictions that happened to write the line
  // back before the failure. Crash-consistent code must be correct for every
  // outcome, so property tests sweep seeds.
  kEvictRandomly,
};

struct PoolStats {
  uint64_t flush_calls = 0;
  uint64_t lines_flushed = 0;
  uint64_t drain_calls = 0;
  uint64_t bytes_persisted = 0;
};

// Per-PersistSiteScope breakdown of flush/drain activity (track_stats only).
// Answers "which persistence boundary pays the fences?" — the measurement
// behind the paper's minimum-cache-flushes claim and DESIGN.md §8's fence
// accounting. A pool tracks up to 63 distinct tags;
// events under further tags are charged to the site "overflow", so the
// per-site counts always sum to the pool's totals.
struct PoolSiteStats {
  std::string site;
  uint64_t flush_calls = 0;
  uint64_t lines_flushed = 0;
  uint64_t drain_calls = 0;
};

class Pool {
 public:
  // Creates a new zero-initialized pool (truncates any existing backing file).
  static Result<std::unique_ptr<Pool>> Create(const PoolOptions& options);

  // Maps an existing backing file (options.path required; options.size is
  // ignored — the file's size is used). The cross-process durability path:
  // data persisted before the previous process exited is visible here.
  static Result<std::unique_ptr<Pool>> OpenFile(const PoolOptions& options);

  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }
  uint64_t size() const { return size_; }
  bool crash_sim_enabled() const { return crash_sim_; }
  const std::string& site_prefix() const { return site_prefix_; }

  // Offset <-> pointer translation. Offsets are the stable persistent
  // representation (pointers change across re-open).
  uint64_t OffsetOf(const void* p) const {
    auto addr = reinterpret_cast<uintptr_t>(p);
    auto lo = reinterpret_cast<uintptr_t>(base_);
    return static_cast<uint64_t>(addr - lo);
  }
  void* At(uint64_t offset) { return base_ + offset; }
  const void* At(uint64_t offset) const { return base_ + offset; }
  bool Contains(const void* p) const {
    auto addr = reinterpret_cast<uintptr_t>(p);
    auto lo = reinterpret_cast<uintptr_t>(base_);
    return addr >= lo && addr < lo + size_;
  }

  // Installs (or, with nullptr, removes) the persistence-event observer.
  // Every subsequent Flush/Drain first consults the observer, which may veto
  // the event's durability effect (see persist_hook.h). The observer must
  // outlive its installation. Install/remove while no other thread is
  // flushing: the pointer itself is atomic, but observers usually expect to
  // see a complete event stream.
  void SetPersistenceObserver(PersistenceObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }
  PersistenceObserver* persistence_observer() const {
    return observer_.load(std::memory_order_acquire);
  }

  // Persistence primitives.
  void Flush(const void* addr, uint64_t len);
  void Drain();
  void Persist(const void* addr, uint64_t len) {
    Flush(addr, len);
    Drain();
  }

  // Persists an aligned 8-byte store. The store itself must already have been
  // performed by the caller; this is the ordering point.
  void PersistU64(const uint64_t* addr) { Persist(addr, sizeof(uint64_t)); }

  // Crash simulation. Requires crash_sim. Discards (per `mode`) all stores
  // that were not persisted, as a power failure would. After Crash() the
  // working image is what recovery code would see at next startup.
  Status Crash(CrashMode mode = CrashMode::kDropUnflushed, uint64_t seed = 0,
               double survive_prob = 0.5);

  // Test hook: returns true iff the byte ranges [offset, offset+len) are
  // identical in the working and persistent images (i.e. fully persisted).
  // Requires crash_sim.
  bool IsPersisted(uint64_t offset, uint64_t len) const;

  PoolStats stats() const {
    PoolStats s;
    s.flush_calls = totals_.Sum(kFlushCalls);
    s.lines_flushed = totals_.Sum(kLinesFlushed);
    s.drain_calls = totals_.Sum(kDrainCalls);
    s.bytes_persisted = totals_.Sum(kBytesPersisted);
    return s;
  }
  void ResetStats() {
    totals_.Reset();
    site_counts_.Reset();
  }

  // Snapshot of the per-site counters, sorted by site name (deterministic
  // output for benches/JSON). Empty when track_stats is off.
  std::vector<PoolSiteStats> site_stats() const;

  // Bench/test hook: re-aims the emulated persistence cost of a live pool —
  // e.g. load a benchmark dataset at full speed, then measure with injected
  // latency. `sleep` chooses overlappable stalls over spinning (see
  // PoolOptions::sleep_latency).
  void set_latency(uint32_t flush_ns, uint32_t drain_ns, bool sleep) {
    flush_latency_ns_.store(flush_ns, std::memory_order_relaxed);
    drain_latency_ns_.store(drain_ns, std::memory_order_relaxed);
    sleep_latency_.store(sleep, std::memory_order_relaxed);
  }

 private:
  Pool();

  Status Init(const PoolOptions& options);
  void SpinFor(uint32_t ns) const;

  // Per-site counters live in cells of a fixed-capacity, lock-free
  // open-addressed table. Site tags are string literals; cells are claimed
  // once with CAS and keyed by string content (identical literals from
  // different TUs may have distinct addresses). The last cell is reserved
  // for tags that find the rest of the table full.
  static constexpr size_t kMaxSiteCells = 64;
  static constexpr size_t kOverflowSiteCell = kMaxSiteCells - 1;

  // Cell for `tag`, resolved through a per-thread cache; claims one on a
  // miss via ClaimSiteCell (hash, probe, compare content).
  size_t SiteCellFor(const char* tag);
  size_t ClaimSiteCell(const char* tag);

  enum TotalCounter : size_t { kFlushCalls, kLinesFlushed, kDrainCalls, kBytesPersisted, kTotals };
  enum SiteCounter : size_t { kSiteFlushCalls, kSiteLinesFlushed, kSiteDrainCalls, kSiteCounters };
  static constexpr size_t SiteIndex(size_t cell, SiteCounter counter) {
    return cell * kSiteCounters + counter;
  }

  uint8_t* base_ = nullptr;
  uint64_t size_ = 0;
  bool file_backed_ = false;
  int fd_ = -1;
  bool crash_sim_ = false;
  // Atomics so set_latency() can re-aim a live pool (bench hook) without
  // racing the flush/drain paths; always accessed relaxed.
  std::atomic<uint32_t> flush_latency_ns_{0};
  std::atomic<uint32_t> drain_latency_ns_{0};
  bool track_stats_ = true;
  std::atomic<bool> sleep_latency_{false};
  std::string site_prefix_;

  // Crash-sim state. `persistent_` mirrors `base_`; `staged_` holds snapshots
  // of flushed-but-not-fenced lines keyed by line offset. Guarded by `mu_`
  // (crash-sim mode trades speed for checkability).
  std::unique_ptr<uint8_t[]> persistent_;
  std::unordered_map<uint64_t, std::array<uint8_t, kCacheLineSize>> staged_;
  mutable std::mutex mu_;

  // Keys the per-thread site-cell cache: unlike the pool's address, never
  // reused by a later pool.
  const uint64_t uid_;
  std::array<std::atomic<const char*>, kMaxSiteCells> site_tags_{};
  StripedCounters<kTotals> totals_;
  StripedCounters<kMaxSiteCells * kSiteCounters> site_counts_;

  std::atomic<PersistenceObserver*> observer_{nullptr};
};

}  // namespace kamino::nvm

#endif  // SRC_NVM_POOL_H_
