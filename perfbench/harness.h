// Measurement plumbing shared by every perfbench workload: the value format
// the correctness audit checks, per-client op samples (which double as the
// traced run's spans), exact percentiles, per-layer counter snapshots and
// the metric report.
//
// Everything here measures the program from outside: it times calls into
// the public front-ends and reads each layer's public stats() counters.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/txn/tx_manager.h"

namespace perfbench {

using kamino::Result;
using kamino::Status;

uint64_t NowNs();
// Process CPU time (user + system, all threads).
uint64_t CpuNs();
// Time the hypervisor ran something else while this machine's CPUs wanted to
// run, summed over CPUs, in clock ticks (the `steal` column of /proc/stat).
// 0 where the kernel does not report it.
uint64_t StealTicks();

// --- Values ------------------------------------------------------------------
// A 1 KB value is 128 words: [0] the key, [1] a writer tag (client, seq),
// [2..126] a payload derived from both, [127] a digest of words 0..126. A
// torn read (words from two versions) or a value filed under the wrong key
// fails CheckValue.
inline constexpr size_t kValueSize = 1024;
void FillValue(uint64_t key, uint64_t tag, std::string* out);
bool CheckValue(uint64_t key, std::string_view value);

// --- Samples and clients -------------------------------------------------------
// Run phases. Samples are recorded only in kMeasure (untraced) and kTraced.
enum Phase : uint8_t { kWarmup = 0, kMeasure = 1, kTraced = 2, kStop = 3 };

// One front-end call. In the traced window a sample is also a span: its
// name is the op's span name, its client the buffer it sits in, its op
// sequence its index there.
struct Sample {
  uint64_t start_ns = 0;
  uint32_t dur_ns = 0;
  uint8_t op = 0;
  uint8_t phase = 0;
  uint8_t ok = 0;
};

// Per-client state. Only the owning client thread touches it while the
// run is live; the main thread reads it after joining.
struct Client {
  int id = 0;
  kamino::Xoshiro256 rng;
  uint8_t phase = kWarmup;  // Phase read at the top of the current step.
  std::vector<Sample> samples;
  uint64_t failures = 0;           // Every non-OK status, in every phase.
  uint64_t conflict_failures = 0;  // The subset that were kTxConflict.
  uint64_t bad_values = 0;         // Reads that failed CheckValue.
  uint64_t writes = 0;             // Values written (see WriterTag).
  // Traced window only: time spent in steps outside the front-end call,
  // and client 0's applier queue-depth samples.
  uint64_t harness_ns = 0;
  uint64_t harness_steps = 0;
  std::vector<uint64_t> queue_depth;
  std::string value;               // Scratch value buffer.

  // Times one front-end call and records it (outside warm-up).
  template <typename F>
  auto Time(uint8_t op, F&& call) {
    const uint64_t start = NowNs();
    auto result = call();
    const uint64_t end = NowNs();
    const Status st = StatusOf(result);
    if (!st.ok()) {
      ++failures;
      if (st.code() == kamino::StatusCode::kTxConflict) {
        ++conflict_failures;
      }
    }
    if (phase == kMeasure || phase == kTraced) {
      const uint64_t dur = end - start;
      samples.push_back(Sample{start, dur > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(dur),
                               op, phase, static_cast<uint8_t>(st.ok() ? 1 : 0)});
    }
    return result;
  }

  // A call returned OK but with a wrong value: counts as a failed op.
  void BadValue() {
    ++bad_values;
    ++failures;
    if ((phase == kMeasure || phase == kTraced) && !samples.empty()) {
      samples.back().ok = 0;
    }
  }

 private:
  static Status StatusOf(const Status& s) { return s; }
  template <typename T>
  static Status StatusOf(const Result<T>& r) {
    return r.status();
  }
};

// Exact nearest-rank percentile (q in (0, 100]) of `ns`, in microseconds.
// Reorders `ns`.
double PercentileUs(std::vector<uint32_t>& ns, double q);

// --- Per-layer counters ----------------------------------------------------------
// Counters of every layer, summed over the run's TxManagers (one per shard).
struct Layers {
  uint64_t t_ns = 0;
  uint64_t cpu_ns = 0;
  // nvm: main and backup pools; main-pool drains per persist site, with any
  // "shard<i>/" prefix stripped so shards aggregate.
  kamino::nvm::PoolStats main;
  kamino::nvm::PoolStats backup;
  std::map<std::string, uint64_t> site_drains;
  // alloc
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t bytes_allocated = 0;
  uint64_t bytes_reserved = 0;
  // txn lock / log / engine / applier
  kamino::txn::LockStats lock;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t apply_batches = 0;
  uint64_t coalesced_ranges = 0;
  uint64_t log_blocked_acquires = 0;
  uint64_t log_blocked_wait_ns = 0;
  std::vector<uint64_t> committed_per_mgr;
  std::vector<uint64_t> lag_p50_ns;  // Since creation (the engine keeps no window).
  std::vector<uint64_t> lag_p99_ns;
  // Filled by the workload where they exist.
  uint64_t cross_shard_commits = 0;
  uint64_t single_shard_multi_updates = 0;
  uint64_t workload_aborted = 0;
};

Layers Snapshot(const std::vector<kamino::txn::TxManager*>& mgrs);

// --- Report ------------------------------------------------------------------------
// Every metric printed as a human line ("metric <name> = <value> <unit>
// [note]"), and those selected for the result object in the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void PrintLines(FILE* out) const;
  // {"name": {"value": v, "unit": u}, ...} for every metric.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

std::string FormatDouble(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
