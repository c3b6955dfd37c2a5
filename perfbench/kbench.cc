// kbench: the repository benchmark's load generator and measurement binary.
//
//   kbench --workload <ycsb-a-hot|tpcc-lite|sharded-read-mostly> --seed <n>
//          --seconds <s> --trace <0|1> [--smoke] [--commit <sha>]
//          [--trace-out <file.csv>]
//
// Sets the workload up several times (create + load, closed loop, 4 client
// threads), keeps the last instance, applies the fixed emulated-NVM model,
// warms up, then measures for --seconds with the workload's closed-loop
// clients (Workload::clients()). With
// --trace 1 the window is split: the first half untraced, the second half
// traced (spans written to --trace-out, applier queue depth sampled), so the
// throughput difference is the tracing overhead. After the clients stop it
// times the applier drain and runs the correctness audit.
//
// Human-readable lines ("# ..." header, "metric ..." lines) come first; the
// last line is one JSON object with every metric. perfbench/run.py selects
// the metrics BENCHMARK.json names.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/heap/heap.h"
#include "src/kv/kv_store.h"
#include "src/pds/bplus_tree.h"
#include "src/shard/sharded_store.h"
#include "src/txn/tx_manager.h"
#include "src/workload/tpcc_lite.h"
#include "src/workload/ycsb.h"

namespace perfbench {
namespace {

namespace heap = kamino::heap;
namespace kv = kamino::kv;
namespace pds = kamino::pds;
namespace shard = kamino::shard;
namespace txn = kamino::txn;
namespace workload = kamino::workload;

// The fixed emulated-NVM model (the paper-figure model): 150 ns per flushed
// cache line, spinning, no per-drain cost, on main and backup pools.
constexpr uint32_t kFlushNs = 150;
constexpr uint32_t kDrainNs = 0;
// Closed-loop threads that load the data during set-up.
constexpr int kLoadThreads = 4;
constexpr int kSetups = 5;
// End-to-end figures are computed per slice of this many seconds of the
// measured window (see AddEndToEnd).
constexpr double kSliceS = 0.25;
// Client 0 samples the applier queue depth every this many ops (traced).
constexpr uint64_t kQueueSampleEvery = 128;

// Persist sites whose main-pool drains are reported one by one; the rest
// are summed under "other".
const char* const kSites[] = {"log/acquire-slot", "log/append-intent", "log/commit-record",
                              "log/prepare-record", "log/decide-record", "log/release-slot",
                              "backup/cut"};

struct OpInfo {
  const char* span;    // Span name of the front-end call.
  const char* metric;  // Metric stem: <metric>_p50_us, <metric>_p99_us.
  bool write;
};

// Tag of client `c`'s next written value: (client + 1, write sequence).
uint64_t WriterTag(Client& c) {
  return (static_cast<uint64_t>(c.id + 1) << 48) | (c.writes++ & ((1ull << 48) - 1));
}

// Runs fn(key) for every key in [0, n) on kLoadThreads threads, each issuing
// its next call only after the previous returned. First error wins.
Status ParallelLoad(uint64_t n, const std::function<Status(uint64_t, std::string*)>& fn) {
  std::vector<Status> status(kLoadThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string buf;
      for (uint64_t k = static_cast<uint64_t>(t); k < n; k += kLoadThreads) {
        Status st = fn(k, &buf);
        if (!st.ok()) {
          status[static_cast<size_t>(t)] = st;
          return;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (const Status& st : status) {
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

// Checks every key in [0, n) is present once, in order, with a valid value,
// reading through `scan` in chunks. Returns an error describing the first
// problem.
Status AuditKeys(uint64_t n,
                 const std::function<Result<std::vector<std::pair<uint64_t, std::string>>>(
                     uint64_t, size_t)>& scan) {
  uint64_t seen = 0;
  uint64_t next = 0;
  while (true) {
    auto r = scan(next, 4096);
    if (!r.ok()) {
      return r.status();
    }
    if (r->empty()) {
      break;
    }
    for (const auto& [key, value] : *r) {
      if (!CheckValue(key, value)) {
        return Status::Corruption("bad value for key " + std::to_string(key));
      }
      ++seen;
      next = key + 1;
    }
  }
  if (seen != n) {
    return Status::Corruption("found " + std::to_string(seen) + " keys, loaded " +
                              std::to_string(n));
  }
  return Status::Ok();
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string Describe() const = 0;
  virtual const std::vector<OpInfo>& ops() const = 0;
  // Closed-loop clients in the measured window.
  virtual int clients() const { return 4; }
  // Create + load a fresh instance (the previous one is torn down first).
  virtual Status Setup() = 0;
  virtual void Teardown() = 0;
  virtual std::vector<txn::TxManager*> managers() = 0;
  virtual void BindClients(std::vector<Client>& clients) { (void)clients; }
  // One closed-loop step of client `c`: generate a request, make the timed
  // front-end call, check what it returned.
  virtual void Step(Client& c) = 0;
  // Workload-level counters (shard 2PC, TPC-C aborts).
  virtual void Extra(Layers* l) { (void)l; }
  virtual std::vector<pds::BPlusTree*> trees() = 0;
  // Content checks after the drain: keys, values, workload invariants.
  virtual Status AuditContents() = 0;
  // Live user bytes (keys + values).
  virtual uint64_t UserBytes() = 0;
};

// --- ycsb-a-hot ------------------------------------------------------------------
class YcsbHot : public Workload {
 public:
  explicit YcsbHot(bool smoke) : nkeys_(smoke ? 2'000 : 20'000), key_count_(nkeys_) {}

  std::string Describe() const override {
    return "KvStore keys=" + std::to_string(nkeys_) +
           " value=1024B mix=YCSB-A(50r/50u) dist=scrambled-zipfian(0.99)";
  }
  const std::vector<OpInfo>& ops() const override {
    static const std::vector<OpInfo> kOps = {{"kv.read", "read", false},
                                             {"kv.update", "update", true}};
    return kOps;
  }
  // Two clients and the applier leave a CPU spare on a 4-CPU host. With four,
  // every dependent wait chains through wake-ups of threads on busy CPUs, so
  // p99 measures the host's scheduler: 150-520 us from run to run.
  int clients() const override { return 2; }

  Status Setup() override {
    Teardown();
    heap::HeapOptions hopts;
    hopts.pool_size = nkeys_ * kValueSize * 3 + (96ull << 20);
    hopts.log_region_size = 16ull << 20;
    auto h = heap::Heap::Create(hopts);
    if (!h.ok()) {
      return h.status();
    }
    heap_ = std::move(*h);
    auto m = txn::TxManager::Create(heap_.get(), txn::TxManagerOptions());
    if (!m.ok()) {
      return m.status();
    }
    mgr_ = std::move(*m);
    auto s = kv::KvStore::Create(mgr_.get());
    if (!s.ok()) {
      return s.status();
    }
    store_ = std::move(*s);
    Status st = ParallelLoad(nkeys_, [&](uint64_t k, std::string* buf) {
      FillValue(k, 0, buf);
      return store_->Upsert(k, *buf);
    });
    mgr_->WaitIdle();
    return st;
  }
  void Teardown() override {
    gens_.clear();
    store_.reset();
    mgr_.reset();
    heap_.reset();
  }
  std::vector<txn::TxManager*> managers() override { return {mgr_.get()}; }

  void BindClients(std::vector<Client>& clients) override {
    for (Client& c : clients) {
      gens_.push_back(std::make_unique<workload::YcsbGenerator>(workload::YcsbWorkload::kA,
                                                                 nkeys_, &key_count_,
                                                                 c.rng.Next()));
    }
  }

  void Step(Client& c) override {
    const workload::YcsbGenerator::Request req = gens_[static_cast<size_t>(c.id)]->Next();
    if (req.op == workload::YcsbOp::kRead) {
      Result<std::string> r = c.Time(0, [&] { return store_->Read(req.key); });
      if (r.ok() && !CheckValue(req.key, *r)) {
        c.BadValue();
      }
      return;
    }
    FillValue(req.key, WriterTag(c), &c.value);
    c.Time(1, [&] { return store_->Update(req.key, c.value); });
  }

  std::vector<pds::BPlusTree*> trees() override { return {store_->tree()}; }

  Status AuditContents() override {
    return AuditKeys(nkeys_,
                     [&](uint64_t start, size_t limit) { return store_->Scan(start, limit); });
  }
  uint64_t UserBytes() override { return nkeys_ * (sizeof(uint64_t) + kValueSize); }

 private:
  const uint64_t nkeys_;
  std::atomic<uint64_t> key_count_;
  std::unique_ptr<heap::Heap> heap_;
  std::unique_ptr<txn::TxManager> mgr_;
  std::unique_ptr<kv::KvStore> store_;
  std::vector<std::unique_ptr<workload::YcsbGenerator>> gens_;
};

// --- sharded-read-mostly ---------------------------------------------------------------
class ShardedReadMostly : public Workload {
 public:
  explicit ShardedReadMostly(bool smoke) : nkeys_(smoke ? 8'192 : 262'144) {}

  std::string Describe() const override {
    return "ShardedStore shards=4 keys=" + std::to_string(nkeys_) +
           " value=1024B(2KB class) mix=90r/5u/5multi2 dist=uniform";
  }
  const std::vector<OpInfo>& ops() const override {
    static const std::vector<OpInfo> kOps = {{"shard.read", "read", false},
                                             {"shard.update", "update", true},
                                             {"shard.multi_update", "multi_update", true}};
    return kOps;
  }

  Status Setup() override {
    Teardown();
    shard::ShardedStoreOptions o;
    o.num_shards = 4;
    // 1 KB values occupy 2 KB blocks; leave room for tree nodes and slack.
    o.pool_size = nkeys_ / 4 * 2048 * 5 / 4 + (64ull << 20);
    auto s = shard::ShardedStore::Create(o);
    if (!s.ok()) {
      return s.status();
    }
    store_ = std::move(*s);
    Status st = ParallelLoad(nkeys_, [&](uint64_t k, std::string* buf) {
      FillValue(k, 0, buf);
      return store_->Upsert(k, *buf);
    });
    store_->WaitIdle();
    return st;
  }
  void Teardown() override { store_.reset(); }
  std::vector<txn::TxManager*> managers() override {
    std::vector<txn::TxManager*> out;
    for (int i = 0; i < store_->num_shards(); ++i) {
      out.push_back(store_->shard_manager(static_cast<size_t>(i)));
    }
    return out;
  }
  void BindClients(std::vector<Client>& clients) override { multi_.resize(clients.size()); }

  void Step(Client& c) override {
    const double dice = c.rng.NextDouble();
    const uint64_t k1 = c.rng.NextBounded(nkeys_);
    if (dice < 0.90) {
      Result<std::string> r = c.Time(0, [&] { return store_->Read(k1); });
      if (r.ok() && !CheckValue(k1, *r)) {
        c.BadValue();
      }
      return;
    }
    if (dice < 0.95) {
      FillValue(k1, WriterTag(c), &c.value);
      c.Time(1, [&] { return store_->Update(k1, c.value); });
      return;
    }
    uint64_t k2 = c.rng.NextBounded(nkeys_ - 1);
    k2 += k2 >= k1 ? 1 : 0;
    std::vector<std::pair<uint64_t, std::string>>& w = multi_[static_cast<size_t>(c.id)];
    w.resize(2);
    w[0].first = k1;
    w[1].first = k2;
    FillValue(k1, WriterTag(c), &w[0].second);
    FillValue(k2, WriterTag(c), &w[1].second);
    c.Time(2, [&] { return store_->MultiUpdate(w); });
  }

  void Extra(Layers* l) override {
    const shard::ShardedStore::CrossShardStats s = store_->cross_shard_stats();
    l->cross_shard_commits = s.cross_shard_commits;
    l->single_shard_multi_updates = s.single_shard_multi_updates;
  }

  std::vector<pds::BPlusTree*> trees() override {
    std::vector<pds::BPlusTree*> out;
    for (int i = 0; i < store_->num_shards(); ++i) {
      out.push_back(store_->shard_store(static_cast<size_t>(i))->tree());
    }
    return out;
  }

  // Through the sharded scan, which merges the shards' backup snapshots.
  Status AuditContents() override {
    return AuditKeys(nkeys_,
                     [&](uint64_t start, size_t limit) { return store_->Scan(start, limit); });
  }
  uint64_t UserBytes() override { return nkeys_ * (sizeof(uint64_t) + kValueSize); }

 private:
  const uint64_t nkeys_;
  std::unique_ptr<shard::ShardedStore> store_;
  std::vector<std::vector<std::pair<uint64_t, std::string>>> multi_;
};

// --- tpcc-lite -----------------------------------------------------------------------------
class TpccWorkload : public Workload {
 public:
  explicit TpccWorkload(bool smoke) { options_.warehouses = smoke ? 1 : 4; }

  std::string Describe() const override {
    return "TpccLite warehouses=" + std::to_string(options_.warehouses) +
           " districts=" + std::to_string(options_.districts) +
           " customers=" + std::to_string(options_.customers) +
           " items=" + std::to_string(options_.items) + " mix=45/43/4/4/4";
  }
  // Indexed by TpccLite::TxKind.
  const std::vector<OpInfo>& ops() const override {
    static const std::vector<OpInfo> kOps = {{"tpcc.new_order", "new_order", true},
                                             {"tpcc.payment", "payment", true},
                                             {"tpcc.order_status", "order_status", false},
                                             {"tpcc.delivery", "delivery", true},
                                             {"tpcc.stock_level", "stock_level", false}};
    return kOps;
  }

  Status Setup() override {
    Teardown();
    heap::HeapOptions hopts;
    hopts.pool_size = 1ull << 30;
    hopts.log_region_size = 16ull << 20;
    auto h = heap::Heap::Create(hopts);
    if (!h.ok()) {
      return h.status();
    }
    heap_ = std::move(*h);
    auto m = txn::TxManager::Create(heap_.get(), txn::TxManagerOptions());
    if (!m.ok()) {
      return m.status();
    }
    mgr_ = std::move(*m);
    // TpccLite keeps its eight trees private. Their headers are the small
    // allocations TpccLite::Create adds; attach a handle to each so the
    // audit can validate and count them.
    std::set<uint64_t> before;
    heap_->allocator()->ForEachAllocation([&](uint64_t off, uint64_t) { before.insert(off); });
    auto t = workload::TpccLite::Create(mgr_.get(), options_);
    if (!t.ok()) {
      return t.status();
    }
    tpcc_ = std::move(*t);
    std::vector<uint64_t> headers;
    heap_->allocator()->ForEachAllocation([&](uint64_t off, uint64_t size) {
      if (before.count(off) == 0 && size < 512) {  // Smaller than a tree node.
        headers.push_back(off);
      }
    });
    for (uint64_t off : headers) {
      auto tree = pds::BPlusTree::Attach(mgr_.get(), off);
      if (!tree.ok()) {
        return tree.status();
      }
      trees_.push_back(std::move(*tree));
    }
    if (trees_.size() != 8) {
      return Status::Internal("expected 8 TPC-C trees, found " + std::to_string(trees_.size()));
    }
    return tpcc_->Load();
  }
  void Teardown() override {
    trees_.clear();
    tpcc_.reset();
    mgr_.reset();
    heap_.reset();
  }
  std::vector<txn::TxManager*> managers() override { return {mgr_.get()}; }

  void Step(Client& c) override {
    const workload::TpccLite::TxKind kind = tpcc_->NextKind(c.rng);
    c.Time(static_cast<uint8_t>(kind), [&] { return tpcc_->RunTransaction(kind, c.rng); });
  }

  void Extra(Layers* l) override { l->workload_aborted = tpcc_->stats().aborted; }

  std::vector<pds::BPlusTree*> trees() override {
    std::vector<pds::BPlusTree*> out;
    for (auto& t : trees_) {
      out.push_back(t.get());
    }
    return out;
  }

  // TPC-C consistency: every committed NewOrder inserted exactly one order
  // and 5..max_order_lines order lines (Load inserts neither).
  Status AuditContents() override {
    const uint64_t n = tpcc_->stats().new_order;
    bool orders = false;
    bool lines = false;
    for (auto& t : trees_) {
      const uint64_t keys = t->Stats().keys;
      orders |= keys == n;
      lines |= n > 0 && keys >= 5 * n && keys <= options_.max_order_lines * n;
    }
    if (!orders || !lines) {
      return Status::Corruption("no order/order-line table matches " + std::to_string(n) +
                                " committed NewOrders");
    }
    return Status::Ok();
  }

  uint64_t UserBytes() override {
    uint64_t bytes = 0;
    for (auto& t : trees_) {
      auto first = t->Scan(0, 1);
      if (first.ok() && !first->empty()) {
        bytes += t->Stats().keys * (sizeof(uint64_t) + first->front().second.size());
      }
    }
    return bytes;
  }

 private:
  workload::TpccLite::Options options_;
  std::unique_ptr<heap::Heap> heap_;
  std::unique_ptr<txn::TxManager> mgr_;
  std::unique_ptr<workload::TpccLite> tpcc_;
  std::vector<std::unique_ptr<pds::BPlusTree>> trees_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke) {
  if (name == "ycsb-a-hot") {
    return std::make_unique<YcsbHot>(smoke);
  }
  if (name == "tpcc-lite") {
    return std::make_unique<TpccWorkload>(smoke);
  }
  if (name == "sharded-read-mostly") {
    return std::make_unique<ShardedReadMostly>(smoke);
  }
  return nullptr;
}

// --- Audit -----------------------------------------------------------------------------------
// Kamino's main/backup convergence: after the drain, every live allocation
// reads the same through main and through the backup's snapshot interface.
Status AuditConvergence(txn::TxManager* mgr, uint64_t* checked_bytes) {
  txn::BackupStore* backup = mgr->backup_store();
  if (backup == nullptr || !backup->supports_snapshot_reads()) {
    return Status::NotSupported("engine has no readable backup");
  }
  auto view = backup->OpenSnapshot();
  if (!view.ok()) {
    return view.status();
  }
  Status result = Status::Ok();
  std::vector<uint8_t> buf;
  mgr->heap()->allocator()->ForEachAllocation([&](uint64_t off, uint64_t size) {
    if (!result.ok()) {
      return;
    }
    buf.resize(size);
    Status st = view->Read(off, size, buf.data());
    if (!st.ok()) {
      result = st;
    } else if (std::memcmp(buf.data(), mgr->heap()->pool()->At(off), size) != 0) {
      result = Status::Corruption("main and backup differ at offset " + std::to_string(off));
    }
    *checked_bytes += size;
  });
  return result;
}

// --- Metrics ---------------------------------------------------------------------------------
struct Window {
  uint8_t phase;
  uint64_t start_ns;
  uint64_t end_ns;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

struct WindowCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok_writes = 0;
  std::vector<std::vector<uint32_t>> lat;  // Per op, OK samples only.
};

// Counts the samples of `win`, split into `slices` equal slices by start
// time (slices == 1: the whole window).
std::vector<WindowCounts> Count(const std::vector<Client>& clients, const Workload& w,
                                const Window& win, int slices) {
  std::vector<WindowCounts> out(static_cast<size_t>(slices));
  for (WindowCounts& wc : out) {
    wc.lat.resize(w.ops().size());
  }
  const uint64_t len = win.end_ns - win.start_ns;
  for (const Client& c : clients) {
    for (const Sample& s : c.samples) {
      if (s.phase != win.phase) {
        continue;
      }
      const uint64_t off = std::min(s.start_ns - std::min(s.start_ns, win.start_ns), len - 1);
      WindowCounts& wc = out[static_cast<size_t>(off * static_cast<uint64_t>(slices) / len)];
      ++wc.attempted;
      if (!s.ok) {
        ++wc.failed;
        continue;
      }
      wc.lat[s.op].push_back(s.dur_ns);
      wc.ok_writes += w.ops()[s.op].write ? 1 : 0;
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string N(uint64_t n) { return "n=" + std::to_string(n); }

// Whether each interval, given the host CPU steal during it, is among the
// least stolen: at or below the 10th percentile of `steal`, ties included,
// so at least one in ten and every interval that read 0. On a shared host,
// throughput and set-up time fall steeply with steal (a descheduled applier
// or lock holder stalls every client waiting on it), while steal comes from
// outside the program, so which intervals count does not follow how the
// program did in them. Where steal is not reported, every interval counts.
std::vector<bool> LeastStolen(const std::vector<uint64_t>& steal) {
  std::vector<uint64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const uint64_t cut = sorted[(sorted.size() - 1) / 10];
  std::vector<bool> keep;
  for (uint64_t s : steal) {
    keep.push_back(s <= cut);
  }
  return keep;
}

// End-to-end metrics of the untraced window, cut into the kSliceS slices
// whose steal `slice_steal` holds. Each figure is computed exactly within
// every slice, and the reported value is its median over the LeastStolen
// slices: a change that slows more than half of them moves it. The
// whole-window value is printed beside it.
void AddEndToEnd(Report& r, const Workload& w, const std::vector<Client>& clients,
                 const Window& win, const std::vector<uint64_t>& slice_steal) {
  const std::vector<OpInfo>& ops = w.ops();
  const WindowCounts all = Count(clients, w, win, 1)[0];
  const int nslices = static_cast<int>(slice_steal.size());
  const std::vector<WindowCounts> slices = Count(clients, w, win, nslices);
  const double slice_s = win.seconds() / nslices;
  const std::vector<bool> keep = LeastStolen(slice_steal);
  uint64_t max_kept_steal = 0;
  std::vector<double> tput;
  std::vector<std::vector<double>> p50(ops.size());
  std::vector<std::vector<double>> p99(ops.size());
  for (size_t s = 0; s < slices.size(); ++s) {
    if (!keep[s]) {
      continue;
    }
    max_kept_steal = std::max(max_kept_steal, slice_steal[s]);
    const WindowCounts& wc = slices[s];
    tput.push_back(static_cast<double>(wc.attempted - wc.failed) / slice_s);
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<uint32_t> lat = wc.lat[i];
      p50[i].push_back(PercentileUs(lat, 50));
      p99[i].push_back(PercentileUs(lat, 99));
    }
  }
  const std::string of = "median of " + std::to_string(tput.size()) + "/" +
                         std::to_string(nslices) + " slices with steal <= " +
                         std::to_string(max_kept_steal) + " ticks; ";
  r.Add("throughput_ops_s", Median(tput), "ops/s",
        of + "whole " + FormatDouble(static_cast<double>(all.attempted - all.failed) /
                                     win.seconds()) +
            ", " + N(all.attempted - all.failed) + " in " + FormatDouble(win.seconds()) + " s");
  for (size_t op = 0; op < ops.size(); ++op) {
    std::vector<uint32_t> lat = all.lat[op];
    const double whole50 = PercentileUs(lat, 50);
    const double whole99 = PercentileUs(lat, 99);
    const std::string name = ops[op].metric;
    const std::string note = of + N(all.lat[op].size()) + " op=" + ops[op].span;
    r.Add(name + "_p50_us", Median(p50[op]), "us",
          note + " whole=" + FormatDouble(whole50));
    r.Add(name + "_p99_us", Median(p99[op]), "us",
          note + " whole=" + FormatDouble(whole99));
  }
  r.Add("op_failure_ratio",
        Ratio(static_cast<double>(all.failed), static_cast<double>(all.attempted)), "ratio",
        std::to_string(all.failed) + " of " + std::to_string(all.attempted));
}

std::string SiteMetric(std::string site) {
  std::replace(site.begin(), site.end(), '/', '.');
  return "nvm.site_drains_per_write_txn." + site;
}

// Per-layer metrics over [a, b] (the traced window when tracing, else the
// measured window).
void AddPerLayer(Report& r, const Layers& a, const Layers& b, const WindowCounts& wc,
                 const std::vector<Client>& clients) {
  const double ops = static_cast<double>(wc.attempted);
  const double wtx = static_cast<double>(wc.ok_writes);
  const auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  r.Add("nvm.main_lines_per_op", Ratio(d(b.main.lines_flushed, a.main.lines_flushed), ops),
        "lines/op");
  r.Add("nvm.main_drains_per_write_txn", Ratio(d(b.main.drain_calls, a.main.drain_calls), wtx),
        "drains/txn");
  r.Add("nvm.backup_lines_per_op", Ratio(d(b.backup.lines_flushed, a.backup.lines_flushed), ops),
        "lines/op");
  std::map<std::string, uint64_t> sites;
  for (const auto& [site, drains] : b.site_drains) {
    auto it = a.site_drains.find(site);
    sites[site] = drains - (it == a.site_drains.end() ? 0 : it->second);
  }
  uint64_t other = 0;
  for (const auto& [site, drains] : sites) {
    if (std::find_if(std::begin(kSites), std::end(kSites),
                     [&](const char* s) { return site == s; }) == std::end(kSites)) {
      other += drains;
    }
  }
  for (const char* site : kSites) {
    r.Add(SiteMetric(site), Ratio(static_cast<double>(sites[site]), wtx), "drains/txn");
  }
  r.Add(SiteMetric("other"), Ratio(static_cast<double>(other), wtx), "drains/txn");

  r.Add("alloc.allocs_per_txn", Ratio(d(b.alloc_calls, a.alloc_calls), wtx), "count/txn");
  r.Add("alloc.frees_per_txn", Ratio(d(b.free_calls, a.free_calls), wtx), "count/txn");
  r.Add("alloc.reserved_per_live_byte",
        Ratio(static_cast<double>(b.bytes_reserved), static_cast<double>(b.bytes_allocated)),
        "ratio");

  r.Add("txn.log.blocked_acquires_per_write_txn",
        Ratio(d(b.log_blocked_acquires, a.log_blocked_acquires), wtx), "count/txn");
  r.Add("txn.log.blocked_wait_us_per_write_txn",
        Ratio(d(b.log_blocked_wait_ns, a.log_blocked_wait_ns) / 1000.0, wtx), "us/txn");

  const double acquires = d(b.lock.write_acquires + b.lock.read_acquires,
                            a.lock.write_acquires + a.lock.read_acquires);
  r.Add("txn.lock.blocked_ratio", Ratio(d(b.lock.blocked_acquires, a.lock.blocked_acquires), acquires),
        "ratio");
  r.Add("txn.lock.block_us_per_op",
        Ratio(d(b.lock.total_block_ns, a.lock.total_block_ns) / 1000.0, ops), "us/op");
  r.Add("txn.lock.timeouts", d(b.lock.timeouts, a.lock.timeouts), "count");

  const double committed = d(b.committed, a.committed);
  const double aborted = d(b.aborted, a.aborted);
  const uint64_t lag50 = *std::max_element(b.lag_p50_ns.begin(), b.lag_p50_ns.end());
  const uint64_t lag99 = *std::max_element(b.lag_p99_ns.begin(), b.lag_p99_ns.end());
  r.Add("txn.applier.lag_p50_us", static_cast<double>(lag50) / 1000.0, "us",
        "engine histogram since create, max over managers");
  r.Add("txn.applier.lag_p99_us", static_cast<double>(lag99) / 1000.0, "us",
        "engine histogram since create, max over managers");
  r.Add("txn.applier.batches_per_txn", Ratio(d(b.apply_batches, a.apply_batches), committed),
        "count/txn");
  r.Add("txn.applier.coalesced_ranges_per_txn",
        Ratio(d(b.coalesced_ranges, a.coalesced_ranges), committed), "count/txn");
  const std::vector<uint64_t>& qd = clients[0].queue_depth;
  double qsum = 0;
  for (uint64_t q : qd) {
    qsum += static_cast<double>(q);
  }
  r.Add("txn.applier.queue_depth_mean", Ratio(qsum, static_cast<double>(qd.size())), "count",
        N(qd.size()) + " samples by client 0");
  r.Add("txn.engine.abort_ratio", Ratio(aborted, committed + aborted), "ratio");

  // Shard balance: max / mean of per-manager commits in the window.
  double max_c = 0;
  double sum_c = 0;
  for (size_t i = 0; i < b.committed_per_mgr.size(); ++i) {
    const double c = d(b.committed_per_mgr[i], a.committed_per_mgr[i]);
    max_c = std::max(max_c, c);
    sum_c += c;
  }
  const double multi = d(b.cross_shard_commits + b.single_shard_multi_updates,
                         a.cross_shard_commits + a.single_shard_multi_updates);
  r.Add("shard.cross_shard_ratio", Ratio(d(b.cross_shard_commits, a.cross_shard_commits), multi),
        "ratio", "cross-shard commits / multi-key updates");
  r.Add("shard.load_imbalance",
        Ratio(max_c, sum_c / static_cast<double>(b.committed_per_mgr.size())), "ratio",
        std::to_string(b.committed_per_mgr.size()) + " engine(s)");
  r.Add("shard.max_applier_lag_p99_us", static_cast<double>(lag99) / 1000.0, "us");

  // Harness cost (traced window): time inside a step outside the front-end
  // call, i.e. request generation, value fill/check and sample recording.
  double harness_ns = 0;
  uint64_t steps = 0;
  for (const Client& c : clients) {
    harness_ns += static_cast<double>(c.harness_ns);
    steps += c.harness_steps;
  }
  r.Add("workload.gen_ns_per_op", Ratio(harness_ns, static_cast<double>(steps)), "ns",
        N(steps) + " traced steps");
  r.Add("workload.cpu_util",
        Ratio(d(b.cpu_ns, a.cpu_ns),
              d(b.t_ns, a.t_ns) * static_cast<double>(std::thread::hardware_concurrency())),
        "ratio", "process CPU / wall / nproc");
  r.Add("workload.op_failure_ratio", Ratio(static_cast<double>(wc.failed), ops), "ratio");
}

// --- Spans -----------------------------------------------------------------------------------
struct HarnessSpan {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

Status WriteSpans(const std::string& path, const Workload& w, const std::vector<Client>& clients,
                  const std::vector<HarnessSpan>& harness, uint64_t t0) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write " + path);
  }
  std::fprintf(f, "name,client,seq,start_ns,end_ns\n");
  for (const HarnessSpan& s : harness) {
    std::fprintf(f, "%s,main,0,%llu,%llu\n", s.name,
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0));
  }
  for (const Client& c : clients) {
    for (size_t i = 0; i < c.samples.size(); ++i) {
      const Sample& s = c.samples[i];
      if (s.phase != kTraced) {
        continue;
      }
      std::fprintf(f, "%s,%d,%zu,%llu,%llu\n", w.ops()[s.op].span, c.id, i,
                   static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.start_ns + s.dur_ns - t0));
    }
  }
  return std::fclose(f) == 0 ? Status::Ok() : Status::IoError("cannot write " + path);
}

// --- Main ------------------------------------------------------------------------------------
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = v == "1";
      if (v != "0" && v != "1") {
        return false;
      }
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && a->seconds > 0;
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<uint64_t>(s * 1e9)));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kbench --workload <ycsb-a-hot|tpcc-lite|sharded-read-mostly> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] [--commit <sha>] [--trace-out <csv>]\n");
    return 2;
  }
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (!optimized && !args.smoke) {
    std::fprintf(stderr, "kbench: refusing to report numbers from an unoptimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.smoke);
  if (w == nullptr) {
    std::fprintf(stderr, "kbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint64_t t0 = NowNs();
  const double warmup_s = std::min(2.0, args.seconds / 5);
  std::printf("# perfbench workload=%s seed=%llu seconds=%s trace=%d smoke=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              FormatDouble(args.seconds).c_str(), args.trace ? 1 : 0, args.smoke ? 1 : 0);
  std::printf("# build type=%s flags=\"%s\" optimized=%d NDEBUG=%d commit=%s nproc=%u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_BUILD_FLAGS, optimized ? 1 : 0,
#ifdef NDEBUG
              1,
#else
              0,
#endif
              args.commit.c_str(), std::thread::hardware_concurrency());
  std::printf("# nvm model: %u ns/flushed line, %u ns/drain, spin, main+backup pools (set after load)\n",
              kFlushNs, kDrainNs);
  std::printf("# engine: %s, default TxManagerOptions (1 applier, no epoch commit)\n",
              txn::EngineTypeName(txn::EngineType::kKaminoSimple));
  std::printf("# sizes: %s; clients=%d closed loop (load: %d); setups=%d; warmup=%ss\n",
              w->Describe().c_str(), w->clients(), kLoadThreads, kSetups,
              FormatDouble(warmup_s).c_str());
  std::fflush(stdout);

  // Set-up, repeated; the last instance is the one measured.
  std::vector<HarnessSpan> harness_spans;
  std::vector<double> setup_s;
  std::vector<uint64_t> setup_steal;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t steal0 = StealTicks();
    const uint64_t s0 = NowNs();
    Status st = w->Setup();
    const uint64_t s1 = NowNs();
    setup_steal.push_back(StealTicks() - steal0);
    if (!st.ok()) {
      std::fprintf(stderr, "kbench: setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(s1 - s0) / 1e9);
    harness_spans.push_back({"setup.load", s0, s1});
  }
  // Live user bytes as loaded, so the ratio does not follow throughput.
  const uint64_t user_bytes = w->UserBytes();
  const std::vector<txn::TxManager*> mgrs = w->managers();
  for (txn::TxManager* m : mgrs) {
    m->heap()->pool()->set_latency(kFlushNs, kDrainNs, false);
    if (m->backup_pool() != nullptr) {
      m->backup_pool()->set_latency(kFlushNs, kDrainNs, false);
    }
  }

  std::vector<Client> clients(static_cast<size_t>(w->clients()));
  for (int i = 0; i < w->clients(); ++i) {
    uint64_t sm = args.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i);
    clients[static_cast<size_t>(i)].id = i;
    clients[static_cast<size_t>(i)].rng = kamino::Xoshiro256(kamino::SplitMix64(sm));
    clients[static_cast<size_t>(i)].samples.reserve(
        static_cast<size_t>(std::min(args.seconds, 60.0) * 300'000));
  }
  w->BindClients(clients);

  const auto snap = [&] {
    Layers l = Snapshot(mgrs);
    w->Extra(&l);
    return l;
  };
  const auto queue_depth = [&] {
    uint64_t q = 0;
    for (txn::TxManager* m : mgrs) {
      q += m->engine()->stats().applier_queue_depth;
    }
    return q;
  };

  std::atomic<uint8_t> phase{kWarmup};
  const Layers start = snap();
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&, cp = &c] {
      Client& cl = *cp;
      uint64_t n = 0;
      while (true) {
        cl.phase = phase.load(std::memory_order_acquire);
        if (cl.phase == kStop) {
          break;
        }
        if (cl.phase != kTraced) {
          w->Step(cl);
          continue;
        }
        const uint64_t step_start = NowNs();
        w->Step(cl);
        cl.harness_ns += NowNs() - step_start - cl.samples.back().dur_ns;
        ++cl.harness_steps;
        if (cl.id == 0 && ++n % kQueueSampleEvery == 0) {
          cl.queue_depth.push_back(queue_depth());
        }
      }
    });
  }
  SleepSeconds(warmup_s);
  const Layers m0 = snap();
  Window measure{kMeasure, NowNs(), 0};
  phase.store(kMeasure, std::memory_order_release);
  const double measure_s = args.trace ? args.seconds / 2 : args.seconds;
  const int nslices = std::max(1, static_cast<int>(std::lround(measure_s / kSliceS)));
  std::vector<uint64_t> slice_steal;
  for (uint64_t i = 1, steal = StealTicks(); i <= static_cast<uint64_t>(nslices); ++i) {
    const auto slice_end = static_cast<uint64_t>(measure_s * 1e9) * i / nslices;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(measure.start_ns + slice_end)));
    const uint64_t now = StealTicks();
    slice_steal.push_back(now - steal);
    steal = now;
  }
  measure.end_ns = NowNs();
  std::printf("# host CPU steal per measured slice (ticks):");
  for (uint64_t s : slice_steal) {
    std::printf(" %llu", static_cast<unsigned long long>(s));
  }
  std::printf("\n");
  const Layers m1 = snap();
  Window traced{kTraced, 0, 0};
  if (args.trace) {
    traced.start_ns = NowNs();
    phase.store(kTraced, std::memory_order_release);
    SleepSeconds(args.seconds / 2);
    traced.end_ns = NowNs();
  }
  const Layers t1_layers = args.trace ? snap() : m1;
  phase.store(kStop, std::memory_order_release);
  for (auto& th : threads) {
    th.join();
  }
  const Layers stopped = snap();

  const uint64_t d0 = NowNs();
  for (txn::TxManager* m : mgrs) {
    m->WaitIdle();
  }
  const uint64_t d1 = NowNs();
  harness_spans.push_back({"txn.wait_idle", d0, d1});

  // --- Correctness audit ---
  std::vector<std::string> problems;
  uint64_t bad_values = 0;
  uint64_t failures = 0;
  uint64_t conflict_failures = 0;
  for (const Client& c : clients) {
    bad_values += c.bad_values;
    failures += c.failures;
    conflict_failures += c.conflict_failures;
  }
  if (bad_values > 0) {
    problems.push_back(std::to_string(bad_values) + " reads returned a wrong or torn value");
  }
  size_t tree_index = 0;
  for (pds::BPlusTree* t : w->trees()) {
    Status st = t->Validate();
    if (!st.ok()) {
      problems.push_back("tree " + std::to_string(tree_index) + ": " + st.ToString());
    }
    ++tree_index;
  }
  uint64_t converged_bytes = 0;
  for (txn::TxManager* m : mgrs) {
    Status st = AuditConvergence(m, &converged_bytes);
    if (!st.ok()) {
      problems.push_back("convergence: " + st.ToString());
    }
  }
  Status contents = w->AuditContents();
  if (!contents.ok()) {
    problems.push_back("contents: " + contents.ToString());
  }
  // Failure accounting must reconcile with the layers' own counters.
  if (conflict_failures > stopped.lock.timeouts - start.lock.timeouts) {
    problems.push_back(std::to_string(conflict_failures) + " conflict failures but only " +
                       std::to_string(stopped.lock.timeouts - start.lock.timeouts) +
                       " lock timeouts");
  }
  if (args.workload == "tpcc-lite" &&
      stopped.workload_aborted - start.workload_aborted != failures) {
    problems.push_back("TpccLite counted " +
                       std::to_string(stopped.workload_aborted - start.workload_aborted) +
                       " aborts, harness counted " + std::to_string(failures) + " failures");
  }

  // --- Metrics ---
  Report report;
  const WindowCounts mc = Count(clients, *w, measure, 1)[0];
  AddEndToEnd(report, *w, clients, measure, slice_steal);
  const std::vector<bool> keep_setup = LeastStolen(setup_steal);
  std::vector<double> kept_setup_s;
  std::string setup_note = "median of the least stolen (*) of";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setup_note += " " + FormatDouble(setup_s[i]) + "s/" + std::to_string(setup_steal[i]) +
                  "ticks" + (keep_setup[i] ? "*" : "");
    if (keep_setup[i]) {
      kept_setup_s.push_back(setup_s[i]);
    }
  }
  report.Add("setup_s", Median(kept_setup_s), "s", setup_note);
  // NVM in use, not pool sizes (those are the harness's choice): on main, the
  // heap prefix before the allocator region plus the chunks the allocator
  // has claimed. A full backup mirrors main offset for offset, so it holds
  // the same bytes; a smaller backup counts whole.
  uint64_t nvm_bytes = 0;
  for (txn::TxManager* m : mgrs) {
    const kamino::alloc::Allocator* a = m->heap()->allocator();
    const uint64_t main_used = a->region_offset() + a->stats().bytes_reserved;
    const txn::TxManager::Footprint f = m->footprint();
    nvm_bytes += main_used + (f.backup_bytes >= f.main_bytes ? main_used : f.backup_bytes);
  }
  report.Add("nvm_bytes_per_user_byte",
             Ratio(static_cast<double>(nvm_bytes), static_cast<double>(user_bytes)), "B/B",
             std::to_string(nvm_bytes) + " / " + std::to_string(user_bytes));

  const WindowCounts tc = Count(clients, *w, args.trace ? traced : measure, 1)[0];
  AddPerLayer(report, args.trace ? m1 : m0, t1_layers, tc, clients);
  report.Add("txn.applier.drain_tail_ms", static_cast<double>(d1 - d0) / 1e6, "ms",
             "WaitIdle after the last client returned");
  double leaf_fill = 0;
  uint64_t leaves = 0;
  uint64_t height = 0;
  for (pds::BPlusTree* t : w->trees()) {
    const pds::BPlusTree::TreeStats ts = t->Stats();
    leaf_fill += ts.avg_leaf_fill * static_cast<double>(ts.leaf_nodes);
    leaves += ts.leaf_nodes;
    height = std::max(height, ts.height);
  }
  report.Add("pds.tree_height", static_cast<double>(height), "count", "max over trees");
  report.Add("pds.avg_leaf_fill", Ratio(leaf_fill, static_cast<double>(leaves)), "ratio",
             N(leaves) + " leaves");
  if (args.trace) {
    const double untraced = static_cast<double>(mc.attempted) / measure.seconds();
    const double traced_tput = static_cast<double>(tc.attempted) / traced.seconds();
    report.Add("trace.overhead_ratio", Ratio(untraced - traced_tput, untraced), "ratio",
               "1 - traced/untraced throughput");
    report.Add("trace.spans", static_cast<double>(tc.attempted + harness_spans.size()), "count");
  }
  report.Add("audit.checked_backup_bytes", static_cast<double>(converged_bytes), "B");

  report.PrintLines(stdout);
  for (const std::string& p : problems) {
    std::printf("# AUDIT FAILED: %s\n", p.c_str());
  }
  if (args.trace && !args.trace_out.empty()) {
    Status st = WriteSpans(args.trace_out, *w, clients, harness_spans, t0);
    std::printf("# spans: %s (%s)\n", args.trace_out.c_str(), st.ToString().c_str());
  }

  const bool correct = problems.empty();
  std::string all = "{\"correct\": ";
  all += correct ? "true" : "false";
  all += ", \"attempted\": " + std::to_string(mc.attempted + (args.trace ? tc.attempted : 0));
  all += ", \"failed\": " +
         std::to_string(mc.failed + (args.trace ? tc.failed : 0));
  all += ", \"metrics\": " + report.Json() + "}";
  std::printf("%s\n", all.c_str());
  std::fflush(stdout);
  w->Teardown();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
