// Chain orchestrator: builds a replicated KV chain (traditional chain
// replication, or Kamino-Tx-Chain per paper §5), exposes the client API, and
// drives failure injection + repair.
//
// Geometry (Table 1): a traditional chain tolerating f failures has f+1
// replicas, each paying a data copy (undo log) in the critical path;
// Kamino-Tx-Chain has f+2 replicas performing in-place updates, with a
// backup only at the head.
//
// Failure handling has two entry points that converge on the same repair:
//   - KillReplica(): test/orchestrator-driven fail-stop injection.
//   - The replicas' heartbeat failure detector (ChainOptions::
//     heartbeat_interval_ms > 0): a silent neighbour is reported to the
//     MembershipManager, which excises it and notifies this orchestrator;
//     a background repair thread fences the suspect and re-wires the chain.

#ifndef SRC_CHAIN_CHAIN_H_
#define SRC_CHAIN_CHAIN_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/chain/membership.h"
#include "src/chain/replica.h"
#include "src/kv/store.h"
#include "src/net/network.h"

namespace kamino::chain {

struct ChainOptions {
  bool kamino = true;       // Kamino-Tx-Chain vs traditional chain.
  int f = 2;                // Failures to tolerate.
  double head_alpha = 1.0;  // Head backup budget (Kamino only).
  uint64_t pool_size = 64ull << 20;
  uint64_t log_region_size = 8ull << 20;
  uint32_t one_way_latency_us = 10;  // The paper's l_n.
  uint32_t flush_latency_ns = 0;     // Emulated NVM write-back cost per line.
  // Overall client deadline: a call that cannot complete within this returns
  // a typed error (kDegraded when the chain is below full strength,
  // kUnavailable otherwise) instead of hanging.
  uint64_t client_timeout_ms = 10'000;
  // Per-attempt wait before a client write/read retries (doubles up to the
  // overall deadline). Retries are exactly-once: each call carries one
  // request id and the head dedups re-executions.
  uint64_t client_retry_base_ms = 500;
  // Failure detector (per replica). 0 keeps it off: failures must then be
  // injected via KillReplica.
  uint32_t heartbeat_interval_ms = 0;
  uint32_t suspicion_timeout_ms = 500;
  // In-flight op retransmission backoff (see ReplicaOptions).
  uint32_t retx_base_ms = 50;
  uint32_t retx_cap_ms = 800;
  uint64_t fault_seed = 0x6b616d696e6f;  // Seed for injected network faults.
};

// Aggregate robustness counters: simulated-network totals plus the chain
// protocol's recovery machinery (summed over all replicas ever created).
struct ChainNetworkStats {
  net::EndpointStats net;
  uint64_t retransmits = 0;
  uint64_t state_req_retransmits = 0;
  uint64_t dedup_dropped = 0;
  uint64_t regen_acks = 0;
  uint64_t reorder_buffered = 0;
  uint64_t req_dedup_hits = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t suspicions_reported = 0;
  uint64_t suspicion_view_changes = 0;
};

class Chain final : public kv::Store {
 public:
  static Result<std::unique_ptr<Chain>> Create(const ChainOptions& options);
  ~Chain();

  // --- kv::Store API (linearizable; writes commit at the tail) -------------
  // Writes retry on timeout with the same request id until the overall
  // client deadline; the chain executes each request at most once. A write
  // the head rejects locally (kNotFound: Update, Delete, ReadModifyWrite or
  // MultiUpdate on a missing key) is final and never enters the chain.
  Result<std::string> Read(uint64_t key) override;
  Status Update(uint64_t key, std::string_view value) override;
  Status Upsert(uint64_t key, std::string_view value) override;
  Status Delete(uint64_t key) override;
  // Runs `mutate` at the head, on its current value, while the head holds
  // the key's chain lock and its execution mutex; the result travels down
  // the chain as a plain update. One chain round trip, atomic, and a retried
  // request is answered by dedup without running `mutate` again.
  Status ReadModifyWrite(uint64_t key,
                         const std::function<void(std::string&)>& mutate) override;
  // One atomic multi-object transaction across the chain.
  Status MultiUpdate(const std::vector<std::pair<uint64_t, std::string>>& writes) override;
  // Insert-or-replace of several pairs in one atomic transaction.
  Status MultiUpsert(std::vector<KvPair> pairs);
  // Stale-bounded read: answered by ANY live replica of the current view at
  // its applied epoch, round-robined across the chain — read throughput
  // scales with chain length instead of funnelling every read through the
  // head->tail hop (DESIGN.md §12). *applied_out receives the serving
  // replica's applied op watermark; see Replica::StaleRead for the exact
  // consistency contract (read-admitted, propagation-lag bounded).
  Result<std::string> ReadStale(uint64_t key, uint64_t* applied_out = nullptr);

  // --- Failure injection / repair ------------------------------------------
  // Fail-stop `node_id`: removes it from the view; promotes a new head if
  // needed; re-wires replay around the gap.
  Status KillReplica(uint64_t node_id);
  // Quick reboot (paper §5.3): the victim's volatile state and unflushed NVM
  // lines are dropped, then it rejoins, resolves incomplete transactions
  // against a neighbour, and asks its predecessor for a replay. To exercise
  // a power failure in the middle of an apply, arm the fault first via
  // replica_by_id(id)->ArmCrashDuringNextApply() and drive one more write
  // before calling this.
  Status RebootReplica(uint64_t node_id);
  // Repairs the chain back to full strength with a fresh tail
  // (= PrepareJoiningReplica + CompleteJoin).
  Status AddReplica();
  // Split-phase join, for crash-point enumeration: Prepare creates the
  // joining replica and its pool (so persistence observers can be installed
  // before any transfer byte moves) without touching membership; CompleteJoin
  // adds it to the view (first call only) and runs the state transfer;
  // RetryJoin power-cycles a join that lost power mid-transfer and re-runs
  // it from scratch.
  Result<uint64_t> PrepareJoiningReplica();
  Status CompleteJoin(uint64_t node_id);
  Status RetryJoin(uint64_t node_id);

  // Blocks until every admitted operation is committed and cleaned up, or
  // the deadline passes (kUnavailable). A partitioned/stuck replica makes
  // this time out rather than hang.
  Status Quiesce(uint64_t timeout_ms = 10'000);

  // --- Introspection ---------------------------------------------------------
  size_t num_replicas() const { return replicas_.size(); }
  Replica* head();
  Replica* replica_by_id(uint64_t node_id);
  const View current_view() const { return membership_->current(); }
  uint64_t total_nvm_bytes() const;
  net::Network* network() { return network_.get(); }
  MembershipManager* membership() { return membership_.get(); }
  ChainNetworkStats NetworkStats();

 private:
  explicit Chain(const ChainOptions& options);

  Status Init();
  void BroadcastView();
  ReplicaOptions MakeReplicaOptions(uint64_t node_id) const;
  // Re-wires the chain after `failed` left the view (which `before` still
  // contains). Caller holds gate_ exclusive and has already fenced the node.
  Status RepairLocked(uint64_t failed, const View& before);
  void RepairWorker();

  // Client retry driver: (re-)admits `op` at the current head until acked,
  // definitively rejected, or the overall deadline passes. `mutate`, if set,
  // turns the kUpdate `op` into a read-modify-write (Replica::AdmitWrite).
  Status RunWrite(Op op, const std::function<void(std::string&)>* mutate = nullptr);
  Status DeadlineStatus(const Status& last) const;

  ChainOptions options_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<MembershipManager> membership_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  uint64_t next_node_id_ = 1;
  std::atomic<uint64_t> next_req_id_{0};
  std::atomic<uint64_t> next_stale_{0};  // ReadStale round-robin cursor.

  // Detector-driven repair queue (fed by the membership listener from
  // replica threads; drained by repair_thread_).
  struct RepairTask {
    uint64_t failed = 0;
    View old_view;
  };
  std::mutex repair_mu_;
  std::condition_variable repair_cv_;
  std::deque<RepairTask> repair_queue_;
  bool repair_stop_ = false;
  std::thread repair_thread_;

  // Writes take this shared; recovery windows take it exclusive so the
  // neighbour-fetch protocol sees a stable object space (see replica.h).
  std::shared_mutex gate_;
};

}  // namespace kamino::chain

#endif  // SRC_CHAIN_CHAIN_H_
