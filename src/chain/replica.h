// A chain replica: local persistent KV store + chain protocol state machine
// (paper §5).
//
// Roles:
//   - Head: runs a full Kamino-Tx engine (full or dynamic backup) for
//     Kamino-Tx-Chain, or undo-logging for the traditional chain. Executes
//     client writes locally, admits only committed transactions downstream,
//     and holds chain-level key locks until the tail acknowledges.
//   - Middle/tail (Kamino chain): the kChainReplica engine — in-place
//     updates, intent log, NO local backup; the neighbours are the copies.
//   - Middle/tail (traditional): undo-logging, i.e. a data copy in the
//     critical path at every replica — the overhead Table 1 charges as l_c.
//
// Determinism: replicas execute operations strictly in op_id order on
// identical initial heaps, so persistent object offsets are identical across
// the chain. That is what lets a rebooted replica repair the write set of an
// incomplete transaction by fetching those byte ranges from a neighbour
// (roll forward from the predecessor; roll back from the successor when
// promoted to head) — paper §5.3 and Figure 9.
//
// Lossy-network hardening (DESIGN.md §9): every received message passes a
// per-sender dedup window on (src, view_id, seq) that discards network-level
// duplicates; op forwards that arrive ahead of the apply watermark are
// buffered and applied in op_id order; every replica retransmits its
// in-flight ops downstream with exponential backoff until the tail's
// cleanup acknowledgment erases them, and duplicate forwards regenerate the
// acks/cleanups the sender is evidently missing. An optional heartbeat
// failure detector reports silent neighbours to the MembershipManager,
// which drives the view change (Chain runs the repair).

#ifndef SRC_CHAIN_REPLICA_H_
#define SRC_CHAIN_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "src/chain/anchor.h"
#include "src/chain/membership.h"
#include "src/chain/wire.h"
#include "src/net/network.h"
#include "src/pds/bplus_tree.h"
#include "src/txn/kamino_engine.h"
#include "src/txn/tx_manager.h"

namespace kamino::chain {

struct ReplicaOptions {
  uint64_t node_id = 0;
  bool kamino = true;        // Kamino-Tx-Chain vs traditional chain.
  double head_alpha = 1.0;   // Head backup budget (1.0 = full backup).
  uint64_t pool_size = 64ull << 20;
  uint64_t log_region_size = 8ull << 20;
  uint32_t flush_latency_ns = 0;  // Emulated NVM write-back cost per line.
  uint64_t client_timeout_ms = 10'000;
  // Retransmission of in-flight ops to the successor: first retry after
  // `retx_base_ms` without a cleanup ack, then doubling up to `retx_cap_ms`.
  // The base is far above the healthy end-to-end commit time, so a loss-free
  // chain never retransmits.
  uint32_t retx_base_ms = 50;
  uint32_t retx_cap_ms = 800;
  // Heartbeat failure detector. 0 disables it (failures are then only
  // injected/fenced by the orchestrator, the pre-detector behaviour).
  uint32_t heartbeat_interval_ms = 0;
  // A neighbour silent for this long is reported to the MembershipManager.
  uint32_t suspicion_timeout_ms = 500;
  net::Network* network = nullptr;
  MembershipManager* membership = nullptr;
};

// Chain-protocol counters (all volatile, monotonic since construction).
struct ReplicaProtocolStats {
  uint64_t retransmits = 0;       // In-flight ops re-forwarded downstream.
  uint64_t state_req_retransmits = 0;  // kStateReq retries during JoinAsTail.
  uint64_t dedup_dropped = 0;     // Messages discarded by the seq window.
  uint64_t regen_acks = 0;        // Acks/cleanups regenerated for duplicates.
  uint64_t reorder_buffered = 0;  // Op forwards buffered for in-order apply.
  uint64_t req_dedup_hits = 0;    // Client retries answered from the req table.
  uint64_t heartbeats_sent = 0;
  uint64_t suspicions_reported = 0;
};

class Replica {
 public:
  explicit Replica(const ReplicaOptions& options);
  ~Replica();

  // Builds pools, heap, engine (per current role) and an empty store.
  Status Init();
  void Start();
  void Stop();

  // --- Head-side client API (Chain calls these on the head replica) --------

  // Two-phase write so the orchestrator's admission gate can be released
  // before the (long) wait for the tail's acknowledgment.
  struct WriteTicket {
    bool admitted = false;
    uint64_t op_id = 0;
    std::vector<uint64_t> keys;
    Status status;  // Admission outcome.
  };
  // Takes the chain key locks, executes locally, forwards downstream. If
  // op.req_id is a request this replica has already applied (a client
  // retry), no re-execution happens: the ticket carries the original op_id
  // and WaitWrite waits for (or immediately observes) its acknowledgment —
  // exactly-once semantics across retries and head changes. With `mutate`
  // set, `op` is a one-key kUpdate whose value is `mutate` applied to the
  // key's current value, computed here under the key lock.
  WriteTicket AdmitWrite(const Op& op,
                         const std::function<void(std::string&)>* mutate = nullptr);
  // Waits for the tail ack and releases the key locks.
  Status WaitWrite(WriteTicket& ticket);
  // Same with an explicit wait bound (client retry loops use short bounds).
  Status WaitWriteFor(WriteTicket& ticket, uint64_t timeout_ms);
  // Convenience: AdmitWrite + WaitWrite.
  Status ClientWrite(const Op& op);

  // `timeout_ms` = 0 uses the configured client timeout.
  Result<std::string> ClientRead(uint64_t key, uint64_t timeout_ms = 0);

  // Stale-bounded read served directly from this replica's local store at
  // its applied op watermark — no head round-trip, no tail hop, no message
  // loop involvement, so read throughput scales with chain length
  // (DESIGN.md §12). The returned state reflects exactly the ops this
  // replica has applied: at most the chain propagation lag behind the head,
  // and possibly ahead of the tail-commit point by ops still in flight
  // downstream (admitted ops survive up to f failures — the chain's
  // durability contract — so this is read-admitted, not read-committed).
  // Linearizable reads stay on ClientRead. *applied_out receives the applied
  // watermark — the replica's epoch in the chain read model.
  Result<std::string> StaleRead(uint64_t key, uint64_t* applied_out = nullptr);

  // --- Failure injection / recovery (driven by Chain) ----------------------

  // Fail-stop: thread killed, endpoint down, volatile state lost.
  void CrashStop();
  // Arms a fault: the next applied operation executes its writes, persists
  // them partially, and then the replica "loses power" mid-transaction.
  void ArmCrashDuringNextApply();
  // Quick reboot (paper §5.3): crash-sim the pools, reattach, resolve
  // incomplete transactions via the appropriate neighbour, replay, resume.
  Status QuickReboot();
  // Head-failure promotion (paper §5.2): roll back any incomplete
  // transaction from the successor, build a local backup, take over.
  Status PromoteToHead();
  // Fresh node joining as tail: full state transfer from the predecessor.
  // Crash-atomic: the transferred image only becomes attachable when the
  // heap superblock page is installed last (`chain/join-commit`); a power
  // failure at any earlier point leaves an unattachable pool that
  // RejoinAsTail simply re-transfers (DESIGN.md §13).
  Status JoinAsTail();
  // Power-cycle + retry of a join that crashed mid state transfer: drops
  // volatile state, crash-sims the pool, and re-runs JoinAsTail from scratch.
  Status RejoinAsTail();

  void UpdateView(const View& view);

  // Asks `from_node` to resend everything in its in-flight queue (chain
  // repair after a middle-replica failure, and reboot catch-up).
  Status RequestReplay(uint64_t from_node);

  // --- Introspection --------------------------------------------------------

  uint64_t node_id() const { return options_.node_id; }
  uint64_t last_applied() const;
  bool is_head() const;
  bool alive() const { return running_.load(std::memory_order_relaxed); }
  uint64_t nvm_bytes() const;
  txn::TxManager* manager() { return mgr_.get(); }
  pds::BPlusTree* tree() { return tree_.get(); }
  // Test hooks: the replica's persistent pools, for installing persistence
  // observers (crash-point enumeration). Null before Init().
  nvm::Pool* pool() { return pool_.get(); }
  nvm::Pool* backup_pool() { return backup_pool_.get(); }
  heap::Heap* heap() { return heap_.get(); }
  // Materialize the pools ahead of Init()/JoinAsTail()/PromoteToHead() so a
  // crash-point observer can watch every persist of a view change, including
  // the ones that would otherwise create the pool mid-change. Idempotent.
  Status EnsureMainPool();
  Status EnsureBackupPool(bool force_full = false);
  // The durable promotion cursor (anchor.h). Reads the persistent field, so
  // after Pool::Crash() it reports exactly what a power failure preserved.
  uint64_t view_cursor() const;
  // Ops forwarded but not yet cleaned up.
  size_t in_flight_size() const;
  ReplicaProtocolStats protocol_stats() const;

 private:
  // The persistent anchor at the heap root is ChainAnchor (anchor.h): magic,
  // the durable promotion cursor, the tree anchor, and the applied-op marker
  // ring.

  // Dedup window per sender: seqs within kSeqWindow of the max seen are
  // tracked exactly; anything older than the window is assumed duplicate.
  static constexpr uint64_t kSeqWindow = 8192;
  struct PeerWindow {
    uint64_t max_seq = 0;
    std::set<std::pair<uint64_t, uint64_t>> seen;  // (seq, view_id)
  };

  // In-flight op: buffered for downstream replay + retransmission until the
  // cleanup ack covers it.
  struct InFlight {
    Op op;
    std::chrono::steady_clock::time_point next_retx;
    uint32_t backoff_ms = 0;
  };

  static constexpr size_t kReqTableCap = 1 << 16;

  Status BuildStore(bool attach, bool run_recovery);
  txn::TxManagerOptions MgrOptions(bool head_role) const;

  // Persists the promotion cursor (one 8-byte persist at the dedicated site
  // `chain/promote-cursor` — the reconcile_cursor pattern).
  void StampViewCursor(uint64_t value);
  // The resumable tail of a head takeover: resolve leftover log slots,
  // rebuild the manager in the head role, (Kamino) build + sync the local
  // backup, stamp the cursor complete, reattach the tree. Idempotent — a
  // crash at any persist inside re-runs it wholesale on reboot.
  Status CompletePromotion(const View& v);
  // Kills any attached heap image so a crash mid state transfer can never
  // leave a stale-but-attachable superblock (join commit protocol).
  void InvalidateHeapImage();

  uint64_t anchor_off() const { return heap_->root(); }
  uint64_t MarkerOffset(uint64_t op_id) const {
    return anchor_off() + offsetof(ChainAnchor, ring) + (op_id % kMarkerRing) * sizeof(uint64_t);
  }
  uint64_t RingMax() const;

  void Loop();
  void HandleMessage(net::Message&& msg);
  // Heartbeats, suspicion checks, retransmissions. Loop thread only.
  void TimerPass(std::chrono::steady_clock::time_point now);
  void NoteHeard(uint64_t src);
  bool IsDuplicateMessage(const net::Message& msg);  // Loop thread only.

  // Applies `op` in one local transaction (idempotent via the marker).
  Status ApplyOp(uint64_t op_id, const Op& op);
  Status RunOpTransaction(uint64_t op_id, const Op& op);
  // ApplyOp + in-flight insert + downstream forward; false if apply failed.
  bool ApplyAndForward(uint64_t op_id, const Op& op);
  void ForwardDownstream(uint64_t op_id, const Op& op);
  void SendForward(uint64_t dst, uint64_t view_id, uint64_t op_id, const Op& op);
  void OnTailCommit(uint64_t op_id);
  void InsertInFlight(uint64_t op_id, const Op& op);

  // Request-dedup table (volatile, bounded, maintained on every replica so
  // a newly promoted head inherits it for the ops it has applied).
  void RecordRequest(uint64_t req_id, uint64_t op_id);
  std::optional<uint64_t> LookupRequest(uint64_t req_id);

  void HandleOpForward(const net::Message& msg);
  void HandleReadReq(const net::Message& msg);
  void HandleFetchObjects(const net::Message& msg);
  void HandleReplayReq(const net::Message& msg);
  void HandleCleanupAck(const net::Message& msg);
  void NoteCommitted(uint64_t op_id);  // Raises last_acked_, wakes waiters.

  // Reboot helpers: resolve incomplete transactions against a neighbour.
  Status ResolveIncompleteFromNeighbour(uint64_t neighbour, bool roll_forward);
  // Releases committed-but-unreleased slots locally (deferred frees + slot
  // release). Committed transactions never need neighbour traffic — the
  // in-place data is final — so a committed-only log must not gate a
  // promotion on a live successor.
  Status ResolveCommittedLocally(const std::vector<txn::RecoveredTx>& txs);
  Result<std::vector<std::pair<uint64_t, std::string>>> FetchRanges(
      uint64_t neighbour, const std::vector<txn::Intent>& intents);

  // Chain-level key locks (head only): held from admission until tail ack.
  void LockKeys(const std::vector<uint64_t>& keys);
  void UnlockKeys(const std::vector<uint64_t>& keys);

  ReplicaOptions options_;
  net::Endpoint* endpoint_ = nullptr;

  // Persistent state (crash-sim pools survive simulated reboots).
  std::unique_ptr<nvm::Pool> pool_;
  std::unique_ptr<nvm::Pool> backup_pool_;  // Head only.
  std::unique_ptr<heap::Heap> heap_;
  std::unique_ptr<txn::TxManager> mgr_;
  std::unique_ptr<pds::BPlusTree> tree_;

  // View / role.
  mutable std::mutex view_mu_;
  View view_;

  // Message loop. stop_mu_ serializes Stop() callers: the failure detector's
  // repair worker, test injectors, and the destructor can race to fence the
  // same replica.
  std::mutex stop_mu_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  // Head execution (serialized for offset determinism).
  std::mutex exec_mu_;
  uint64_t next_op_id_ = 1;

  // Completion watermark. Raised by tail acks and by cleanup acks (cleanup
  // originates at the tail commit, so it carries the same information — the
  // head must not depend on the direct tail->head ack alone surviving a
  // lossy network).
  std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  uint64_t last_acked_ = 0;

  // Pending reads (req_id -> reply slot).
  struct PendingRead {
    bool done = false;
    bool found = false;
    std::string value;
  };
  std::mutex read_mu_;
  std::condition_variable read_cv_;
  std::map<uint64_t, PendingRead> reads_;
  uint64_t next_read_id_ = 1;

  // In-flight ops: forwarded (or admitted, at the head) but not cleaned up.
  mutable std::mutex inflight_mu_;
  std::map<uint64_t, InFlight> in_flight_;
  // Everything <= this op id has been committed by the tail and cleaned up.
  std::atomic<uint64_t> cleaned_below_{0};

  // Op forwards that arrived ahead of the watermark (reordered network):
  // buffered until the gap fills, applied strictly in op_id order.
  // Loop thread only.
  std::map<uint64_t, Op> pending_ops_;

  // Per-sender dedup windows. Loop thread only.
  std::map<uint64_t, PeerWindow> peer_windows_;

  // Heartbeat / failure-detector state.
  std::mutex hb_mu_;
  std::map<uint64_t, std::chrono::steady_clock::time_point> last_heard_;
  std::set<std::pair<uint64_t, uint64_t>> reported_;  // (view_id, suspect)
  std::chrono::steady_clock::time_point next_heartbeat_{};

  // Request-dedup table.
  std::mutex req_mu_;
  std::unordered_map<uint64_t, uint64_t> req_to_op_;
  std::deque<uint64_t> req_fifo_;

  // Chain-level key locks (head).
  std::mutex keylock_mu_;
  std::condition_variable keylock_cv_;
  std::map<uint64_t, bool> locked_keys_;

  // Volatile applied watermark (rebuilt from the marker ring on reboot).
  std::atomic<uint64_t> applied_watermark_{0};

  // Keys of in-flight ops adopted during head promotion, unlocked when the
  // tail's (re-)acks arrive.
  std::map<uint64_t, std::vector<uint64_t>> orphan_ops_;

  // Protocol counters (see ReplicaProtocolStats).
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> state_req_retransmits_{0};
  std::atomic<uint64_t> dedup_dropped_{0};
  std::atomic<uint64_t> regen_acks_{0};
  std::atomic<uint64_t> reorder_buffered_{0};
  std::atomic<uint64_t> req_dedup_hits_{0};
  std::atomic<uint64_t> heartbeats_sent_{0};
  std::atomic<uint64_t> suspicions_reported_{0};

  // Fault injection.
  std::atomic<bool> crash_next_apply_{false};
  std::atomic<bool> crashed_mid_apply_{false};
};

}  // namespace kamino::chain

#endif  // SRC_CHAIN_REPLICA_H_
