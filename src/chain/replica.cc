#include "src/chain/replica.h"

#include <algorithm>
#include <cstring>

namespace kamino::chain {

namespace {
constexpr uint64_t kReceivePollMs = 5;  // Also the timer-pass granularity.
constexpr uint64_t kRecoveryTimeoutMs = 5'000;
constexpr size_t kMaxRetxPerPass = 32;
// One page comfortably covers heap::Heap's superblock; installing this range
// last makes the state-transfer image attachable only once it is complete.
constexpr uint64_t kSuperblockPage = 4096;
}  // namespace

Replica::Replica(const ReplicaOptions& options) : options_(options) {
  endpoint_ = options_.network->CreateEndpoint(options_.node_id);
  view_ = options_.membership->current();
}

Replica::~Replica() { Stop(); }

bool Replica::is_head() const {
  std::lock_guard<std::mutex> lk(view_mu_);
  return view_.head() == options_.node_id;
}

uint64_t Replica::last_applied() const {
  return applied_watermark_.load(std::memory_order_relaxed);
}

uint64_t Replica::nvm_bytes() const {
  uint64_t bytes = pool_ != nullptr ? pool_->size() : 0;
  if (backup_pool_ != nullptr) {
    bytes += backup_pool_->size();
  }
  return bytes;
}

size_t Replica::in_flight_size() const {
  std::lock_guard<std::mutex> lk(inflight_mu_);
  return in_flight_.size();
}

ReplicaProtocolStats Replica::protocol_stats() const {
  ReplicaProtocolStats s;
  s.retransmits = retransmits_.load(std::memory_order_relaxed);
  s.state_req_retransmits = state_req_retransmits_.load(std::memory_order_relaxed);
  s.dedup_dropped = dedup_dropped_.load(std::memory_order_relaxed);
  s.regen_acks = regen_acks_.load(std::memory_order_relaxed);
  s.reorder_buffered = reorder_buffered_.load(std::memory_order_relaxed);
  s.req_dedup_hits = req_dedup_hits_.load(std::memory_order_relaxed);
  s.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
  s.suspicions_reported = suspicions_reported_.load(std::memory_order_relaxed);
  return s;
}

txn::TxManagerOptions Replica::MgrOptions(bool head_role) const {
  txn::TxManagerOptions opts;
  // Fit the intent log into the configured region (64 slots plus slack).
  opts.log.num_slots = 64;
  opts.log.slot_size = (options_.log_region_size / (opts.log.num_slots + 8)) & ~uint64_t{4095};
  opts.log.max_records = 128;
  if (!options_.kamino) {
    opts.engine = txn::EngineType::kUndoLog;
  } else if (!head_role) {
    opts.engine = txn::EngineType::kChainReplica;
  } else if (options_.head_alpha >= 1.0) {
    opts.engine = txn::EngineType::kKaminoSimple;
  } else {
    opts.engine = txn::EngineType::kKaminoDynamic;
    opts.alpha = options_.head_alpha;
  }
  opts.external_backup_pool = backup_pool_.get();
  return opts;
}

Status Replica::EnsureMainPool() {
  if (pool_ != nullptr) {
    return Status::Ok();
  }
  nvm::PoolOptions popts;
  popts.size = options_.pool_size;
  popts.crash_sim = true;
  popts.flush_latency_ns = options_.flush_latency_ns;
  Result<std::unique_ptr<nvm::Pool>> p = nvm::Pool::Create(popts);
  if (!p.ok()) {
    return p.status();
  }
  pool_ = std::move(*p);
  return Status::Ok();
}

Status Replica::EnsureBackupPool(bool force_full) {
  if (backup_pool_ != nullptr) {
    if (!force_full || backup_pool_->size() >= options_.pool_size) {
      return Status::Ok();
    }
    // Promotion rebuilds a full backup (kKaminoSimple); a dynamic-alpha pool
    // from a previous life is too small. Callers reset mgr_ first.
    backup_pool_.reset();
  }
  nvm::PoolOptions bopts;
  bopts.crash_sim = true;
  bopts.flush_latency_ns = options_.flush_latency_ns;
  if (force_full || options_.head_alpha >= 1.0) {
    // Promotion always builds a full backup (kKaminoSimple), whatever the
    // configured alpha — the dynamic store cannot be rebuilt from a cold
    // start without replaying history.
    bopts.size = options_.pool_size;
  } else {
    const uint64_t budget =
        static_cast<uint64_t>(options_.head_alpha * static_cast<double>(options_.pool_size));
    bopts.size = txn::DynamicBackupStore::RequiredPoolSize(budget, 1 << 14);
  }
  Result<std::unique_ptr<nvm::Pool>> p = nvm::Pool::Create(bopts);
  if (!p.ok()) {
    return p.status();
  }
  backup_pool_ = std::move(*p);
  return Status::Ok();
}

uint64_t Replica::view_cursor() const {
  if (heap_ == nullptr || pool_ == nullptr) {
    return kViewCursorNone;
  }
  const auto* anchor = static_cast<const ChainAnchor*>(pool_->At(heap_->root()));
  return anchor->view_cursor;
}

void Replica::StampViewCursor(uint64_t value) {
  nvm::PersistSiteScope site("chain/promote-cursor");
  auto* anchor = static_cast<ChainAnchor*>(pool_->At(heap_->root()));
  anchor->view_cursor = value;
  pool_->PersistU64(&anchor->view_cursor);
}

Status Replica::BuildStore(bool attach, bool run_recovery) {
  const bool head_role = is_head();

  KAMINO_RETURN_IF_ERROR(EnsureMainPool());
  if (head_role && options_.kamino) {
    KAMINO_RETURN_IF_ERROR(EnsureBackupPool());
  }

  if (!attach) {
    Result<std::unique_ptr<heap::Heap>> h =
        heap::Heap::CreateOn(pool_.get(), options_.log_region_size);
    if (!h.ok()) {
      return h.status();
    }
    heap_ = std::move(*h);
    txn::TxManagerOptions mopts = MgrOptions(head_role);
    if (mopts.engine == txn::EngineType::kKaminoDynamic) {
      mopts.dynamic_lookup_buckets = 1 << 14;
    }
    Result<std::unique_ptr<txn::TxManager>> m = txn::TxManager::Create(heap_.get(), mopts);
    if (!m.ok()) {
      return m.status();
    }
    mgr_ = std::move(*m);

    Result<std::unique_ptr<pds::BPlusTree>> t = pds::BPlusTree::Create(mgr_.get());
    if (!t.ok()) {
      return t.status();
    }
    tree_ = std::move(*t);

    uint64_t anchor = 0;
    Status st = mgr_->Run([&](txn::Tx& tx) -> Status {
      Result<uint64_t> off = tx.Alloc(sizeof(ChainAnchor));  // Zeroed ring.
      if (!off.ok()) {
        return off.status();
      }
      Result<void*> w = tx.OpenWrite(*off, 3 * sizeof(uint64_t));
      if (!w.ok()) {
        return w.status();
      }
      auto* hdr = static_cast<ChainAnchor*>(*w);
      hdr->magic = kChainAnchorMagic;
      // An initial head's backup is maintained from the first transaction,
      // so it is born trusted; everyone else is born untrusted and only a
      // completed promotion (HeadComplete stamp) upgrades them.
      hdr->view_cursor = head_role ? kViewCursorHeadComplete : kViewCursorNone;
      hdr->tree_anchor = tree_->anchor();
      anchor = *off;
      return Status::Ok();
    });
    if (!st.ok()) {
      return st;
    }
    mgr_->WaitIdle();
    heap_->set_root(anchor);
    applied_watermark_.store(0, std::memory_order_relaxed);
    return Status::Ok();
  }

  // Attach path (reboot / promotion).
  Result<std::unique_ptr<heap::Heap>> h = heap::Heap::Attach(pool_.get());
  if (!h.ok()) {
    return h.status();
  }
  heap_ = std::move(*h);
  txn::TxManagerOptions mopts = MgrOptions(head_role);
  // Promotion-cursor trust rule (DESIGN.md §13): a Kamino head may only let
  // engine recovery roll back from the local backup if the durable cursor
  // attests the backup was fully built. Any other value means a promotion
  // crashed mid-flight — the caller (QuickReboot) must resume the promotion
  // through the chain instead, so recovery is skipped here.
  const auto* hdr = static_cast<const ChainAnchor*>(pool_->At(heap_->root()));
  const bool trust_backup =
      !options_.kamino || hdr->view_cursor == kViewCursorHeadComplete;
  mopts.skip_recovery = !run_recovery || (head_role && !trust_backup);
  if (mopts.engine == txn::EngineType::kKaminoDynamic) {
    mopts.dynamic_lookup_buckets = 1 << 14;
  }
  Result<std::unique_ptr<txn::TxManager>> m = txn::TxManager::Open(heap_.get(), mopts);
  if (!m.ok()) {
    return m.status();
  }
  mgr_ = std::move(*m);

  const auto* anchor = static_cast<const ChainAnchor*>(pool_->At(heap_->root()));
  Result<std::unique_ptr<pds::BPlusTree>> t =
      pds::BPlusTree::Attach(mgr_.get(), anchor->tree_anchor);
  if (!t.ok()) {
    return t.status();
  }
  tree_ = std::move(*t);
  applied_watermark_.store(RingMax(), std::memory_order_relaxed);
  return Status::Ok();
}

uint64_t Replica::RingMax() const {
  const auto* anchor = static_cast<const ChainAnchor*>(pool_->At(heap_->root()));
  uint64_t max_id = 0;
  for (uint64_t slot : anchor->ring) {
    max_id = std::max(max_id, slot);
  }
  return max_id;
}

Status Replica::Init() {
  KAMINO_RETURN_IF_ERROR(BuildStore(/*attach=*/false, /*run_recovery=*/false));
  next_op_id_ = 1;
  return Status::Ok();
}

void Replica::Start() {
  stop_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  {
    // Fresh liveness grace for the neighbours: suspicion clocks start now.
    std::lock_guard<std::mutex> lk(hb_mu_);
    last_heard_.clear();
    next_heartbeat_ = std::chrono::steady_clock::now();
  }
  loop_thread_ = std::thread([this] { Loop(); });
}

void Replica::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(stop_mu_);
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  running_.store(false, std::memory_order_relaxed);
}

void Replica::CrashStop() {
  options_.network->SetNodeDown(options_.node_id, true);
  Stop();
}

void Replica::ArmCrashDuringNextApply() {
  crash_next_apply_.store(true, std::memory_order_relaxed);
}

void Replica::UpdateView(const View& view) {
  bool reack = false;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    const uint64_t old_head = view_.head();
    const uint64_t old_tail = view_.tail();
    view_ = view;
    // The tail re-acknowledges its progress whenever the head must relearn
    // it: a new head was promoted, or this node just became the tail (the
    // old tail's acknowledgments may have been lost with it) — paper §5.2.
    reack = view.tail() == options_.node_id && view.head() != 0 &&
            view.head() != options_.node_id &&
            (view.head() != old_head || old_tail != options_.node_id);
  }
  {
    // New neighbours get a fresh suspicion grace period.
    const uint64_t pred = view.PredecessorOf(options_.node_id);
    const uint64_t succ = view.SuccessorOf(options_.node_id);
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lk(hb_mu_);
    if (pred != 0) {
      last_heard_[pred] = now;
    }
    if (succ != 0) {
      last_heard_[succ] = now;
    }
  }
  if (reack && running_.load(std::memory_order_relaxed)) {
    // Re-acknowledge progress to the new head so it can release inherited
    // locks (paper §5.2: the new head queries / learns the tail's progress).
    Writer w;
    w.U64(applied_watermark_.load(std::memory_order_relaxed));
    net::Message msg;
    msg.type = kOpAck;
    msg.view_id = view.view_id;
    msg.payload = w.Take();
    (void)endpoint_->Send(view.head(), std::move(msg));
  }
}

// --- Operation execution -------------------------------------------------------

Status Replica::RunOpTransaction(uint64_t op_id, const Op& op) {
  auto guard = tree_->LockExclusive();
  return mgr_->RunWithRetries([&](txn::Tx& tx) -> Status {
    switch (op.kind) {
      case OpKind::kUpsert:
        for (const KvPair& p : op.pairs) {
          KAMINO_RETURN_IF_ERROR(tree_->UpsertInTx(tx, p.key, p.value));
        }
        break;
      case OpKind::kUpdate:
        // The replica holds the exclusive guard, so the structural path is
        // free to take: any value size fits, at the same cost as kUpsert.
        for (const KvPair& p : op.pairs) {
          KAMINO_RETURN_IF_ERROR(tree_->ReplaceInTx(tx, p.key, p.value));
        }
        break;
      case OpKind::kDelete:
        KAMINO_RETURN_IF_ERROR(tree_->DeleteInTx(tx, op.pairs.at(0).key));
        break;
    }
    // Applied-op marker, inside the same transaction (atomic with the op).
    Result<void*> w = tx.OpenWrite(MarkerOffset(op_id), sizeof(uint64_t));
    if (!w.ok()) {
      return w.status();
    }
    *static_cast<uint64_t*>(*w) = op_id;

    if (crash_next_apply_.exchange(false, std::memory_order_relaxed)) {
      // Fault injection: the replica loses power mid-transaction — in-place
      // edits may have reached NVM but the commit record never does.
      pool_->Flush(pool_->At(MarkerOffset(op_id)), sizeof(uint64_t));
      pool_->Drain();
      tx.LeakForCrashTest();
      crashed_mid_apply_.store(true, std::memory_order_relaxed);
      return Status::Unavailable("simulated power failure mid-apply");
    }
    return Status::Ok();
  });
}

Status Replica::ApplyOp(uint64_t op_id, const Op& op) {
  if (op_id <= applied_watermark_.load(std::memory_order_relaxed)) {
    // Replay duplicate. Still record the request id: a rebooted replica
    // relearns its dedup table from replayed ops.
    if (op.req_id != 0) {
      RecordRequest(op.req_id, op_id);
    }
    return Status::Ok();
  }
  Status st = RunOpTransaction(op_id, op);
  if (!st.ok()) {
    return st;
  }
  applied_watermark_.store(op_id, std::memory_order_relaxed);
  if (op.req_id != 0) {
    // Every replica remembers applied request ids so a promoted head can
    // answer client retries for ops it applied as a middle.
    RecordRequest(op.req_id, op_id);
  }
  return Status::Ok();
}

void Replica::RecordRequest(uint64_t req_id, uint64_t op_id) {
  std::lock_guard<std::mutex> lk(req_mu_);
  auto [it, inserted] = req_to_op_.emplace(req_id, op_id);
  if (!inserted) {
    return;
  }
  req_fifo_.push_back(req_id);
  while (req_fifo_.size() > kReqTableCap) {
    req_to_op_.erase(req_fifo_.front());
    req_fifo_.pop_front();
  }
}

std::optional<uint64_t> Replica::LookupRequest(uint64_t req_id) {
  std::lock_guard<std::mutex> lk(req_mu_);
  auto it = req_to_op_.find(req_id);
  if (it == req_to_op_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void Replica::InsertInFlight(uint64_t op_id, const Op& op) {
  InFlight inf;
  inf.op = op;
  inf.backoff_ms = options_.retx_base_ms;
  inf.next_retx = std::chrono::steady_clock::now() + std::chrono::milliseconds(options_.retx_base_ms);
  std::lock_guard<std::mutex> lk(inflight_mu_);
  in_flight_.emplace(op_id, std::move(inf));
}

void Replica::SendForward(uint64_t dst, uint64_t view_id, uint64_t op_id, const Op& op) {
  Writer w;
  w.U64(op_id);
  EncodeOp(op, &w);
  net::Message msg;
  msg.type = kOpForward;
  msg.view_id = view_id;
  msg.payload = w.Take();
  (void)endpoint_->Send(dst, std::move(msg));
}

void Replica::ForwardDownstream(uint64_t op_id, const Op& op) {
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = view_;
  }
  const uint64_t succ = v.SuccessorOf(options_.node_id);
  if (succ == 0) {
    // Single-node chain: this replica is also the tail.
    OnTailCommit(op_id);
    return;
  }
  SendForward(succ, v.view_id, op_id, op);
}

void Replica::OnTailCommit(uint64_t op_id) {
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = view_;
  }
  uint64_t prev = cleaned_below_.load(std::memory_order_relaxed);
  while (prev < op_id &&
         !cleaned_below_.compare_exchange_weak(prev, op_id, std::memory_order_relaxed)) {
  }
  if (v.head() == options_.node_id) {
    // Local completion (single-node chain).
    NoteCommitted(op_id);
    std::lock_guard<std::mutex> lk(inflight_mu_);
    in_flight_.erase(in_flight_.begin(), in_flight_.upper_bound(op_id));
    return;
  }
  // Final acknowledgment goes to the head (paper §5.1: "the tail sends the
  // final acknowledgment to the head instead of the client").
  {
    Writer w;
    w.U64(op_id);
    net::Message msg;
    msg.type = kOpAck;
    msg.view_id = v.view_id;
    msg.payload = w.Take();
    (void)endpoint_->Send(v.head(), std::move(msg));
  }
  // The tail has no downstream to replay to: its buffered copy can go now,
  // and clean-up acknowledgments travel upstream.
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    in_flight_.erase(in_flight_.begin(), in_flight_.upper_bound(op_id));
  }
  const uint64_t pred = v.PredecessorOf(options_.node_id);
  if (pred != 0) {
    Writer w;
    w.U64(op_id);
    net::Message msg;
    msg.type = kCleanupAck;
    msg.view_id = v.view_id;
    msg.payload = w.Take();
    (void)endpoint_->Send(pred, std::move(msg));
  }
}

void Replica::NoteCommitted(uint64_t op_id) {
  std::vector<std::vector<uint64_t>> to_unlock;
  {
    std::lock_guard<std::mutex> lk(comp_mu_);
    last_acked_ = std::max(last_acked_, op_id);
  }
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    // Inherited in-flight ops (head promotion) unlock on their acks.
    for (auto it = orphan_ops_.begin(); it != orphan_ops_.end() && it->first <= op_id;) {
      to_unlock.push_back(std::move(it->second));
      it = orphan_ops_.erase(it);
    }
  }
  for (const auto& keys : to_unlock) {
    UnlockKeys(keys);
  }
  comp_cv_.notify_all();
}

// --- Client API (head) ----------------------------------------------------------

void Replica::LockKeys(const std::vector<uint64_t>& keys) {
  std::unique_lock<std::mutex> lk(keylock_mu_);
  for (uint64_t key : keys) {
    keylock_cv_.wait(lk, [&] { return !locked_keys_.count(key); });
    locked_keys_[key] = true;
  }
}

void Replica::UnlockKeys(const std::vector<uint64_t>& keys) {
  {
    std::lock_guard<std::mutex> lk(keylock_mu_);
    for (uint64_t key : keys) {
      locked_keys_.erase(key);
    }
  }
  keylock_cv_.notify_all();
}

Replica::WriteTicket Replica::AdmitWrite(const Op& op,
                                         const std::function<void(std::string&)>* mutate) {
  WriteTicket ticket;
  if (!running_.load(std::memory_order_relaxed)) {
    ticket.status = Status::Unavailable("replica down");
    return ticket;
  }
  if (op.req_id != 0) {
    if (std::optional<uint64_t> known = LookupRequest(op.req_id)) {
      // Client retry of a request this chain already executed (possibly under
      // a previous head). Do not re-execute: hand back a ticket for the
      // original op so the caller just waits for (or observes) its ack.
      req_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      ticket.admitted = true;
      ticket.op_id = *known;
      ticket.status = Status::Ok();
      return ticket;
    }
  }
  // Admission control for dependent transactions: per-key chain locks held
  // from admission until the tail acknowledges (paper §5: "the head node
  // holds appropriate locks until the tail commits").
  ticket.keys.reserve(op.pairs.size());
  for (const KvPair& p : op.pairs) {
    ticket.keys.push_back(p.key);
  }
  std::sort(ticket.keys.begin(), ticket.keys.end());
  ticket.keys.erase(std::unique(ticket.keys.begin(), ticket.keys.end()), ticket.keys.end());
  LockKeys(ticket.keys);

  {
    // Serialized execution keeps persistent offsets deterministic across the
    // chain (see the class comment).
    std::lock_guard<std::mutex> lk(exec_mu_);
    ticket.op_id = next_op_id_;
    // A read-modify-write resolves here, on this head's current value: the
    // key lock and exec_mu_ keep every other write to the key out between the
    // read and the apply, and downstream replicas (and replay) only ever see
    // the resulting plain update.
    Op resolved;
    const Op* exec = &op;
    if (mutate != nullptr) {
      Result<std::string> current = tree_->Get(op.pairs.at(0).key);
      if (current.ok()) {
        (*mutate)(*current);
        resolved = op;
        resolved.pairs[0].value = std::move(*current);
        exec = &resolved;
      }
      ticket.status = current.status();
    } else if (op.kind == OpKind::kUpdate) {
      // Reject a missing key here, before any transaction opens. The insert
      // path may split a node or allocate a blob before it finds the key
      // absent, and an abort after a slab-chunk claim would leave this head's
      // allocator ahead of the replicas', which never see the op.
      for (const KvPair& p : op.pairs) {
        Result<std::string> current = tree_->Get(p.key);
        if (!current.ok()) {
          ticket.status = current.status();
          break;
        }
      }
    }
    if (ticket.status.ok()) {
      ticket.status = ApplyOp(ticket.op_id, *exec);
    }
    if (ticket.status.ok()) {
      ++next_op_id_;
      InsertInFlight(ticket.op_id, *exec);
      ForwardDownstream(ticket.op_id, *exec);
      ticket.admitted = true;
    }
  }
  if (!ticket.admitted) {
    // Aborted locally: never admitted to the chain (paper Figure 8, abort).
    UnlockKeys(ticket.keys);
    return ticket;
  }
  if (!options_.kamino) {
    // Traditional chain replication serializes via the head's ordering
    // alone; it does not hold locks until the tail commits (Table 1 charges
    // dependent and independent transactions the same latency). Only
    // Kamino-Tx-Chain keeps the keys locked until the tail's ack.
    UnlockKeys(ticket.keys);
    ticket.keys.clear();
  }
  return ticket;
}

Status Replica::WaitWrite(WriteTicket& ticket) {
  return WaitWriteFor(ticket, options_.client_timeout_ms);
}

Status Replica::WaitWriteFor(WriteTicket& ticket, uint64_t timeout_ms) {
  if (!ticket.admitted) {
    return ticket.status;
  }
  Status out = Status::Ok();
  {
    std::unique_lock<std::mutex> lk(comp_mu_);
    const bool done = comp_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                                        [&] { return last_acked_ >= ticket.op_id; });
    if (!done) {
      out = Status::Unavailable("chain commit timeout");
    }
  }
  UnlockKeys(ticket.keys);
  ticket.admitted = false;
  return out;
}

Status Replica::ClientWrite(const Op& op) {
  WriteTicket ticket = AdmitWrite(op);
  return WaitWrite(ticket);
}

Result<std::string> Replica::ClientRead(uint64_t key, uint64_t timeout_ms) {
  if (!running_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica down");
  }
  if (timeout_ms == 0) {
    timeout_ms = options_.client_timeout_ms;
  }
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = view_;
  }
  if (v.tail() == options_.node_id) {
    return tree_->Get(key);  // Single-node chain: serve locally.
  }
  uint64_t req_id;
  {
    std::lock_guard<std::mutex> lk(read_mu_);
    req_id = next_read_id_++;
    reads_[req_id];
  }
  Writer w;
  w.U64(req_id);
  w.U64(key);
  net::Message msg;
  msg.type = kReadReq;
  msg.view_id = v.view_id;
  msg.payload = w.Take();
  Status send = endpoint_->Send(v.tail(), std::move(msg));
  if (!send.ok()) {
    std::lock_guard<std::mutex> lk(read_mu_);
    reads_.erase(req_id);
    return send;
  }
  std::unique_lock<std::mutex> lk(read_mu_);
  const bool done = read_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                                      [&] { return reads_[req_id].done; });
  PendingRead pr = std::move(reads_[req_id]);
  reads_.erase(req_id);
  if (!done) {
    return Status::Unavailable("read timeout");
  }
  if (!pr.found) {
    return Status::NotFound("key absent");
  }
  return pr.value;
}

Result<std::string> Replica::StaleRead(uint64_t key, uint64_t* applied_out) {
  if (!running_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("replica down");
  }
  // The watermark is sampled before the read: the value returned reflects at
  // least this many applied ops (the tree read takes object read locks, so a
  // key mid-apply is waited out, never torn).
  if (applied_out != nullptr) {
    *applied_out = applied_watermark_.load(std::memory_order_acquire);
  }
  return tree_->Get(key);
}

// --- Message loop ----------------------------------------------------------------

void Replica::Loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::optional<net::Message> msg = endpoint_->Receive(kReceivePollMs);
    if (msg.has_value()) {
      NoteHeard(msg->src);
      if (IsDuplicateMessage(*msg)) {
        dedup_dropped_.fetch_add(1, std::memory_order_relaxed);
      } else {
        HandleMessage(std::move(*msg));
      }
      if (crashed_mid_apply_.load(std::memory_order_relaxed)) {
        // The simulated power failure takes the node off the network too.
        options_.network->SetNodeDown(options_.node_id, true);
        running_.store(false, std::memory_order_relaxed);
        return;
      }
    }
    TimerPass(std::chrono::steady_clock::now());
  }
}

void Replica::NoteHeard(uint64_t src) {
  std::lock_guard<std::mutex> lk(hb_mu_);
  last_heard_[src] = std::chrono::steady_clock::now();
}

bool Replica::IsDuplicateMessage(const net::Message& msg) {
  PeerWindow& w = peer_windows_[msg.src];
  if (msg.seq + kSeqWindow < w.max_seq) {
    return true;  // Far behind the window: assume duplicate.
  }
  if (!w.seen.insert({msg.seq, msg.view_id}).second) {
    return true;
  }
  w.max_seq = std::max(w.max_seq, msg.seq);
  while (!w.seen.empty() && w.seen.begin()->first + kSeqWindow < w.max_seq) {
    w.seen.erase(w.seen.begin());
  }
  return false;
}

void Replica::TimerPass(std::chrono::steady_clock::time_point now) {
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = view_;
  }
  const uint64_t self = options_.node_id;
  const uint64_t pred = v.PredecessorOf(self);
  const uint64_t succ = v.SuccessorOf(self);
  const uint64_t neighbours[2] = {pred, succ};

  if (options_.heartbeat_interval_ms > 0 && v.Contains(self)) {
    bool beat = false;
    {
      std::lock_guard<std::mutex> lk(hb_mu_);
      if (now >= next_heartbeat_) {
        next_heartbeat_ = now + std::chrono::milliseconds(options_.heartbeat_interval_ms);
        beat = true;
      }
    }
    if (beat) {
      for (uint64_t n : neighbours) {
        if (n == 0) {
          continue;
        }
        Writer w;
        w.U64(applied_watermark_.load(std::memory_order_relaxed));
        net::Message msg;
        msg.type = kHeartbeat;
        msg.view_id = v.view_id;
        msg.payload = w.Take();
        (void)endpoint_->Send(n, std::move(msg));
        heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // A silent neighbour is reported to the membership manager, which
    // validates (current view, both still members) so only the first report
    // per failure triggers the view change.
    std::vector<uint64_t> suspects;
    {
      std::lock_guard<std::mutex> lk(hb_mu_);
      for (uint64_t n : neighbours) {
        if (n == 0) {
          continue;
        }
        auto it = last_heard_.find(n);
        if (it == last_heard_.end()) {
          last_heard_[n] = now;  // First sighting of this neighbour: grace.
          continue;
        }
        if (now - it->second > std::chrono::milliseconds(options_.suspicion_timeout_ms) &&
            reported_.insert({v.view_id, n}).second) {
          suspects.push_back(n);
        }
      }
    }
    for (uint64_t n : suspects) {
      suspicions_reported_.fetch_add(1, std::memory_order_relaxed);
      (void)options_.membership->ReportSuspicion(self, n, v.view_id);
    }
  }

  // Retransmit overdue in-flight ops to the successor with exponential
  // backoff. The cleanup ack (tail committed) is what stops retransmission;
  // the receive side regenerates acks for anything it already applied.
  if (succ != 0) {
    std::vector<std::pair<uint64_t, Op>> resend;
    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      for (auto& [op_id, inf] : in_flight_) {
        if (inf.next_retx > now) {
          continue;
        }
        inf.backoff_ms = std::min(inf.backoff_ms * 2, options_.retx_cap_ms);
        inf.next_retx = now + std::chrono::milliseconds(inf.backoff_ms);
        resend.emplace_back(op_id, inf.op);
        if (resend.size() >= kMaxRetxPerPass) {
          break;
        }
      }
    }
    for (auto& [op_id, op] : resend) {
      retransmits_.fetch_add(1, std::memory_order_relaxed);
      SendForward(succ, v.view_id, op_id, op);
    }
  }
}

void Replica::HandleMessage(net::Message&& msg) {
  switch (msg.type) {
    case kOpForward:
      HandleOpForward(msg);
      break;
    case kOpAck: {
      Reader r(msg.payload);
      uint64_t op_id = 0;
      if (!r.U64(&op_id)) {
        return;
      }
      NoteCommitted(op_id);
      break;
    }
    case kCleanupAck:
      HandleCleanupAck(msg);
      break;
    case kReadReq:
      HandleReadReq(msg);
      break;
    case kReadReply: {
      Reader r(msg.payload);
      uint64_t req_id = 0, found = 0;
      std::string value;
      if (!r.U64(&req_id) || !r.U64(&found) || !r.Str(&value)) {
        return;
      }
      {
        std::lock_guard<std::mutex> lk(read_mu_);
        auto it = reads_.find(req_id);
        if (it != reads_.end()) {
          it->second.done = true;
          it->second.found = (found != 0);
          it->second.value = std::move(value);
        }
      }
      read_cv_.notify_all();
      break;
    }
    case kFetchObjects:
      HandleFetchObjects(msg);
      break;
    case kReplayReq:
      HandleReplayReq(msg);
      break;
    case kQueryTail: {
      Writer w;
      w.U64(applied_watermark_.load(std::memory_order_relaxed));
      net::Message reply;
      reply.type = kTailInfo;
      reply.view_id = msg.view_id;
      reply.payload = w.Take();
      (void)endpoint_->Send(msg.src, std::move(reply));
      break;
    }
    case kTailInfo: {
      // The tail's progress report: everything at or below it is committed
      // chain-wide (the tail applies strictly in order).
      Reader r(msg.payload);
      uint64_t watermark = 0;
      if (!r.U64(&watermark)) {
        return;
      }
      NoteCommitted(watermark);
      break;
    }
    case kStateReq: {
      // Bulk state transfer for a joining tail. The chain is quiesced by the
      // orchestrator during joins, but the engine's applier threads release
      // log slots asynchronously even after the last client op is acked —
      // drain them before taking the raw snapshot.
      mgr_->WaitIdle();
      net::Message reply;
      reply.type = kStateChunk;
      reply.view_id = msg.view_id;
      reply.payload.assign(pool_->base(), pool_->base() + pool_->size());
      (void)endpoint_->Send(msg.src, std::move(reply));
      break;
    }
    case kHeartbeat:
      // Liveness only; NoteHeard already refreshed the suspicion clock.
      break;
    default:
      break;
  }
}

bool Replica::ApplyAndForward(uint64_t op_id, const Op& op) {
  Status st = ApplyOp(op_id, op);
  if (!st.ok()) {
    return false;  // Mid-apply crash fault, or a hard error; do not forward.
  }
  InsertInFlight(op_id, op);
  ForwardDownstream(op_id, op);
  return true;
}

void Replica::HandleOpForward(const net::Message& msg) {
  Reader r(msg.payload);
  uint64_t op_id = 0;
  Op op;
  if (!r.U64(&op_id) || !DecodeOp(&r, &op)) {
    return;
  }
  const uint64_t applied = applied_watermark_.load(std::memory_order_relaxed);
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = view_;
  }
  const uint64_t succ = v.SuccessorOf(options_.node_id);

  if (op_id <= applied) {
    // Already applied: the sender retransmitted because some downstream ack
    // or upstream cleanup was lost. Regenerate what it is evidently missing
    // instead of re-executing (idempotence).
    regen_acks_.fetch_add(1, std::memory_order_relaxed);
    if (op.req_id != 0) {
      RecordRequest(op.req_id, op_id);
    }
    if (succ == 0) {
      OnTailCommit(op_id);  // Tail: re-ack the head, re-clean upstream.
      return;
    }
    const uint64_t cleaned = cleaned_below_.load(std::memory_order_relaxed);
    if (op_id <= cleaned) {
      // Committed chain-wide already: the sender just needs the cleanup.
      const uint64_t pred = v.PredecessorOf(options_.node_id);
      if (pred != 0) {
        Writer w;
        w.U64(cleaned);
        net::Message fwd;
        fwd.type = kCleanupAck;
        fwd.view_id = v.view_id;
        fwd.payload = w.Take();
        (void)endpoint_->Send(pred, std::move(fwd));
      }
      return;
    }
    // Still awaiting the tail: push the pipeline downstream again.
    SendForward(succ, v.view_id, op_id, op);
    return;
  }

  if (op_id > applied + 1) {
    // Ahead of the watermark (reordered or lossy link): buffer until the gap
    // fills. Replicas must apply strictly in op_id order — offset determinism
    // across the chain is what makes neighbour byte-range repair sound.
    reorder_buffered_.fetch_add(1, std::memory_order_relaxed);
    pending_ops_.emplace(op_id, std::move(op));
    return;
  }

  // In-order: apply, then drain any buffered run that became consecutive.
  if (!ApplyAndForward(op_id, op)) {
    return;
  }
  while (!pending_ops_.empty()) {
    auto it = pending_ops_.begin();
    const uint64_t next = applied_watermark_.load(std::memory_order_relaxed) + 1;
    if (it->first < next) {
      pending_ops_.erase(it);
      continue;
    }
    if (it->first > next) {
      break;
    }
    Op buffered = std::move(it->second);
    pending_ops_.erase(it);
    if (!ApplyAndForward(next, buffered)) {
      return;
    }
  }
}

void Replica::HandleCleanupAck(const net::Message& msg) {
  Reader r(msg.payload);
  uint64_t op_id = 0;
  if (!r.U64(&op_id)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    in_flight_.erase(in_flight_.begin(), in_flight_.upper_bound(op_id));
  }
  uint64_t prev = cleaned_below_.load(std::memory_order_relaxed);
  while (prev < op_id &&
         !cleaned_below_.compare_exchange_weak(prev, op_id, std::memory_order_relaxed)) {
  }
  // Cleanup originates at the tail commit, so it is also commit evidence: if
  // the direct tail ack was lost, the head still learns completion here and
  // releases waiting clients.
  NoteCommitted(op_id);
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = view_;
  }
  const uint64_t pred = v.PredecessorOf(options_.node_id);
  if (pred != 0) {
    Writer w;
    w.U64(op_id);
    net::Message fwd;
    fwd.type = kCleanupAck;
    fwd.view_id = v.view_id;
    fwd.payload = w.Take();
    (void)endpoint_->Send(pred, std::move(fwd));
  }
}

void Replica::HandleReadReq(const net::Message& msg) {
  Reader r(msg.payload);
  uint64_t req_id = 0, key = 0;
  if (!r.U64(&req_id) || !r.U64(&key)) {
    return;
  }
  Result<std::string> v = tree_->Get(key);
  Writer w;
  w.U64(req_id);
  w.U64(v.ok() ? 1 : 0);
  w.Str(v.ok() ? *v : std::string());
  net::Message reply;
  reply.type = kReadReply;
  reply.view_id = msg.view_id;
  reply.payload = w.Take();
  (void)endpoint_->Send(msg.src, std::move(reply));
}

void Replica::HandleFetchObjects(const net::Message& msg) {
  Reader r(msg.payload);
  uint64_t req_id = 0;
  uint32_t n = 0;
  if (!r.U64(&req_id) || !r.U32(&n)) {
    return;
  }
  Writer w;
  w.U64(req_id);
  w.U32(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t off = 0, size = 0;
    if (!r.U64(&off) || !r.U64(&size)) {
      return;
    }
    w.U64(off);
    w.U64(size);
    w.Bytes(pool_->At(off), size);
  }
  net::Message reply;
  reply.type = kFetchReply;
  reply.view_id = msg.view_id;
  reply.payload = w.Take();
  (void)endpoint_->Send(msg.src, std::move(reply));
}

void Replica::HandleReplayReq(const net::Message& msg) {
  Reader r(msg.payload);
  uint64_t from = 0;
  if (!r.U64(&from)) {
    return;
  }
  std::map<uint64_t, Op> snapshot;
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    for (const auto& [op_id, inf] : in_flight_) {
      snapshot.emplace(op_id, inf.op);
    }
  }
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = view_;
  }
  for (const auto& [op_id, op] : snapshot) {
    if (op_id <= from) {
      continue;
    }
    SendForward(msg.src, v.view_id, op_id, op);
  }
}

// --- Reboot / promotion recovery -------------------------------------------------

Result<std::vector<std::pair<uint64_t, std::string>>> Replica::FetchRanges(
    uint64_t neighbour, const std::vector<txn::Intent>& intents) {
  Writer w;
  const uint64_t req_id = 0xFEED;
  w.U64(req_id);
  uint32_t n = 0;
  for (const txn::Intent& in : intents) {
    if (in.kind == txn::IntentKind::kWrite || in.kind == txn::IntentKind::kAlloc) {
      ++n;
    }
  }
  w.U32(n);
  for (const txn::Intent& in : intents) {
    if (in.kind == txn::IntentKind::kWrite || in.kind == txn::IntentKind::kAlloc) {
      w.U64(in.offset);
      w.U64(in.size);
    }
  }
  net::Message req;
  req.type = kFetchObjects;
  req.payload = w.Take();
  KAMINO_RETURN_IF_ERROR(endpoint_->Send(neighbour, std::move(req)));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kRecoveryTimeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    std::optional<net::Message> reply = endpoint_->Receive(kReceivePollMs);
    if (!reply.has_value()) {
      continue;
    }
    if (reply->type != kFetchReply) {
      continue;  // Stale traffic during recovery; safe to drop.
    }
    Reader r(reply->payload);
    uint64_t got_req = 0;
    uint32_t got_n = 0;
    if (!r.U64(&got_req) || got_req != req_id || !r.U32(&got_n)) {
      continue;
    }
    std::vector<std::pair<uint64_t, std::string>> out;
    out.reserve(got_n);
    for (uint32_t i = 0; i < got_n; ++i) {
      uint64_t off = 0, size = 0;
      std::string bytes;
      if (!r.U64(&off) || !r.U64(&size) || !r.Str(&bytes)) {
        return Status::Corruption("malformed fetch reply");
      }
      out.emplace_back(off, std::move(bytes));
    }
    return out;
  }
  return Status::Unavailable("fetch-objects timeout");
}

Status Replica::ResolveCommittedLocally(const std::vector<txn::RecoveredTx>& txs) {
  nvm::PersistSiteScope site("chain/local-resolve");
  for (const txn::RecoveredTx& tx : txs) {
    if (tx.state != txn::TxState::kCommitted) {
      continue;
    }
    txn::SlotHandle handle = mgr_->log()->HandleForRecovered(tx);
    // The in-place data is final; only deferred frees need re-execution.
    // Re-running this after a crash is idempotent: FreeRaw of an
    // already-free offset is a no-op and the slot release is last.
    for (const txn::Intent& in : tx.intents) {
      if (in.kind == txn::IntentKind::kFree) {
        KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
      }
    }
    mgr_->log()->ReleaseSlot(handle);
  }
  return Status::Ok();
}

Status Replica::ResolveIncompleteFromNeighbour(uint64_t neighbour, bool roll_forward) {
  nvm::PersistSiteScope site("chain/neighbour-repair");
  std::vector<txn::RecoveredTx> txs = mgr_->log()->ScanForRecovery();
  for (const txn::RecoveredTx& tx : txs) {
    txn::SlotHandle handle = mgr_->log()->HandleForRecovered(tx);
    if (tx.state == txn::TxState::kCommitted) {
      // Committed transactions resolve locally even without a backup: the
      // in-place data is final; only deferred frees need re-execution.
      for (const txn::Intent& in : tx.intents) {
        if (in.kind == txn::IntentKind::kFree) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
      mgr_->log()->ReleaseSlot(handle);
      continue;
    }
    if (roll_forward) {
      // Paper Figure 9, non-head reboot: complete the transaction using the
      // predecessor's (newer) object state.
      Result<std::vector<std::pair<uint64_t, std::string>>> ranges =
          FetchRanges(neighbour, tx.intents);
      if (!ranges.ok()) {
        return ranges.status();
      }
      size_t idx = 0;
      for (const txn::Intent& in : tx.intents) {
        if (in.kind == txn::IntentKind::kAlloc) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->ForceAllocAt(in.offset, in.size));
        }
        if (in.kind == txn::IntentKind::kWrite || in.kind == txn::IntentKind::kAlloc) {
          const auto& [off, bytes] = (*ranges)[idx++];
          std::memcpy(pool_->At(off), bytes.data(), bytes.size());
          pool_->Persist(pool_->At(off), bytes.size());
        } else if (in.kind == txn::IntentKind::kFree) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
    } else {
      // New head: roll back using the successor's (older) object state.
      std::vector<txn::Intent> writes;
      for (const txn::Intent& in : tx.intents) {
        if (in.kind == txn::IntentKind::kWrite) {
          writes.push_back(in);
        }
      }
      Result<std::vector<std::pair<uint64_t, std::string>>> ranges =
          FetchRanges(neighbour, writes);
      if (!ranges.ok()) {
        return ranges.status();
      }
      size_t idx = 0;
      for (const txn::Intent& in : tx.intents) {
        if (in.kind == txn::IntentKind::kWrite) {
          const auto& [off, bytes] = (*ranges)[idx++];
          std::memcpy(pool_->At(off), bytes.data(), bytes.size());
          pool_->Persist(pool_->At(off), bytes.size());
        } else if (in.kind == txn::IntentKind::kAlloc) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
        // kFree intents were deferred; rollback needs no action.
      }
    }
    mgr_->log()->ReleaseSlot(handle);
  }
  return Status::Ok();
}

Status Replica::RequestReplay(uint64_t from_node) {
  Writer w;
  w.U64(0);  // Replay everything still in the predecessor's in-flight queue.
  net::Message msg;
  msg.type = kReplayReq;
  msg.payload = w.Take();
  return endpoint_->Send(from_node, std::move(msg));
}

Status Replica::QuickReboot() {
  // 1. The machine is gone: thread dead, volatile state dropped, unflushed
  //    NVM lines lost.
  options_.network->SetNodeDown(options_.node_id, true);
  Stop();
  crashed_mid_apply_.store(false, std::memory_order_relaxed);
  tree_.reset();
  mgr_.reset();
  heap_.reset();
  KAMINO_RETURN_IF_ERROR(pool_->Crash());
  if (backup_pool_ != nullptr) {
    KAMINO_RETURN_IF_ERROR(backup_pool_->Crash());
  }
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    in_flight_.clear();
  }
  {
    std::lock_guard<std::mutex> lk(comp_mu_);
    last_acked_ = 0;
  }
  {
    std::lock_guard<std::mutex> lk(req_mu_);
    req_to_op_.clear();
    req_fifo_.clear();
  }
  {
    // Chain-level key locks and orphan bookkeeping are volatile head state;
    // a rebooted node re-learns in-flight ops from the replay, and stale
    // locks would deadlock the first post-reboot admission.
    std::lock_guard<std::mutex> lk(keylock_mu_);
    locked_keys_.clear();
  }
  orphan_ops_.clear();
  // Loop-thread state (the loop is stopped here).
  pending_ops_.clear();
  peer_windows_.clear();
  cleaned_below_.store(0, std::memory_order_relaxed);

  // 2. Rejoin: learn the current view and our neighbours (paper §5.3).
  Result<View> view = options_.membership->RequestRejoin(
      options_.node_id, view_.view_id);
  if (!view.ok()) {
    return view.status();
  }
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    view_ = *view;
  }
  const bool head_role = view->head() == options_.node_id;

  // 3. Reattach. A head whose durable promotion cursor attests a fully built
  //    backup recovers from it (engine recovery); a head that lost power
  //    mid-promotion resumes the promotion through the chain instead
  //    (BuildStore skipped recovery — the backup is untrusted); everyone
  //    else defers incomplete transactions to the neighbour fetch.
  KAMINO_RETURN_IF_ERROR(BuildStore(/*attach=*/true, /*run_recovery=*/head_role));

  options_.network->SetNodeDown(options_.node_id, false);

  if (head_role && view_cursor() != kViewCursorHeadComplete) {
    // Power failure mid-promotion: the cursor never reached HeadComplete, so
    // re-run the takeover wholesale (every step is idempotent — DESIGN.md
    // §13). Re-stamp Promoting first in case the crash landed before the
    // original stamp persisted.
    StampViewCursor(kViewCursorPromoting);
    KAMINO_RETURN_IF_ERROR(CompletePromotion(*view));
  } else if (!head_role) {
    const uint64_t pred = view->PredecessorOf(options_.node_id);
    if (pred != 0) {
      KAMINO_RETURN_IF_ERROR(ResolveIncompleteFromNeighbour(pred, /*roll_forward=*/true));
      applied_watermark_.store(RingMax(), std::memory_order_relaxed);
    }
  }

  // 4. Resume and ask the predecessor to replay anything we missed.
  next_op_id_ = applied_watermark_.load(std::memory_order_relaxed) + 1;
  Start();
  const uint64_t pred = view->PredecessorOf(options_.node_id);
  if (pred != 0) {
    KAMINO_RETURN_IF_ERROR(RequestReplay(pred));
  }
  return Status::Ok();
}

Status Replica::CompletePromotion(const View& v) {
  const uint64_t succ = v.SuccessorOf(options_.node_id);

  // Resolve leftover log slots. Committed slots resolve locally (deferred
  // frees; no neighbour traffic). An incomplete transaction is rolled back
  // using the successor's older object state (paper Figure 9's "new head"
  // case) — in the common promotion path there is none; it exists only if
  // this node also just rebooted.
  {
    std::vector<txn::RecoveredTx> txs = mgr_->log()->ScanForRecovery();
    bool has_incomplete = false;
    for (const txn::RecoveredTx& tx : txs) {
      if (tx.state != txn::TxState::kCommitted) {
        has_incomplete = true;
      }
    }
    if (has_incomplete && succ == 0) {
      return Status::Unavailable("cannot roll back: no successor remains");
    }
    if (has_incomplete) {
      KAMINO_RETURN_IF_ERROR(
          ResolveIncompleteFromNeighbour(succ, /*roll_forward=*/false));
    } else if (!txs.empty()) {
      KAMINO_RETURN_IF_ERROR(ResolveCommittedLocally(txs));
    }
  }

  // Rebuild the manager in the head role (Kamino: backup store appears).
  // The durable tree anchor is read from the persistent ChainAnchor so this
  // works identically for a live promotion and a post-crash resumption.
  mgr_->WaitIdle();
  const uint64_t tree_anchor =
      static_cast<const ChainAnchor*>(pool_->At(heap_->root()))->tree_anchor;
  tree_.reset();
  mgr_.reset();
  txn::TxManagerOptions mopts;
  if (!options_.kamino) {
    mopts.engine = txn::EngineType::kUndoLog;
  } else {
    KAMINO_RETURN_IF_ERROR(EnsureBackupPool(/*force_full=*/true));
    mopts.engine = txn::EngineType::kKaminoSimple;
    mopts.external_backup_pool = backup_pool_.get();
  }
  mopts.skip_recovery = true;  // Log already resolved above.
  Result<std::unique_ptr<txn::TxManager>> m = txn::TxManager::Open(heap_.get(), mopts);
  if (!m.ok()) {
    return m.status();
  }
  mgr_ = std::move(*m);
  if (options_.kamino) {
    // The new head must have a consistent copy of everything before it can
    // admit in-place transactions (paper §5.2: "creates a local backup").
    // SyncAll is a full-pool overwrite, so re-running it after a crash is
    // idempotent regardless of how much of a previous sync persisted.
    static_cast<txn::FullBackupStore*>(mgr_->backup_store())->SyncAll();
  }
  // Commit point of the promotion: after this single 8-byte persist the
  // local backup is durably trusted and reboots recover engine-locally.
  StampViewCursor(kViewCursorHeadComplete);

  Result<std::unique_ptr<pds::BPlusTree>> t = pds::BPlusTree::Attach(mgr_.get(), tree_anchor);
  if (!t.ok()) {
    return t.status();
  }
  tree_ = std::move(*t);

  applied_watermark_.store(RingMax(), std::memory_order_relaxed);
  next_op_id_ = applied_watermark_.load(std::memory_order_relaxed) + 1;

  // Inherit locks for in-flight transactions; the tail's progress report
  // (kQueryTail / re-acks on view change) releases them (paper §5.2).
  {
    std::lock_guard<std::mutex> il(inflight_mu_);
    std::lock_guard<std::mutex> vl(view_mu_);
    for (const auto& [op_id, inf] : in_flight_) {
      std::vector<uint64_t> keys;
      for (const KvPair& p : inf.op.pairs) {
        keys.push_back(p.key);
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      {
        std::lock_guard<std::mutex> kl(keylock_mu_);
        for (uint64_t key : keys) {
          locked_keys_[key] = true;
        }
      }
      orphan_ops_.emplace(op_id, std::move(keys));
    }
  }
  return Status::Ok();
}

Status Replica::PromoteToHead() {
  // Called after the membership change already made this node the head.
  // Promotion can now happen mid-traffic (detector-driven): stop the loop
  // first, then let the engine's appliers drain before touching the log.
  Stop();
  mgr_->WaitIdle();
  pending_ops_.clear();  // Buffered future ops died with the old head.
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = options_.membership->current();
    view_ = v;
  }
  if (v.head() != options_.node_id) {
    return Status::InvalidArgument("not the head in the current view");
  }

  // Durable intent to take over — the first persist of the promotion. From
  // here until the HeadComplete stamp, a power failure reboots into a
  // resumed promotion (QuickReboot re-runs CompletePromotion) instead of
  // trusting a half-built backup (DESIGN.md §13).
  StampViewCursor(kViewCursorPromoting);

  KAMINO_RETURN_IF_ERROR(CompletePromotion(v));

  Start();
  const uint64_t succ = v.SuccessorOf(options_.node_id);
  if (succ != 0) {
    // Learn the tail's progress to release inherited locks for ops it has
    // already committed.
    net::Message q;
    q.type = kQueryTail;
    Writer w;
    w.U64(0);
    q.payload = w.Take();
    KAMINO_RETURN_IF_ERROR(endpoint_->Send(v.tail(), std::move(q)));
  }
  return Status::Ok();
}

void Replica::InvalidateHeapImage() {
  // Join commit protocol (DESIGN.md §13): before any transferred byte lands,
  // durably zero the heap superblock magic so a crash mid-transfer can never
  // leave a stale-but-attachable image (the node may have carried a valid
  // heap from a previous life). The superblock page is rewritten last, as
  // the join's single commit point.
  nvm::PersistSiteScope site("chain/join-invalidate");
  auto* magic = reinterpret_cast<uint64_t*>(pool_->base());
  *magic = 0;
  pool_->PersistU64(magic);
}

Status Replica::JoinAsTail() {
  View v;
  {
    std::lock_guard<std::mutex> lk(view_mu_);
    v = options_.membership->current();
    view_ = v;
  }
  const uint64_t pred = v.PredecessorOf(options_.node_id);
  if (pred == 0) {
    return Status::InvalidArgument("joining tail needs a predecessor");
  }
  // A retried join starts from scratch: any half-transferred image is dead.
  tree_.reset();
  mgr_.reset();
  heap_.reset();
  KAMINO_RETURN_IF_ERROR(EnsureMainPool());
  InvalidateHeapImage();

  // State transfer: snapshot the predecessor's pool (chain quiesced by the
  // orchestrator during joins). The request is retransmitted with the
  // standard backoff policy — a single lost kStateReq must not burn the
  // whole recovery deadline.
  options_.network->SetNodeDown(options_.node_id, false);
  net::Message req;
  req.type = kStateReq;
  KAMINO_RETURN_IF_ERROR(endpoint_->Send(pred, std::move(req)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kRecoveryTimeoutMs);
  uint32_t backoff_ms = options_.retx_base_ms;
  auto next_retx = std::chrono::steady_clock::now() + std::chrono::milliseconds(backoff_ms);
  bool got = false;
  while (std::chrono::steady_clock::now() < deadline) {
    std::optional<net::Message> reply = endpoint_->Receive(kReceivePollMs);
    if (!reply.has_value()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_retx) {
        net::Message again;
        again.type = kStateReq;
        KAMINO_RETURN_IF_ERROR(endpoint_->Send(pred, std::move(again)));
        state_req_retransmits_.fetch_add(1, std::memory_order_relaxed);
        backoff_ms = std::min(backoff_ms * 2, options_.retx_cap_ms);
        next_retx = now + std::chrono::milliseconds(backoff_ms);
      }
      continue;
    }
    if (reply->type != kStateChunk) {
      continue;
    }
    if (reply->payload.size() != pool_->size()) {
      return Status::Corruption("state transfer size mismatch");
    }
    // Two-phase install: body first, superblock page last. Until the
    // superblock persists, the pool is unattachable and a crash reboots
    // into a full re-transfer (RejoinAsTail); once it persists, the image
    // is complete. The superblock page is the join's atomic commit point.
    {
      nvm::PersistSiteScope site("chain/state-transfer");
      uint8_t* body = pool_->base() + kSuperblockPage;
      std::memcpy(body, reply->payload.data() + kSuperblockPage,
                  reply->payload.size() - kSuperblockPage);
      pool_->Persist(body, pool_->size() - kSuperblockPage);
    }
    {
      nvm::PersistSiteScope site("chain/join-commit");
      std::memcpy(pool_->base(), reply->payload.data(), kSuperblockPage);
      pool_->Persist(pool_->base(), kSuperblockPage);
    }
    got = true;
    break;
  }
  if (!got) {
    return Status::Unavailable("state transfer timeout");
  }

  KAMINO_RETURN_IF_ERROR(BuildStore(/*attach=*/true, /*run_recovery=*/false));
  // The transferred image carries the predecessor's promotion cursor; this
  // node joined as a tail and has no built backup, so its cursor must say
  // untrusted before it can ever be consulted (it would only be read if
  // this node is later promoted, which re-stamps it anyway — but a crash
  // before that stamp persists must not inherit the predecessor's trust).
  if (view_cursor() != kViewCursorNone) {
    StampViewCursor(kViewCursorNone);
  }
  next_op_id_ = applied_watermark_.load(std::memory_order_relaxed) + 1;
  Start();
  return RequestReplay(pred);
}

Status Replica::RejoinAsTail() {
  // Power-cycle: volatile state dropped, unflushed NVM lines lost, then the
  // join protocol restarts from the beginning (full re-transfer).
  options_.network->SetNodeDown(options_.node_id, true);
  Stop();
  crashed_mid_apply_.store(false, std::memory_order_relaxed);
  tree_.reset();
  mgr_.reset();
  heap_.reset();
  if (pool_ != nullptr) {
    KAMINO_RETURN_IF_ERROR(pool_->Crash());
  }
  if (backup_pool_ != nullptr) {
    KAMINO_RETURN_IF_ERROR(backup_pool_->Crash());
  }
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    in_flight_.clear();
  }
  {
    std::lock_guard<std::mutex> lk(comp_mu_);
    last_acked_ = 0;
  }
  {
    std::lock_guard<std::mutex> lk(req_mu_);
    req_to_op_.clear();
    req_fifo_.clear();
  }
  {
    std::lock_guard<std::mutex> lk(keylock_mu_);
    locked_keys_.clear();
  }
  orphan_ops_.clear();
  pending_ops_.clear();
  peer_windows_.clear();
  cleaned_below_.store(0, std::memory_order_relaxed);
  return JoinAsTail();
}

}  // namespace kamino::chain
