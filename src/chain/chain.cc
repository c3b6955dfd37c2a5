#include "src/chain/chain.h"

#include <chrono>
#include <thread>

namespace kamino::chain {

namespace {
using Clock = std::chrono::steady_clock;

uint64_t MsUntil(Clock::time_point deadline) {
  const auto left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) {
    return 0;
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count());
}

Op SingleKeyOp(OpKind kind, uint64_t key, std::string_view value) {
  Op op;
  op.kind = kind;
  op.pairs.push_back({key, std::string(value)});
  return op;
}
}  // namespace

Chain::Chain(const ChainOptions& options) : options_(options) {}

Chain::~Chain() {
  // Detach the detector pipeline before tearing anything down: no new repair
  // tasks, then drain the worker, then stop the replicas.
  if (membership_ != nullptr) {
    membership_->SetViewChangeListener(nullptr);
  }
  {
    std::lock_guard<std::mutex> lk(repair_mu_);
    repair_stop_ = true;
  }
  repair_cv_.notify_all();
  if (repair_thread_.joinable()) {
    repair_thread_.join();
  }
  for (auto& r : replicas_) {
    r->Stop();
  }
}

Result<std::unique_ptr<Chain>> Chain::Create(const ChainOptions& options) {
  auto chain = std::unique_ptr<Chain>(new Chain(options));
  Status st = chain->Init();
  if (!st.ok()) {
    return st;
  }
  return chain;
}

ReplicaOptions Chain::MakeReplicaOptions(uint64_t node_id) const {
  ReplicaOptions ropts;
  ropts.node_id = node_id;
  ropts.kamino = options_.kamino;
  ropts.head_alpha = options_.head_alpha;
  ropts.pool_size = options_.pool_size;
  ropts.log_region_size = options_.log_region_size;
  ropts.flush_latency_ns = options_.flush_latency_ns;
  ropts.client_timeout_ms = options_.client_timeout_ms;
  ropts.retx_base_ms = options_.retx_base_ms;
  ropts.retx_cap_ms = options_.retx_cap_ms;
  ropts.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  ropts.suspicion_timeout_ms = options_.suspicion_timeout_ms;
  ropts.network = network_.get();
  ropts.membership = membership_.get();
  return ropts;
}

Status Chain::Init() {
  net::NetworkOptions nopts;
  nopts.one_way_latency_us = options_.one_way_latency_us;
  nopts.fault_seed = options_.fault_seed;
  network_ = std::make_unique<net::Network>(nopts);

  const int count = options_.kamino ? options_.f + 2 : options_.f + 1;
  std::vector<uint64_t> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(next_node_id_++);
  }
  membership_ = std::make_unique<MembershipManager>(ids);
  // Detector reports excise the suspect inside the membership manager; the
  // listener only enqueues — the repair worker fences and re-wires.
  membership_->SetViewChangeListener(
      [this](const View& /*new_view*/, uint64_t failed, const View& old_view) {
        {
          std::lock_guard<std::mutex> lk(repair_mu_);
          repair_queue_.push_back({failed, old_view});
        }
        repair_cv_.notify_one();
      });
  repair_thread_ = std::thread([this] { RepairWorker(); });

  for (uint64_t id : ids) {
    auto replica = std::make_unique<Replica>(MakeReplicaOptions(id));
    KAMINO_RETURN_IF_ERROR(replica->Init());
    replicas_.push_back(std::move(replica));
  }
  for (auto& r : replicas_) {
    r->Start();
  }
  return Status::Ok();
}

Replica* Chain::head() {
  const View v = membership_->current();
  return replica_by_id(v.head());
}

Replica* Chain::replica_by_id(uint64_t node_id) {
  for (auto& r : replicas_) {
    if (r->node_id() == node_id) {
      return r.get();
    }
  }
  return nullptr;
}

uint64_t Chain::total_nvm_bytes() const {
  const View v = membership_->current();
  uint64_t total = 0;
  for (const auto& r : replicas_) {
    if (v.Contains(r->node_id())) {
      total += r->nvm_bytes();
    }
  }
  return total;
}

ChainNetworkStats Chain::NetworkStats() {
  ChainNetworkStats out;
  out.net = network_->TotalStats();
  {
    std::shared_lock<std::shared_mutex> g(gate_);
    for (const auto& r : replicas_) {
      const ReplicaProtocolStats s = r->protocol_stats();
      out.retransmits += s.retransmits;
      out.state_req_retransmits += s.state_req_retransmits;
      out.dedup_dropped += s.dedup_dropped;
      out.regen_acks += s.regen_acks;
      out.reorder_buffered += s.reorder_buffered;
      out.req_dedup_hits += s.req_dedup_hits;
      out.heartbeats_sent += s.heartbeats_sent;
      out.suspicions_reported += s.suspicions_reported;
    }
  }
  out.suspicion_view_changes = membership_->suspicion_view_changes();
  return out;
}

void Chain::BroadcastView() {
  const View v = membership_->current();
  for (auto& r : replicas_) {
    if (v.Contains(r->node_id())) {
      r->UpdateView(v);
    }
  }
}

// --- Client API -----------------------------------------------------------------

Status Chain::DeadlineStatus(const Status& last) const {
  const View v = membership_->current();
  const size_t full =
      static_cast<size_t>(options_.kamino ? options_.f + 2 : options_.f + 1);
  if (!v.nodes.empty() && v.nodes.size() < full) {
    return Status::Degraded("chain below full strength: " + std::string(last.message()));
  }
  return last.ok() ? Status::Unavailable("client deadline exceeded") : last;
}

Status Chain::RunWrite(Op op, const std::function<void(std::string&)>* mutate) {
  op.req_id = next_req_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto deadline = Clock::now() + std::chrono::milliseconds(options_.client_timeout_ms);
  uint64_t attempt_ms = std::min<uint64_t>(options_.client_retry_base_ms,
                                           std::max<uint64_t>(options_.client_timeout_ms, 1));
  Status last = Status::Unavailable("no attempt made");
  while (true) {
    Replica* h = nullptr;
    Replica::WriteTicket ticket;
    {
      // Admission happens under the (shared) recovery gate; the wait for the
      // tail acknowledgment happens outside it so recovery can proceed while
      // clients are parked.
      std::shared_lock<std::shared_mutex> g(gate_);
      h = head();
      if (h != nullptr) {
        ticket = h->AdmitWrite(op, mutate);
      }
    }
    if (h == nullptr) {
      last = Status::Unavailable("no head");
    } else if (!ticket.admitted) {
      if (ticket.status.code() != StatusCode::kUnavailable) {
        return ticket.status;  // Definitive local rejection (e.g. NotFound).
      }
      last = ticket.status;
    } else {
      // Admitted (or recognized as a retry of an already-executed request).
      // Wait one bounded attempt; on timeout, loop to re-admit at whatever
      // head the chain has by then — the request id makes that safe.
      const uint64_t wait = std::min(attempt_ms, std::max<uint64_t>(MsUntil(deadline), 1));
      last = h->WaitWriteFor(ticket, wait);
      if (last.ok()) {
        return last;
      }
    }
    if (MsUntil(deadline) == 0) {
      return DeadlineStatus(last);
    }
    if (h == nullptr || !ticket.admitted) {
      // Nothing is in flight for us; back off briefly before re-probing.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    attempt_ms = std::min<uint64_t>(attempt_ms * 2, options_.client_timeout_ms);
  }
}

Status Chain::Update(uint64_t key, std::string_view value) {
  return RunWrite(SingleKeyOp(OpKind::kUpdate, key, value));
}

Status Chain::Upsert(uint64_t key, std::string_view value) {
  return RunWrite(SingleKeyOp(OpKind::kUpsert, key, value));
}

Status Chain::Delete(uint64_t key) { return RunWrite(SingleKeyOp(OpKind::kDelete, key, "")); }

Status Chain::ReadModifyWrite(uint64_t key, const std::function<void(std::string&)>& mutate) {
  return RunWrite(SingleKeyOp(OpKind::kUpdate, key, ""), &mutate);
}

Status Chain::MultiUpdate(const std::vector<std::pair<uint64_t, std::string>>& writes) {
  Op op;
  op.kind = OpKind::kUpdate;
  op.pairs.reserve(writes.size());
  for (const auto& [key, value] : writes) {
    op.pairs.push_back({key, value});
  }
  return RunWrite(std::move(op));
}

Status Chain::MultiUpsert(std::vector<KvPair> pairs) {
  Op op;
  op.kind = OpKind::kUpsert;
  op.pairs = std::move(pairs);
  return RunWrite(std::move(op));
}

Result<std::string> Chain::Read(uint64_t key) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(options_.client_timeout_ms);
  uint64_t attempt_ms = std::min<uint64_t>(options_.client_retry_base_ms,
                                           std::max<uint64_t>(options_.client_timeout_ms, 1));
  Status last = Status::Unavailable("no attempt made");
  while (true) {
    Replica* h = nullptr;
    {
      std::shared_lock<std::shared_mutex> g(gate_);
      h = head();
    }
    if (h != nullptr) {
      const uint64_t wait = std::min(attempt_ms, std::max<uint64_t>(MsUntil(deadline), 1));
      Result<std::string> res = h->ClientRead(key, wait);
      if (res.ok() || res.status().code() == StatusCode::kNotFound) {
        return res;
      }
      last = res.status();
    } else {
      last = Status::Unavailable("no head");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (MsUntil(deadline) == 0) {
      return DeadlineStatus(last);
    }
    attempt_ms = std::min<uint64_t>(attempt_ms * 2, options_.client_timeout_ms);
  }
}

Result<std::string> Chain::ReadStale(uint64_t key, uint64_t* applied_out) {
  std::shared_lock<std::shared_mutex> g(gate_);
  const View v = membership_->current();
  if (v.nodes.empty()) {
    return Status::Unavailable("empty view");
  }
  // Round-robin over the current view; skip dead replicas and fall through
  // to the next one, so a mid-failover read degrades to fewer servers
  // rather than an error.
  const size_t n = v.nodes.size();
  const size_t first = next_stale_.fetch_add(1, std::memory_order_relaxed) % n;
  Status last = Status::Unavailable("no live replica");
  for (size_t k = 0; k < n; ++k) {
    Replica* r = replica_by_id(v.nodes[(first + k) % n]);
    if (r == nullptr || !r->alive()) {
      continue;
    }
    Result<std::string> res = r->StaleRead(key, applied_out);
    if (res.ok() || res.status().code() == StatusCode::kNotFound) {
      return res;
    }
    last = res.status();
  }
  return last;
}

// --- Failure handling --------------------------------------------------------------

Status Chain::RepairLocked(uint64_t failed, const View& before) {
  const bool was_head = before.head() == failed;
  const uint64_t pred = before.PredecessorOf(failed);
  const uint64_t succ = before.SuccessorOf(failed);
  BroadcastView();

  if (was_head) {
    const View now = membership_->current();
    Replica* new_head = replica_by_id(now.head());
    if (new_head == nullptr) {
      return Status::Unavailable("chain empty");
    }
    KAMINO_RETURN_IF_ERROR(new_head->PromoteToHead());
  } else if (pred != 0 && succ != 0) {
    // Middle failure: the successor pulls anything the dead node swallowed
    // out of the predecessor's in-flight queue.
    Replica* s = replica_by_id(succ);
    if (s != nullptr) {
      KAMINO_RETURN_IF_ERROR(s->RequestReplay(pred));
    }
  }
  // Tail failure: UpdateView already made the new tail re-acknowledge its
  // progress to the head.
  return Status::Ok();
}

void Chain::RepairWorker() {
  while (true) {
    RepairTask task;
    {
      std::unique_lock<std::mutex> lk(repair_mu_);
      repair_cv_.wait(lk, [&] { return repair_stop_ || !repair_queue_.empty(); });
      if (repair_queue_.empty()) {
        return;  // Stop requested and nothing left to do.
      }
      task = std::move(repair_queue_.front());
      repair_queue_.pop_front();
    }
    std::unique_lock<std::shared_mutex> gate(gate_);
    Replica* victim = replica_by_id(task.failed);
    if (victim != nullptr) {
      // Fence: the suspect may be partitioned rather than dead. Taking it off
      // the network makes "suspected" equivalent to "failed" before re-wiring.
      victim->CrashStop();
    }
    (void)RepairLocked(task.failed, task.old_view);
  }
}

Status Chain::KillReplica(uint64_t node_id) {
  std::unique_lock<std::shared_mutex> gate(gate_);
  Replica* victim = replica_by_id(node_id);
  if (victim == nullptr) {
    return Status::NotFound("no such replica");
  }
  const View before = membership_->current();

  victim->CrashStop();
  membership_->ReportFailure(node_id);
  return RepairLocked(node_id, before);
}

Status Chain::RebootReplica(uint64_t node_id) {
  std::unique_lock<std::shared_mutex> gate(gate_);
  Replica* victim = replica_by_id(node_id);
  if (victim == nullptr) {
    return Status::NotFound("no such replica");
  }
  return victim->QuickReboot();
}

Result<uint64_t> Chain::PrepareJoiningReplica() {
  std::unique_lock<std::shared_mutex> gate(gate_);
  auto replica = std::make_unique<Replica>(MakeReplicaOptions(next_node_id_));
  const uint64_t id = next_node_id_++;
  // Materialize the pool now so crash-point observers can watch the whole
  // state transfer, including its very first persist.
  KAMINO_RETURN_IF_ERROR(replica->EnsureMainPool());
  replicas_.push_back(std::move(replica));
  return id;
}

Status Chain::CompleteJoin(uint64_t node_id) {
  std::unique_lock<std::shared_mutex> gate(gate_);
  Replica* r = replica_by_id(node_id);
  if (r == nullptr) {
    return Status::NotFound("no such replica");
  }
  if (!membership_->current().Contains(node_id)) {
    membership_->AddTail(node_id);
    BroadcastView();
  }
  return r->JoinAsTail();
}

Status Chain::RetryJoin(uint64_t node_id) {
  std::unique_lock<std::shared_mutex> gate(gate_);
  Replica* r = replica_by_id(node_id);
  if (r == nullptr) {
    return Status::NotFound("no such replica");
  }
  return r->RejoinAsTail();
}

Status Chain::AddReplica() {
  Result<uint64_t> id = PrepareJoiningReplica();
  if (!id.ok()) {
    return id.status();
  }
  return CompleteJoin(*id);
}

Status Chain::Quiesce(uint64_t timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      // Shared-lock each poll so the detector's repair worker (which holds
      // gate_ exclusively while re-wiring replicas and swapping engines)
      // cannot mutate replicas_ or a replica's manager under our feet. The
      // lock is dropped across the sleep so repair is never stalled for the
      // whole quiesce timeout.
      std::shared_lock<std::shared_mutex> g(gate_);
      const View v = membership_->current();
      bool drained = true;
      for (uint64_t id : v.nodes) {
        Replica* r = replica_by_id(id);
        if (r != nullptr && r->alive() && r->in_flight_size() != 0) {
          drained = false;
          break;
        }
      }
      if (drained) {
        Replica* h = replica_by_id(v.head());
        if (h != nullptr && h->manager() != nullptr) {
          h->manager()->WaitIdle();
        }
        return Status::Ok();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::Unavailable("quiesce timeout");
}

}  // namespace kamino::chain
