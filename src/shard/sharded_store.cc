#include "src/shard/sharded_store.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

#include "src/txn/kamino_engine.h"

namespace kamino::shard {

namespace {

// splitmix64 finalizer: uniform over shards even for dense sequential keys
// (YCSB's user0..userN), unlike a bare modulo.
uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool IsKaminoEngine(txn::EngineType type) {
  return type == txn::EngineType::kKaminoSimple || type == txn::EngineType::kKaminoDynamic;
}

Status ValidateOptions(const ShardedStoreOptions& options, bool open) {
  if (options.num_shards < 1 || options.num_shards > 1024) {
    return Status::InvalidArgument("num_shards must be in [1, 1024]");
  }
  if (!IsKaminoEngine(options.engine)) {
    // Prepare/PersistDecision/FinishPrepared are implemented by the Kamino
    // engines; the cross-shard commit has no meaning for the baselines.
    return Status::NotSupported("sharded store requires a Kamino engine");
  }
  if (!options.external_pools.empty() &&
      options.external_pools.size() != static_cast<size_t>(options.num_shards)) {
    return Status::InvalidArgument("external_pools size must equal num_shards");
  }
  if (open && options.external_pools.empty()) {
    return Status::InvalidArgument(
        "ShardedStore::Open requires external pools (owned pools are anonymous "
        "and cannot survive a restart)");
  }
  if (!options.external_pools.empty()) {
    for (const auto& p : options.external_pools) {
      if (p.main == nullptr || p.backup == nullptr) {
        return Status::InvalidArgument("external shard pools must be non-null");
      }
    }
  }
  return Status::Ok();
}

Status Combine(const std::vector<Status>& per_shard) {
  std::string msg;
  for (size_t i = 0; i < per_shard.size(); ++i) {
    if (per_shard[i].ok()) {
      continue;
    }
    if (!msg.empty()) {
      msg += "; ";
    }
    msg += "shard" + std::to_string(i) + ": " + std::string(per_shard[i].message());
  }
  return msg.empty() ? Status::Ok() : Status::Unavailable(std::move(msg));
}

}  // namespace

txn::TxManagerOptions ShardedStore::ManagerOptions(const ShardedStoreOptions& options,
                                                   size_t i, nvm::Pool* external_backup,
                                                   bool open) {
  txn::TxManagerOptions mopts;
  mopts.engine = options.engine;
  mopts.log = options.log;
  mopts.lock = options.lock;
  mopts.applier_threads = options.applier_threads;
  mopts.alpha = options.alpha;
  mopts.recovery = options.recovery;
  mopts.external_backup_pool = external_backup;
  mopts.backup_flush_latency_ns = options.backup_flush_latency_ns;
  mopts.backup_drain_latency_ns = options.backup_drain_latency_ns;
  mopts.backup_sleep_latency = options.sleep_latency;
  mopts.site_prefix = "shard" + std::to_string(i);
  // Sharded open always splits attach (phase A) from recovery (phase C):
  // in-doubt resolution must land between them.
  mopts.skip_recovery = open;
  return mopts;
}

Result<std::unique_ptr<ShardedStore>> ShardedStore::Create(const ShardedStoreOptions& options) {
  KAMINO_RETURN_IF_ERROR(ValidateOptions(options, /*open=*/false));
  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  store->shards_.resize(static_cast<size_t>(options.num_shards));

  for (size_t i = 0; i < store->shards_.size(); ++i) {
    Shard& shard = store->shards_[i];
    if (options.external_pools.empty()) {
      heap::HeapOptions hopts;
      hopts.pool_size = options.pool_size;
      hopts.log_region_size = options.log_region_size;
      hopts.sleep_latency = options.sleep_latency;
      hopts.flush_latency_ns = options.flush_latency_ns;
      hopts.drain_latency_ns = options.drain_latency_ns;
      hopts.site_prefix = "shard" + std::to_string(i);
      Result<std::unique_ptr<heap::Heap>> heap = heap::Heap::Create(hopts);
      if (!heap.ok()) {
        return heap.status();
      }
      shard.heap = std::move(*heap);
    } else {
      shard.main_pool = options.external_pools[i].main;
      shard.backup_pool = options.external_pools[i].backup;
      Result<std::unique_ptr<heap::Heap>> heap =
          heap::Heap::CreateOn(shard.main_pool, options.log_region_size);
      if (!heap.ok()) {
        return heap.status();
      }
      shard.heap = std::move(*heap);
    }

    Result<std::unique_ptr<txn::TxManager>> mgr = txn::TxManager::Create(
        shard.heap.get(), ManagerOptions(options, i, shard.backup_pool, /*open=*/false));
    if (!mgr.ok()) {
      return mgr.status();
    }
    shard.mgr = std::move(*mgr);

    Result<std::unique_ptr<kv::KvStore>> kv = kv::KvStore::CreateDetached(shard.mgr.get());
    if (!kv.ok()) {
      return kv.status();
    }
    shard.store = std::move(*kv);

    // Persist the anchor transactionally, then publish it at the heap root
    // (failure-atomic 8-byte store). A crash before set_root leaks only the
    // anchor block of a store that was never created.
    uint64_t anchor_off = 0;
    Status st = shard.mgr->Run([&](txn::Tx& tx) -> Status {
      Result<uint64_t> off = tx.Alloc(sizeof(ShardAnchor));
      if (!off.ok()) {
        return off.status();
      }
      Result<void*> p = tx.OpenWrite(*off, sizeof(ShardAnchor));
      if (!p.ok()) {
        return p.status();
      }
      auto* anchor = static_cast<ShardAnchor*>(*p);
      anchor->magic = kShardAnchorMagic;
      anchor->version = kShardAnchorVersion;
      anchor->num_shards = static_cast<uint64_t>(options.num_shards);
      anchor->shard_index = i;
      anchor->tree_anchor = shard.store->anchor();
      anchor_off = *off;
      return Status::Ok();
    });
    if (!st.ok()) {
      return st;
    }
    shard.heap->set_root(anchor_off);
    shard.open_status = Status::Ok();
  }
  return store;
}

Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(const ShardedStoreOptions& options) {
  KAMINO_RETURN_IF_ERROR(ValidateOptions(options, /*open=*/true));
  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  const size_t n = static_cast<size_t>(options.num_shards);
  store->shards_.resize(n);
  std::vector<Status> phase_a(n, Status::Ok());
  std::vector<uint64_t> tree_anchor(n, 0);

  // --- Phase A (parallel): attach pools, validate anchors, open managers
  // WITHOUT recovery. Recovery cannot run yet: rolling a committed
  // coordinator slot forward releases it, destroying the decision record
  // in-doubt participants on other shards still need.
  {
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      workers.emplace_back([&, i] {
        Shard& shard = store->shards_[i];
        shard.main_pool = options.external_pools[i].main;
        shard.backup_pool = options.external_pools[i].backup;
        Result<std::unique_ptr<heap::Heap>> heap = heap::Heap::Attach(shard.main_pool);
        if (!heap.ok()) {
          phase_a[i] = heap.status();
          return;
        }
        const uint64_t root = (*heap)->root();
        if (root == 0) {
          phase_a[i] = Status::NotFound("shard heap root holds no anchor");
          return;
        }
        const auto* anchor = static_cast<const ShardAnchor*>(shard.main_pool->At(root));
        if (anchor->magic != kShardAnchorMagic || anchor->version != kShardAnchorVersion) {
          phase_a[i] = Status::Corruption("bad shard anchor magic/version");
          return;
        }
        if (anchor->num_shards != static_cast<uint64_t>(options.num_shards) ||
            anchor->shard_index != i) {
          phase_a[i] = Status::InvalidArgument(
              "shard topology mismatch: pool was formatted as shard " +
              std::to_string(anchor->shard_index) + "/" + std::to_string(anchor->num_shards) +
              ", opened as shard " + std::to_string(i) + "/" +
              std::to_string(options.num_shards));
          return;
        }
        tree_anchor[i] = anchor->tree_anchor;
        shard.heap = std::move(*heap);
        Result<std::unique_ptr<txn::TxManager>> mgr = txn::TxManager::Open(
            shard.heap.get(), ManagerOptions(options, i, shard.backup_pool, /*open=*/true));
        if (!mgr.ok()) {
          phase_a[i] = mgr.status();
          shard.heap.reset();
          return;
        }
        shard.mgr = std::move(*mgr);
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    store->shards_[i].open_status = phase_a[i];
  }
  if (!options.allow_partial_open) {
    Status st = Combine(phase_a);
    if (!st.ok()) {
      return st;
    }
  }

  // --- Phase B (serial): resolve in-doubt prepared slots. A prepared slot
  // commits iff its coordinator shard's slot for the gtxid is durably
  // kCommitted (the decision record); anything else — coordinator slot still
  // kPrepared, or absent — is a presumed abort, which is safe because the
  // coordinator's context is only handed to its applier (and hence its slot
  // only released) after every participant has durably left kPrepared.
  std::vector<std::vector<txn::RecoveredTx>> scans(n);
  for (size_t i = 0; i < n; ++i) {
    if (store->shards_[i].mgr != nullptr) {
      scans[i] = store->shards_[i].mgr->log()->ScanForRecovery();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Shard& shard = store->shards_[i];
    if (shard.mgr == nullptr) {
      continue;
    }
    for (const txn::RecoveredTx& tx : scans[i]) {
      if (tx.state != txn::TxState::kPrepared) {
        continue;
      }
      if (tx.coord_shard >= n || store->shards_[tx.coord_shard].mgr == nullptr) {
        // The decision record is unreachable (corrupt coordinate, or the
        // coordinator shard failed to open): this shard cannot be recovered
        // correctly, so it joins the failed set rather than guessing.
        shard.open_status = Status::Unavailable(
            "in-doubt transaction depends on unavailable coordinator shard " +
            std::to_string(tx.coord_shard));
        shard.store.reset();
        shard.mgr.reset();
        shard.heap.reset();
        break;
      }
      bool commit = false;
      for (const txn::RecoveredTx& coord_tx : scans[tx.coord_shard]) {
        if (coord_tx.txid == tx.gtxid) {
          commit = coord_tx.state == txn::TxState::kCommitted;
          break;
        }
      }
      shard.mgr->log()->ResolvePrepared(tx, commit);
    }
  }
  if (!options.allow_partial_open) {
    std::vector<Status> phase_b(n, Status::Ok());
    for (size_t i = 0; i < n; ++i) {
      phase_b[i] = store->shards_[i].open_status;
    }
    Status st = Combine(phase_b);
    if (!st.ok()) {
      return st;
    }
  }

  // --- Phase C (parallel): ordinary per-shard recovery, then store attach.
  // Every slot is now kFree/kRunning/kCommitted/kAborted — the single-heap
  // recovery path applies unchanged.
  {
    std::vector<Status> phase_c(n, Status::Ok());
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (store->shards_[i].mgr == nullptr) {
        continue;
      }
      workers.emplace_back([&, i] {
        Shard& shard = store->shards_[i];
        Status st = shard.mgr->engine()->Recover();
        if (!st.ok()) {
          phase_c[i] = st;
          return;
        }
        Result<std::unique_ptr<kv::KvStore>> kv =
            kv::KvStore::Attach(shard.mgr.get(), tree_anchor[i]);
        if (!kv.ok()) {
          phase_c[i] = kv.status();
          return;
        }
        shard.store = std::move(*kv);
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    for (size_t i = 0; i < n; ++i) {
      Shard& shard = store->shards_[i];
      if (shard.mgr != nullptr && !phase_c[i].ok()) {
        shard.open_status = phase_c[i];
        shard.store.reset();
        shard.mgr.reset();
        shard.heap.reset();
      }
    }
    if (!options.allow_partial_open) {
      Status st = Combine(phase_c);
      if (!st.ok()) {
        return st;
      }
    }
  }
  return store;
}

ShardedStore::~ShardedStore() = default;

size_t ShardedStore::ShardOf(uint64_t key) const {
  return static_cast<size_t>(MixKey(key) % shards_.size());
}

Status ShardedStore::CheckShard(uint64_t key, size_t* shard) const {
  *shard = ShardOf(key);
  const Shard& s = shards_[*shard];
  if (s.mgr == nullptr) {
    return Status::Unavailable("shard " + std::to_string(*shard) + " is unavailable (" +
                               std::string(s.open_status.message()) + ")");
  }
  return Status::Ok();
}

Result<std::string> ShardedStore::Read(uint64_t key) {
  size_t s = 0;
  KAMINO_RETURN_IF_ERROR(CheckShard(key, &s));
  return shards_[s].store->Read(key);
}

Status ShardedStore::Update(uint64_t key, std::string_view value) {
  size_t s = 0;
  KAMINO_RETURN_IF_ERROR(CheckShard(key, &s));
  return shards_[s].store->Update(key, value);
}

Status ShardedStore::Insert(uint64_t key, std::string_view value) {
  size_t s = 0;
  KAMINO_RETURN_IF_ERROR(CheckShard(key, &s));
  return shards_[s].store->Insert(key, value);
}

Status ShardedStore::Upsert(uint64_t key, std::string_view value) {
  size_t s = 0;
  KAMINO_RETURN_IF_ERROR(CheckShard(key, &s));
  return shards_[s].store->Upsert(key, value);
}

Status ShardedStore::Delete(uint64_t key) {
  size_t s = 0;
  KAMINO_RETURN_IF_ERROR(CheckShard(key, &s));
  return shards_[s].store->Delete(key);
}

Status ShardedStore::ReadModifyWrite(uint64_t key,
                                     const std::function<void(std::string&)>& mutate) {
  size_t s = 0;
  KAMINO_RETURN_IF_ERROR(CheckShard(key, &s));
  return shards_[s].store->ReadModifyWrite(key, mutate);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ShardedStore::Scan(uint64_t start,
                                                                         size_t limit) {
  // A scan is a global read, so any unavailable shard fails it (a silently
  // partial scan would be wrong).
  bool all_snapshot = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].mgr == nullptr) {
      return Status::Unavailable("scan needs all shards; shard " + std::to_string(i) +
                                 " is unavailable");
    }
    txn::BackupStore* bs = shards_[i].mgr->backup_store();
    if (bs == nullptr || !bs->supports_snapshot_reads()) {
      all_snapshot = false;
    }
  }
  // Preferred path: the per-shard epoch-vector cut — each shard contributes
  // a transaction-consistent state instead of the old merged read without a
  // cut, which could observe one key of a multi-key transaction on shard A
  // while missing its sibling write still applying on shard B.
  if (all_snapshot) {
    // A cut may trail the main heap: make every shard's cut cover the writes
    // that returned before this call, then read at the epoch vector.
    for (auto& shard : shards_) {
      shard.mgr->engine()->SyncCut();
    }
    return SnapshotScan(start, limit, nullptr);
  }
  // Each shard's smallest `limit` keys >= start form a superset of the global
  // smallest `limit`: merge, sort, truncate.
  std::vector<std::pair<uint64_t, std::string>> merged;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Result<std::vector<std::pair<uint64_t, std::string>>> part =
        shards_[i].store->Scan(start, limit);
    if (!part.ok()) {
      return part.status();
    }
    merged.insert(merged.end(), std::make_move_iterator(part->begin()),
                  std::make_move_iterator(part->end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (merged.size() > limit) {
    merged.resize(limit);
  }
  return merged;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ShardedStore::SnapshotScan(
    uint64_t start, size_t limit, std::vector<uint64_t>* epochs_out) {
  // Open every shard's view BEFORE reading any shard: the cut vector is
  // chosen in one tight pass, so the skew between shard epochs is bounded by
  // the open loop rather than by the (much longer) scan itself. Holding
  // several views at once cannot deadlock — the cut gate is per-store, and
  // appliers never wait on another store's gate.
  std::vector<txn::BackupStore::SnapshotView> views;
  views.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].mgr == nullptr) {
      return Status::Unavailable("scan needs all shards; shard " + std::to_string(i) +
                                 " is unavailable");
    }
    txn::BackupStore* bs = shards_[i].mgr->backup_store();
    if (bs == nullptr) {
      return Status::NotSupported("shard engine has no backup store");
    }
    shards_[i].mgr->WaitForRecovery();
    Result<txn::BackupStore::SnapshotView> view = bs->OpenSnapshot();
    if (!view.ok()) {
      return view.status();
    }
    views.push_back(std::move(*view));
  }
  if (epochs_out != nullptr) {
    epochs_out->clear();
    for (const auto& v : views) {
      epochs_out->push_back(v.epoch());
    }
  }
  std::vector<std::pair<uint64_t, std::string>> merged;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Result<std::vector<std::pair<uint64_t, std::string>>> part =
        shards_[i].store->tree()->SnapshotScan(views[i], start, limit);
    if (!part.ok()) {
      return part.status();
    }
    merged.insert(merged.end(), std::make_move_iterator(part->begin()),
                  std::make_move_iterator(part->end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (merged.size() > limit) {
    merged.resize(limit);
  }
  return merged;
}

Status ShardedStore::MultiUpdate(const std::vector<std::pair<uint64_t, std::string>>& writes) {
  if (writes.empty()) {
    return Status::Ok();
  }
  // Group by shard; within a shard the last write to a key wins (map order is
  // irrelevant — the whole batch is atomic).
  std::map<size_t, std::vector<const std::pair<uint64_t, std::string>*>> by_shard;
  for (const auto& w : writes) {
    size_t s = 0;
    KAMINO_RETURN_IF_ERROR(CheckShard(w.first, &s));
    by_shard[s].push_back(&w);
  }

  if (by_shard.size() == 1) {
    // Fully shard-local: one ordinary transaction, no 2PC.
    Status st = shards_[by_shard.begin()->first].store->MultiUpdate(writes);
    if (st.ok()) {
      single_shard_multi_updates_.fetch_add(1, std::memory_order_relaxed);
    }
    return st;
  }

  // Cross-shard: stage per-shard transactions in ascending shard order (a
  // global acquisition order, so concurrent MultiUpdates cannot deadlock;
  // conflicts degrade to lock timeouts), then run the 2PC commit. The
  // coordinator is the lowest participating shard and the cross-shard txid is
  // its local txid — unique among in-flight transactions on that shard, which
  // is the only namespace recovery resolves it in.
  constexpr int kMaxAttempts = 8;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::vector<size_t> shard_ids;
    shard_ids.reserve(by_shard.size());
    for (const auto& [s, unused] : by_shard) {
      shard_ids.push_back(s);
    }
    const size_t coord = shard_ids.front();

    std::vector<pds::BPlusTree::SharedGuard> guards;
    std::vector<txn::Tx> txs;
    guards.reserve(shard_ids.size());
    txs.reserve(shard_ids.size());

    Status st = Status::Ok();
    for (size_t s : shard_ids) {
      guards.push_back(shards_[s].store->tree()->LockShared());
      Result<txn::Tx> tx = shards_[s].mgr->Begin();
      if (!tx.ok()) {
        st = tx.status();
        break;
      }
      txs.push_back(std::move(*tx));
    }
    if (st.ok()) {
      for (size_t k = 0; k < txs.size() && st.ok(); ++k) {
        pds::BPlusTree* tree = shards_[shard_ids[k]].store->tree();
        for (const auto* w : by_shard[shard_ids[k]]) {
          st = tree->UpdateInTx(txs[k], w->first, w->second);
          if (!st.ok()) {
            break;
          }
        }
      }
    }
    if (st.ok()) {
      // Prepare in ascending order, coordinator first: a durably prepared
      // participant therefore implies the coordinator's slot (the future
      // decision record) durably exists.
      const uint64_t gtxid = txs.front().txid();
      for (size_t k = 0; k < txs.size() && st.ok(); ++k) {
        st = txs[k].Prepare(gtxid, coord);
      }
      if (st.ok()) {
        st = txs.front().PersistDecision();
      }
      if (st.ok()) {
        // The decision record is durable: the transaction IS committed, on
        // every shard, no matter what fails from here on. Convert the
        // participants first; the coordinator goes last so its slot — the
        // record recovery consults — outlives every in-doubt participant.
        for (size_t k = txs.size(); k-- > 1;) {
          (void)txs[k].FinishPrepared(true);
        }
        (void)txs.front().FinishPrepared(true);
        cross_shard_commits_.fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      }
    }
    // Failure before the decision record: abort everything still owned.
    // Prepared handles resolve via FinishPrepared(false), active ones via
    // Abort; Tx's destructor applies exactly that rule, so clearing the
    // vector is the abort.
    txs.clear();
    guards.clear();
    cross_shard_aborts_.fetch_add(1, std::memory_order_relaxed);
    last = st;
    if (st.code() != StatusCode::kTxConflict) {
      return st;
    }
  }
  return last;
}

txn::EngineStats ShardedStore::ShardStats(size_t i) const {
  if (shards_[i].mgr == nullptr) {
    return txn::EngineStats{};
  }
  return shards_[i].mgr->engine()->stats();
}

void ShardedStore::WaitIdle() {
  for (auto& shard : shards_) {
    if (shard.mgr != nullptr) {
      shard.mgr->WaitIdle();
    }
  }
}

void ShardedStore::PauseAppliers(bool paused) {
  for (auto& shard : shards_) {
    if (shard.mgr != nullptr) {
      static_cast<txn::KaminoEngine*>(shard.mgr->engine())->PauseApplier(paused);
    }
  }
}

ShardedStore::CrossShardStats ShardedStore::cross_shard_stats() const {
  CrossShardStats s;
  s.cross_shard_commits = cross_shard_commits_.load(std::memory_order_relaxed);
  s.cross_shard_aborts = cross_shard_aborts_.load(std::memory_order_relaxed);
  s.single_shard_multi_updates = single_shard_multi_updates_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace kamino::shard
