#include "src/txn/tx_manager.h"

#include "src/txn/cow_engine.h"
#include "src/txn/kamino_engine.h"
#include "src/txn/nolog_engine.h"
#include "src/txn/redo_engine.h"
#include "src/txn/undo_engine.h"

namespace kamino::txn {

const char* EngineTypeName(EngineType type) {
  switch (type) {
    case EngineType::kKaminoSimple:
      return "kamino-simple";
    case EngineType::kKaminoDynamic:
      return "kamino-dynamic";
    case EngineType::kUndoLog:
      return "undo-logging";
    case EngineType::kCow:
      return "copy-on-write";
    case EngineType::kRedoLog:
      return "redo-logging";
    case EngineType::kNoLogging:
      return "no-logging";
    case EngineType::kChainReplica:
      return "chain-replica";
  }
  return "unknown";
}

// --- Tx ---------------------------------------------------------------------

void Tx::ResolveAbandoned() {
  if (ctx_ == nullptr) {
    return;
  }
  if (ctx_->prepared) {
    // A dropped prepared handle must still be resolved or its slot and write
    // locks leak. Commit only if the decision record is already durable
    // (coordinator); otherwise presumed abort — the same rule recovery uses.
    (void)FinishPrepared(/*commit=*/ctx_->decided);
    return;
  }
  if (ctx_->active) {
    (void)Abort();
  }
}

Tx& Tx::operator=(Tx&& other) noexcept {
  if (this != &other) {
    ResolveAbandoned();
    mgr_ = other.mgr_;
    ctx_ = std::move(other.ctx_);
  }
  return *this;
}

Tx::~Tx() { ResolveAbandoned(); }

Result<void*> Tx::OpenWrite(uint64_t offset, uint64_t size) {
  const WriteSpan span{offset, size};
  void* p = nullptr;
  KAMINO_RETURN_IF_ERROR(OpenWriteBatch(&span, 1, &p));
  return p;
}

Status Tx::OpenWriteBatch(const WriteSpan* spans, size_t count, void** out) {
  if (!active()) {
    return Status::Internal("transaction not active");
  }
  return mgr_->engine_->OpenWriteBatch(ctx_.get(), spans, count, out);
}

void* Tx::OpenedPointer(uint64_t offset) {
  if (!active()) {
    return nullptr;
  }
  const Intent* in = ctx_->FindOpen(offset);
  if (in == nullptr) {
    return nullptr;
  }
  if (in->kind == IntentKind::kCowWrite || in->kind == IntentKind::kRedoWrite) {
    return mgr_->heap_->pool()->At(in->aux);  // Shadow / staging copy.
  }
  return mgr_->heap_->pool()->At(offset);
}

Status Tx::ReadLock(uint64_t offset) {
  if (!active()) {
    return Status::Internal("transaction not active");
  }
  uint64_t passed = 0;
  Status st = mgr_->locks_->AcquireRead(offset, ctx_->txid, &passed);
  if (!st.ok()) {
    return st;
  }
  ctx_->read_lock_keys.push_back(offset);
  if (passed != 0) {
    ctx_->passed_writers.emplace_back(offset, passed);
  }
  return Status::Ok();
}

Result<uint64_t> Tx::Alloc(uint64_t size, bool zero) {
  if (!active()) {
    return Status::Internal("transaction not active");
  }
  Result<uint64_t> off = mgr_->engine_->Alloc(ctx_.get(), size);
  if (!off.ok()) {
    return off;
  }
  if (zero) {
    std::memset(mgr_->heap_->pool()->At(*off), 0, size);
  }
  return off;
}

Status Tx::Free(uint64_t offset) {
  if (!active()) {
    return Status::Internal("transaction not active");
  }
  return mgr_->engine_->Free(ctx_.get(), offset);
}

Status Tx::WaitPassedWriters() {
  if (!ctx_->slot.valid()) {
    return Status::Ok();  // Read-only: nothing of it will reach the backup.
  }
  // Our read lock keeps every passed key from being re-written, so once its
  // writer releases it the key stays free of writers until we commit.
  for (const auto& [key, writer] : ctx_->passed_writers) {
    KAMINO_RETURN_IF_ERROR(mgr_->locks_->WaitReleased(key, writer));
  }
  return Status::Ok();
}

void Tx::ReleaseReadLocks() {
  for (uint64_t key : ctx_->read_lock_keys) {
    mgr_->locks_->ReleaseRead(key, ctx_->txid);
  }
  ctx_->read_lock_keys.clear();
}

Status Tx::Commit(CommitAck* ack) {
  if (!active()) {
    return Status::Internal("transaction not active");
  }
  if (ack != nullptr) {
    ack->ticket = 0;  // Durable on return unless the engine says otherwise.
  }
  KAMINO_RETURN_IF_ERROR(WaitPassedWriters());
  ReleaseReadLocks();
  ctx_->active = false;
  Status st = mgr_->engine_->Commit(ctx_.get(), ack);
  ctx_.reset();
  return st;
}

Status Tx::Abort() {
  if (!active()) {
    return Status::Internal("transaction not active");
  }
  ReleaseReadLocks();
  ctx_->active = false;
  Status st = mgr_->engine_->Abort(ctx_.get());
  ctx_.reset();
  return st;
}

Status Tx::Prepare(uint64_t gtxid, uint64_t coord_shard) {
  if (!active()) {
    return Status::Internal("transaction not active");
  }
  if (mgr_->kamino_ == nullptr) {
    return Status::NotSupported("engine does not support cross-shard prepare");
  }
  KAMINO_RETURN_IF_ERROR(WaitPassedWriters());
  ReleaseReadLocks();
  ctx_->active = false;
  Status st = mgr_->kamino_->Prepare(ctx_.get(), gtxid, coord_shard);
  if (!st.ok()) {
    ctx_->active = true;  // Nothing durable happened; still abortable.
  }
  return st;
}

Status Tx::PersistDecision() {
  if (ctx_ == nullptr || !ctx_->prepared) {
    return Status::Internal("transaction not prepared");
  }
  return mgr_->kamino_->PersistDecision(ctx_.get());
}

Status Tx::FinishPrepared(bool commit) {
  if (ctx_ == nullptr || !ctx_->prepared) {
    return Status::Internal("transaction not prepared");
  }
  Status st = mgr_->kamino_->FinishPrepared(ctx_.get(), commit);
  ctx_.reset();
  return st;
}

// --- TxManager ----------------------------------------------------------------

TxManager::TxManager(heap::Heap* heap, const TxManagerOptions& options)
    : heap_(heap), options_(options) {}

Result<std::unique_ptr<TxManager>> TxManager::Create(heap::Heap* heap,
                                                     const TxManagerOptions& options) {
  if (heap == nullptr) {
    return Status::InvalidArgument("null heap");
  }
  auto mgr = std::unique_ptr<TxManager>(new TxManager(heap, options));
  Status st = mgr->Init(/*attach_existing=*/false);
  if (!st.ok()) {
    return st;
  }
  return mgr;
}

Result<std::unique_ptr<TxManager>> TxManager::Open(heap::Heap* heap,
                                                   const TxManagerOptions& options) {
  if (heap == nullptr) {
    return Status::InvalidArgument("null heap");
  }
  auto mgr = std::unique_ptr<TxManager>(new TxManager(heap, options));
  Status st = mgr->Init(/*attach_existing=*/true);
  if (!st.ok()) {
    return st;
  }
  if (!options.skip_recovery) {
    st = mgr->engine_->Recover();
    if (!st.ok()) {
      return st;
    }
  }
  mgr->next_txid_.store(mgr->log_->max_recovered_txid() + 1, std::memory_order_relaxed);
  return mgr;
}

TxManager::~TxManager() {
  if (engine_ != nullptr) {
    engine_->WaitIdle();
  }
}

Status TxManager::Init(bool attach_existing) {
  // Log manager over the heap's log region.
  if (attach_existing) {
    // Geometry comes from the persistent log header; options_.log supplies
    // the one runtime choice, epoch_commit.
    Result<std::unique_ptr<LogManager>> lm = LogManager::Open(
        heap_->pool(), heap_->log_region_offset(), options_.log.epoch_commit);
    if (!lm.ok()) {
      return lm.status();
    }
    log_ = std::move(*lm);
  } else {
    // Fit the default geometry into whatever log region the heap reserved:
    // shrink the per-slot size (payload area) before giving up.
    LogOptions lopts = options_.log;
    const uint64_t budget = (heap_->log_region_size() - 4096) / lopts.num_slots;
    if (lopts.slot_size > budget) {
      lopts.slot_size = budget & ~uint64_t{4095};
      const uint64_t min_slot = 64 + lopts.max_records * 64;
      if (lopts.slot_size < min_slot) {
        return Status::InvalidArgument("heap log region too small for the intent log");
      }
    }
    Result<std::unique_ptr<LogManager>> lm = LogManager::Create(
        heap_->pool(), heap_->log_region_offset(), heap_->log_region_size(), lopts);
    if (!lm.ok()) {
      return lm.status();
    }
    log_ = std::move(*lm);
  }

  locks_ = std::make_unique<LockManager>(options_.lock);

  const bool is_kamino = options_.engine == EngineType::kKaminoSimple ||
                         options_.engine == EngineType::kKaminoDynamic;
  if (is_kamino) {
    // Backup pool: borrowed or created.
    if (options_.external_backup_pool != nullptr) {
      backup_pool_ = options_.external_backup_pool;
    } else {
      nvm::PoolOptions popts;
      popts.path = options_.backup_path;
      popts.flush_latency_ns = options_.backup_flush_latency_ns;
      popts.drain_latency_ns = options_.backup_drain_latency_ns;
      popts.sleep_latency = options_.backup_sleep_latency;
      popts.site_prefix = options_.site_prefix;
      if (options_.engine == EngineType::kKaminoSimple) {
        popts.size = heap_->pool()->size();
      } else {
        const uint64_t budget = static_cast<uint64_t>(
            options_.alpha * static_cast<double>(heap_->allocator()->stats().capacity));
        popts.size =
            DynamicBackupStore::RequiredPoolSize(budget, options_.dynamic_lookup_buckets);
      }
      Result<std::unique_ptr<nvm::Pool>> bp = nvm::Pool::Create(popts);
      if (!bp.ok()) {
        return bp.status();
      }
      owned_backup_pool_ = std::move(*bp);
      backup_pool_ = owned_backup_pool_.get();
    }

    if (options_.engine == EngineType::kKaminoSimple) {
      if (backup_pool_->size() < heap_->pool()->size()) {
        return Status::InvalidArgument("full backup pool smaller than main pool");
      }
      backup_store_ = std::make_unique<FullBackupStore>(heap_->pool(), backup_pool_);
    } else {
      if (attach_existing) {
        Result<std::unique_ptr<DynamicBackupStore>> ds =
            DynamicBackupStore::Open(heap_->pool(), backup_pool_);
        if (!ds.ok()) {
          return ds.status();
        }
        backup_store_ = std::move(*ds);
      } else {
        DynamicBackupOptions dopts;
        dopts.lookup_buckets = options_.dynamic_lookup_buckets;
        dopts.budget_bytes = static_cast<uint64_t>(
            options_.alpha * static_cast<double>(heap_->allocator()->stats().capacity));
        Result<std::unique_ptr<DynamicBackupStore>> ds =
            DynamicBackupStore::Create(heap_->pool(), backup_pool_, dopts);
        if (!ds.ok()) {
          return ds.status();
        }
        backup_store_ = std::move(*ds);
      }
    }
    engine_ = std::make_unique<KaminoEngine>(
        heap_, log_.get(), locks_.get(), backup_store_.get(),
        options_.engine == EngineType::kKaminoDynamic, options_.applier_threads,
        options_.recovery);
    kamino_ = static_cast<KaminoEngine*>(engine_.get());
    return Status::Ok();
  }

  switch (options_.engine) {
    case EngineType::kChainReplica:
      backup_store_ = std::make_unique<NullBackupStore>();
      engine_ = std::make_unique<KaminoEngine>(heap_, log_.get(), locks_.get(),
                                               backup_store_.get(), /*dynamic=*/false,
                                               options_.applier_threads, options_.recovery);
      kamino_ = static_cast<KaminoEngine*>(engine_.get());
      return Status::Ok();
    case EngineType::kUndoLog:
      engine_ = std::make_unique<UndoLogEngine>(heap_, log_.get(), locks_.get());
      return Status::Ok();
    case EngineType::kCow:
      engine_ = std::make_unique<CowEngine>(heap_, log_.get(), locks_.get());
      return Status::Ok();
    case EngineType::kRedoLog:
      engine_ = std::make_unique<RedoLogEngine>(heap_, log_.get(), locks_.get());
      return Status::Ok();
    case EngineType::kNoLogging:
      engine_ = std::make_unique<NoLoggingEngine>(heap_, log_.get(), locks_.get());
      return Status::Ok();
    default:
      return Status::InvalidArgument("unknown engine type");
  }
}

Result<Tx> TxManager::Begin() {
  TxContextPtr ctx = NewTxContext();
  ctx->txid = next_txid_.fetch_add(1, std::memory_order_relaxed);
  return Tx(this, std::move(ctx));
}

Status TxManager::Run(FunctionRef<Status(Tx&)> body, CommitAck* ack) {
  if (ack != nullptr) {
    ack->ticket = 0;
  }
  Result<Tx> tx = Begin();
  if (!tx.ok()) {
    return tx.status();
  }
  Status st = body(*tx);
  if (!tx->active()) {
    return st;  // Body committed or aborted explicitly; ticket stays 0.
  }
  if (st.ok()) {
    return tx->Commit(ack);
  }
  (void)tx->Abort();
  return st;
}

Status TxManager::RunWithRetries(FunctionRef<Status(Tx&)> body, CommitAck* ack) {
  for (int attempt = 1;; ++attempt) {
    Status st = Run(body, ack);
    if (st.code() != StatusCode::kTxConflict || attempt == kMaxAttempts) {
      return st;
    }
  }
}

TxManager::Footprint TxManager::footprint() const {
  Footprint f;
  f.main_bytes = heap_->pool()->size();
  f.backup_bytes = engine_->backup_bytes();
  return f;
}

}  // namespace kamino::txn
