#include "src/txn/redo_engine.h"

#include <cstring>

namespace kamino::txn {

Status RedoLogEngine::OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                     void** out) {
  // Batched staging: N staging copies inside the log slot (no heap
  // allocation, but still a critical-path copy — the cost profile the
  // paper's §2 attributes to NVM-Log) and N records flushed, one drain. The
  // staged values only matter once the commit record is durable, and the
  // commit path drains the whole write set before that, so batching here is
  // crash-order neutral.
  bool appended = false;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t offset = spans[i].offset;
    if (ctx->FindOpen(offset) != nullptr) {
      continue;
    }
    Result<uint64_t> resolved = ResolveSize(offset, spans[i].size);
    if (!resolved.ok()) {
      return resolved.status();
    }
    const uint64_t size = *resolved;
    KAMINO_RETURN_IF_ERROR(EnsureSlot(ctx));
    KAMINO_RETURN_IF_ERROR(LockWrite(ctx, offset));
    Result<uint64_t> staging = log_->ReservePayload(ctx->slot, size);
    if (!staging.ok()) {
      return staging.status();
    }
    std::memcpy(pool()->At(*staging), pool()->At(offset), size);
    KAMINO_RETURN_IF_ERROR(log_->AppendRecord(ctx->slot, IntentKind::kRedoWrite, offset, size,
                                              *staging, /*drain=*/false));
    ctx->AddOpenIntent(Intent{IntentKind::kRedoWrite, offset, size, *staging});
    appended = true;
  }
  if (appended) {
    log_->DrainAppends();
  }
  for (size_t i = 0; i < count; ++i) {
    const Intent* in = ctx->FindOpen(spans[i].offset);
    out[i] = in->kind == IntentKind::kRedoWrite ? pool()->At(in->aux) : pool()->At(in->offset);
  }
  return Status::Ok();
}

Status RedoLogEngine::Commit(TxContextPtr ctx) {
  if (!ctx->slot.valid()) {
    ReleaseWriteLocks(ctx.get());
    counters_.Add(kCommitted);
    return Status::Ok();
  }
  // 1. Persist the staged new values + objects allocated in this txn.
  {
    nvm::PersistSiteScope site("redo/stage-commit");
    bool flushed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kRedoWrite) {
        pool()->Flush(pool()->At(in.aux), in.size);
        flushed = true;
      } else if (in.kind == IntentKind::kAlloc) {
        pool()->Flush(pool()->At(in.offset), in.size);
        flushed = true;
      }
    }
    if (flushed) {
      pool()->Drain();
    }
  }
  // 2. Durable commit point.
  log_->SetState(ctx->slot, TxState::kCommitted);
  // 3. Redo: install the staged values over the originals (replayed by
  //    recovery if we crash mid-install).
  {
    nvm::PersistSiteScope site("redo/install");
    bool installed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kRedoWrite) {
        std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
        pool()->Flush(pool()->At(in.offset), in.size);
        installed = true;
      }
    }
    if (installed) {
      pool()->Drain();
    }
  }
  // 4. Deferred frees, then release.
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kFree) {
      KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRawKeepReserved(in.offset));
    }
  }
  log_->ReleaseSlot(ctx->slot);
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kFree) {
      heap_->allocator()->ReleaseReservation(in.offset);
    }
  }
  ReleaseWriteLocks(ctx.get());
  counters_.Add(kCommitted);
  return Status::Ok();
}

Status RedoLogEngine::Abort(TxContext* ctx) {
  if (!ctx->slot.valid()) {
    ReleaseWriteLocks(ctx);
    counters_.Add(kAborted);
    return Status::Ok();
  }
  log_->SetState(ctx->slot, TxState::kAborted);
  // The main heap was never touched: only compensate allocations.
  for (auto it = ctx->intents.rbegin(); it != ctx->intents.rend(); ++it) {
    if (it->kind == IntentKind::kAlloc) {
      KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(it->offset));
    }
  }
  log_->ReleaseSlot(ctx->slot);
  ReleaseWriteLocks(ctx);
  counters_.Add(kAborted);
  return Status::Ok();
}

Status RedoLogEngine::Recover() {
  nvm::PersistSiteScope site("engine/recover");
  std::vector<RecoveredTx> txs = log_->ScanForRecovery();
  for (const RecoveredTx& tx : txs) {
    SlotHandle handle = log_->HandleForRecovered(tx);
    if (tx.state == TxState::kCommitted) {
      // Replay the redo step from the durable staging copies.
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kRedoWrite) {
          std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
          pool()->Persist(pool()->At(in.offset), in.size);
        } else if (in.kind == IntentKind::kFree) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
      recovered_forward_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kAlloc) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
      recovered_back_.fetch_add(1, std::memory_order_relaxed);
    }
    log_->ReleaseSlot(handle);
  }
  return Status::Ok();
}

}  // namespace kamino::txn
