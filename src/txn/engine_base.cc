#include "src/txn/engine_base.h"

#include <cstring>

namespace kamino::txn {

Status EngineBase::Commit(TxContext* ctx, CommitAck* ack) {
  (void)ack;  // Durable on return.
  if (FinishUnlogged(ctx, kCommitted)) {
    return Status::Ok();
  }
  PersistWriteSet(ctx);
  log_->SetState(ctx->slot, TxState::kCommitted);
  InstallWriteSet(ctx);
  for (const Intent& in : ctx->intents) {
    KAMINO_RETURN_IF_ERROR(FinishCommitted(in));
  }
  log_->ReleaseSlot(ctx->slot);
  // A freed block is reusable only once the slot that would repeat its
  // free in recovery is durably released.
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kFree) {
      heap_->allocator()->ReleaseReservation(in.offset);
    }
  }
  ReleaseWriteLocks(ctx);
  counters_.Add(kCommitted);
  return Status::Ok();
}

Status EngineBase::Abort(TxContext* ctx) {
  if (FinishUnlogged(ctx, kAborted)) {
    return Status::Ok();
  }
  log_->SetState(ctx->slot, TxState::kAborted);
  {
    nvm::PersistSiteScope site(abort_site_);
    for (auto it = ctx->intents.rbegin(); it != ctx->intents.rend(); ++it) {
      KAMINO_RETURN_IF_ERROR(RollBack(*it));
    }
  }
  log_->ReleaseSlot(ctx->slot);
  ReleaseWriteLocks(ctx);
  counters_.Add(kAborted);
  return Status::Ok();
}

Status EngineBase::Recover() {
  nvm::PersistSiteScope site("engine/recover");
  for (const RecoveredTx& tx : log_->ScanForRecovery()) {
    SlotHandle handle = log_->HandleForRecovered(tx);
    if (tx.state == TxState::kCommitted) {
      for (const Intent& in : tx.intents) {
        KAMINO_RETURN_IF_ERROR(RollForward(in));
      }
      recovered_forward_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (recover_oldest_first_) {
        for (const Intent& in : tx.intents) {
          KAMINO_RETURN_IF_ERROR(RollBack(in));
        }
      } else {
        for (auto it = tx.intents.rbegin(); it != tx.intents.rend(); ++it) {
          KAMINO_RETURN_IF_ERROR(RollBack(*it));
        }
      }
      recovered_back_.fetch_add(1, std::memory_order_relaxed);
    }
    log_->ReleaseSlot(handle);
  }
  return Status::Ok();
}

Status EngineBase::FinishCommitted(const Intent& in) {
  if (in.kind == IntentKind::kFree) {
    return heap_->allocator()->FreeRawKeepReserved(in.offset);
  }
  return Status::Ok();
}

Status EngineBase::RollBack(const Intent& in) {
  if (in.kind == IntentKind::kAlloc) {
    return heap_->allocator()->FreeRaw(in.offset);
  }
  return Status::Ok();
}

Status EngineBase::RollForward(const Intent& in) {
  if (in.kind == IntentKind::kFree) {
    return heap_->allocator()->FreeRaw(in.offset);
  }
  return Status::Ok();
}

void EngineBase::FlushStaged(TxContext* ctx, IntentKind staged, const char* site) {
  nvm::PersistSiteScope scope(site);
  bool flushed = false;
  for (const Intent& in : ctx->intents) {
    if (in.kind == staged) {
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

void EngineBase::InstallStaged(TxContext* ctx, IntentKind staged, const char* site) {
  nvm::PersistSiteScope scope(site);
  bool installed = false;
  for (const Intent& in : ctx->intents) {
    if (in.kind == staged) {
      std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
      pool()->Flush(pool()->At(in.offset), in.size);
      installed = true;
    }
  }
  if (installed) {
    pool()->Drain();
  }
}

void EngineBase::InstallOne(const Intent& in) {
  std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
  pool()->Persist(pool()->At(in.offset), in.size);
}

}  // namespace kamino::txn
