#include "src/txn/cow_engine.h"

#include <cstring>

namespace kamino::txn {

Status CowEngine::OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                 void** out) {
  // The critical-path shadow: allocate, record (so recovery can find or
  // discard it), then copy the current contents in. Two phases so the
  // crash-ordering invariant (shadow record durable before any persistent
  // allocator metadata changes) holds for the whole batch with a single
  // drain: first reserve + flush every record, drain once, then commit the
  // allocations and populate the shadows.
  struct PendingSpan {
    size_t span_index;
    alloc::Reservation resv;
    uint64_t size;
  };
  // Per-thread scratch, so a steady-state batch allocates nothing.
  thread_local std::vector<PendingSpan> pending;
  pending.clear();
  auto cancel_pending = [&] {
    for (const PendingSpan& p : pending) {
      heap_->allocator()->CancelAlloc(p.resv);
    }
  };
  for (size_t i = 0; i < count; ++i) {
    const uint64_t offset = spans[i].offset;
    if (ctx->FindOpen(offset) != nullptr) {
      continue;
    }
    Result<uint64_t> resolved = ResolveSize(offset, spans[i].size);
    if (!resolved.ok()) {
      cancel_pending();
      return resolved.status();
    }
    const uint64_t size = *resolved;
    Status st = EnsureSlot(ctx);
    if (st.ok()) {
      st = LockWrite(ctx, offset);
    }
    if (!st.ok()) {
      cancel_pending();
      return st;
    }
    Result<alloc::Reservation> resv = heap_->allocator()->PrepareAlloc(size);
    if (!resv.ok()) {
      cancel_pending();
      return resv.status();
    }
    st = log_->AppendRecord(ctx->slot, IntentKind::kCowWrite, offset, size, resv->offset,
                            /*drain=*/false);
    if (!st.ok()) {
      heap_->allocator()->CancelAlloc(*resv);
      cancel_pending();
      return st;
    }
    pending.push_back(PendingSpan{i, *resv, size});
  }
  if (!pending.empty()) {
    log_->DrainAppends();
  }
  for (const PendingSpan& p : pending) {
    heap_->allocator()->CommitAlloc(p.resv);
    const uint64_t offset = spans[p.span_index].offset;
    std::memcpy(pool()->At(p.resv.offset), pool()->At(offset), p.size);
    ctx->AddOpenIntent(Intent{IntentKind::kCowWrite, offset, p.size, p.resv.offset});
  }
  for (size_t i = 0; i < count; ++i) {
    const Intent* in = ctx->FindOpen(spans[i].offset);
    out[i] = in->kind == IntentKind::kCowWrite ? pool()->At(in->aux) : pool()->At(in->offset);
  }
  return Status::Ok();
}

Status CowEngine::Commit(TxContextPtr ctx) {
  if (!ctx->slot.valid()) {
    ReleaseWriteLocks(ctx.get());
    counters_.Add(kCommitted);
    return Status::Ok();
  }
  // 1. Persist the shadows and any objects allocated in this transaction.
  {
    nvm::PersistSiteScope site("cow/persist-shadows");
    bool flushed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kCowWrite) {
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
  // 3. Install shadows over the originals (redo; replayed by recovery if we
  //    crash mid-install).
  {
    nvm::PersistSiteScope site("cow/install");
    bool installed = false;
    for (const Intent& in : ctx->intents) {
      if (in.kind == IntentKind::kCowWrite) {
        std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
        pool()->Flush(pool()->At(in.offset), in.size);
        installed = true;
      }
    }
    if (installed) {
      pool()->Drain();
    }
  }
  // 4. Cleanup: delete shadows, execute deferred frees, release.
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kCowWrite) {
      KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.aux));
    } else if (in.kind == IntentKind::kFree) {
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

Status CowEngine::Abort(TxContext* ctx) {
  if (!ctx->slot.valid()) {
    ReleaseWriteLocks(ctx);
    counters_.Add(kAborted);
    return Status::Ok();
  }
  log_->SetState(ctx->slot, TxState::kAborted);
  for (auto it = ctx->intents.rbegin(); it != ctx->intents.rend(); ++it) {
    switch (it->kind) {
      case IntentKind::kCowWrite:
        KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(it->aux));
        break;
      case IntentKind::kAlloc:
        KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(it->offset));
        break;
      case IntentKind::kFree:
        break;
      default:
        break;
    }
  }
  log_->ReleaseSlot(ctx->slot);
  ReleaseWriteLocks(ctx);
  counters_.Add(kAborted);
  return Status::Ok();
}

Status CowEngine::Recover() {
  nvm::PersistSiteScope site("engine/recover");
  std::vector<RecoveredTx> txs = log_->ScanForRecovery();
  for (const RecoveredTx& tx : txs) {
    SlotHandle handle = log_->HandleForRecovered(tx);
    if (tx.state == TxState::kCommitted) {
      // Redo the install from the durable shadows, then clean up.
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kCowWrite) {
          std::memcpy(pool()->At(in.offset), pool()->At(in.aux), in.size);
          pool()->Persist(pool()->At(in.offset), in.size);
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.aux));
        } else if (in.kind == IntentKind::kFree) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
        }
      }
      recovered_forward_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (const Intent& in : tx.intents) {
        if (in.kind == IntentKind::kCowWrite) {
          KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.aux));
        } else if (in.kind == IntentKind::kAlloc) {
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
