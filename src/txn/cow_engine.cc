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

void CowEngine::PersistWriteSet(TxContext* ctx) {
  FlushStaged(ctx, IntentKind::kCowWrite, "cow/persist-shadows");
}

void CowEngine::InstallWriteSet(TxContext* ctx) {
  InstallStaged(ctx, IntentKind::kCowWrite, "cow/install");
}

Status CowEngine::FinishCommitted(const Intent& in) {
  if (in.kind == IntentKind::kCowWrite) {
    return heap_->allocator()->FreeRaw(in.aux);  // The installed shadow.
  }
  return EngineBase::FinishCommitted(in);
}

Status CowEngine::RollBack(const Intent& in) {
  if (in.kind == IntentKind::kCowWrite) {
    return heap_->allocator()->FreeRaw(in.aux);  // The discarded shadow.
  }
  return EngineBase::RollBack(in);
}

Status CowEngine::RollForward(const Intent& in) {
  if (in.kind != IntentKind::kCowWrite) {
    return EngineBase::RollForward(in);
  }
  // Redo the install from the durable shadow, then delete it.
  InstallOne(in);
  return heap_->allocator()->FreeRaw(in.aux);
}

}  // namespace kamino::txn
