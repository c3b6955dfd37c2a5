#include "src/txn/nolog_engine.h"

namespace kamino::txn {

Status NoLoggingEngine::OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                       void** out) {
  for (size_t i = 0; i < count; ++i) {
    const uint64_t offset = spans[i].offset;
    if (ctx->FindOpen(offset) == nullptr) {
      Result<uint64_t> size = ResolveSize(offset, spans[i].size);
      if (!size.ok()) {
        return size.status();
      }
      KAMINO_RETURN_IF_ERROR(LockWrite(ctx, offset));
      ctx->AddOpenIntent(Intent{IntentKind::kWrite, offset, *size, 0});
    }
    out[i] = pool()->At(offset);
  }
  return Status::Ok();
}

Result<uint64_t> NoLoggingEngine::Alloc(TxContext* ctx, uint64_t size) {
  Result<uint64_t> offset = heap_->allocator()->AllocRaw(size);
  if (!offset.ok()) {
    return offset.status();
  }
  Status st = LockWrite(ctx, *offset);
  if (!st.ok()) {
    (void)heap_->allocator()->FreeRaw(*offset);
    return st;
  }
  ctx->AddOpenIntent(Intent{IntentKind::kAlloc, *offset, size, 0});
  return *offset;
}

Status NoLoggingEngine::Free(TxContext* ctx, uint64_t offset) {
  Result<uint64_t> size = ResolveSize(offset, 0);
  if (!size.ok()) {
    return size.status();
  }
  KAMINO_RETURN_IF_ERROR(LockWrite(ctx, offset));
  ctx->intents.push_back(Intent{IntentKind::kFree, offset, *size, 0});
  return Status::Ok();
}

Status NoLoggingEngine::Commit(TxContext* ctx, CommitAck* ack) {
  (void)ack;  // Durable on return.
  FlushWriteRanges(ctx);
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kFree) {
      KAMINO_RETURN_IF_ERROR(heap_->allocator()->FreeRaw(in.offset));
    }
  }
  ReleaseWriteLocks(ctx);
  counters_.Add(kCommitted);
  return Status::Ok();
}

Status NoLoggingEngine::Abort(TxContext* ctx) {
  for (const Intent& in : ctx->intents) {
    if (in.kind == IntentKind::kAlloc) {
      (void)heap_->allocator()->FreeRaw(in.offset);
    }
  }
  ReleaseWriteLocks(ctx);
  counters_.Add(kAborted);
  return Status::Ok();
}

}  // namespace kamino::txn
