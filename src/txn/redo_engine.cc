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

void RedoLogEngine::PersistWriteSet(TxContext* ctx) {
  FlushStaged(ctx, IntentKind::kRedoWrite, "redo/stage-commit");
}

void RedoLogEngine::InstallWriteSet(TxContext* ctx) {
  InstallStaged(ctx, IntentKind::kRedoWrite, "redo/install");
}

Status RedoLogEngine::RollForward(const Intent& in) {
  if (in.kind != IntentKind::kRedoWrite) {
    return EngineBase::RollForward(in);
  }
  InstallOne(in);  // Replay the redo step from the durable staging copy.
  return Status::Ok();
}

}  // namespace kamino::txn
