#include "src/txn/undo_engine.h"

#include <cstring>

#include "src/common/checksum.h"

namespace kamino::txn {

Status UndoLogEngine::OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                                     void** out) {
  // Batched TX_ADD: N snapshots and N records are flushed, then a single
  // drain covers all of them before any span's write-through pointer is
  // released — one fence instead of N on the critical path. Each snapshot is
  // the critical-path copy: the old payload goes into the undo log before
  // any in-place edit (NVML TX_ADD semantics).
  bool appended = false;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t offset = spans[i].offset;
    out[i] = nullptr;
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
    Result<uint64_t> payload = log_->ReservePayload(ctx->slot, size);
    if (!payload.ok()) {
      return payload.status();
    }
    std::memcpy(pool()->At(*payload), pool()->At(offset), size);
    {
      nvm::PersistSiteScope site("undo/snapshot");
      pool()->Flush(pool()->At(*payload), size);
    }
    // Record + snapshot become durable together on the batch drain. The
    // snapshot CRC rides in the record (aux2) so recovery can tell a durable
    // snapshot from one lost to an unlucky cache eviction (the record line
    // surviving without its payload lines) and skip the restore — safe,
    // because an undurable snapshot implies the drain never completed, which
    // implies the in-place store it guards never happened.
    const uint64_t snapshot_crc = Crc64(pool()->At(*payload), size);
    KAMINO_RETURN_IF_ERROR(log_->AppendRecord(ctx->slot, IntentKind::kWrite, offset, size,
                                              *payload, /*drain=*/false, snapshot_crc));
    ctx->AddOpenIntent(Intent{IntentKind::kWrite, offset, size, *payload, snapshot_crc});
    appended = true;
  }
  if (appended) {
    log_->DrainAppends();
  }
  for (size_t i = 0; i < count; ++i) {
    out[i] = pool()->At(spans[i].offset);
  }
  return Status::Ok();
}

Status UndoLogEngine::RollBack(const Intent& in) {
  if (in.kind != IntentKind::kWrite) {
    return EngineBase::RollBack(in);
  }
  // Only restore snapshots that are provably intact (aux2 CRC). A mismatch
  // means the record line survived a crash its payload lines did not —
  // possible only if the append's drain never completed, so the guarded
  // in-place store never happened and skipping the restore is the correct
  // (and only safe) choice. A live abort's snapshot is always intact.
  if (Crc64(pool()->At(in.aux), in.size) == in.aux2) {
    InstallOne(in);
  }
  return Status::Ok();
}

}  // namespace kamino::txn
