// No-logging engine — the unsafe upper bound used by Figure 1's "No Logging"
// bars. Transactions edit in place with object locks for isolation and a
// single flush+drain at commit for durability, but there is *no* atomicity:
// an abort cannot undo in-place edits and a crash mid-transaction leaves the
// heap inconsistent. Exists purely to measure what atomicity costs.

#ifndef SRC_TXN_NOLOG_ENGINE_H_
#define SRC_TXN_NOLOG_ENGINE_H_

#include "src/txn/engine_base.h"

namespace kamino::txn {

class NoLoggingEngine : public EngineBase {
 public:
  NoLoggingEngine(heap::Heap* heap, LogManager* log, LockManager* locks)
      : EngineBase(heap, log, locks) {}

  EngineType type() const override { return EngineType::kNoLogging; }

  Status OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                        void** out) override;
  // Unlogged: nothing to make durable before the allocator changes.
  Result<uint64_t> Alloc(TxContext* ctx, uint64_t size) override;
  Status Free(TxContext* ctx, uint64_t offset) override;
  Status Commit(TxContext* ctx, CommitAck* ack) override;
  // Releases locks and frees this transaction's allocations, but CANNOT roll
  // back in-place edits — data modified before the abort stays modified.
  Status Abort(TxContext* ctx) override;
  Status Recover() override { return Status::Ok(); }
};

}  // namespace kamino::txn

#endif  // SRC_TXN_NOLOG_ENGINE_H_
