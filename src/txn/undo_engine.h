// Undo-logging engine — a faithful reimplementation of NVML/libpmemobj's
// atomicity scheme (the paper's baseline throughout §7).
//
// TX_ADD copies the object's *entire current payload* into the undo log in
// the critical path, persists the snapshot and its record, and only then
// lets the transaction edit in place. Commit discards the undo data; abort
// (and recovery of incomplete transactions) copies the snapshots back. The
// allocation, indexing, copying and deallocation of these snapshots is
// exactly the overhead Kamino-Tx removes from the critical path (paper §1).

#ifndef SRC_TXN_UNDO_ENGINE_H_
#define SRC_TXN_UNDO_ENGINE_H_

#include "src/txn/engine_base.h"

namespace kamino::txn {

class UndoLogEngine : public EngineBase {
 public:
  UndoLogEngine(heap::Heap* heap, LogManager* log, LockManager* locks)
      : EngineBase(heap, log, locks, /*abort_site=*/"engine/abort-rollback") {}

  EngineType type() const override { return EngineType::kUndoLog; }

  Status OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                        void** out) override;

 private:
  // Copies a kWrite intent's snapshot back over the object, behind the
  // snapshot CRC; everything else as EngineBase. The in-place write set
  // needs no install, and commit discards the snapshots with the slot.
  Status RollBack(const Intent& in) override;
};

}  // namespace kamino::txn

#endif  // SRC_TXN_UNDO_ENGINE_H_
