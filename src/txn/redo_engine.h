// Redo-logging engine — the third classical baseline (the NVM-Log scheme of
// Arulraj et al. discussed in the paper's §2).
//
// Writes never touch the main heap before commit: OpenWriteBatch stages a
// copy of the object inside the transaction's log slot and the application
// edits the staging copy. Commit persists the staging data, flips the commit record,
// and *then* applies the new values over the originals (recovery replays
// this redo step for committed transactions). Abort is trivial — the main
// heap was never modified — but, like undo and CoW, a copy of every written
// object is made in the critical path, which is what Kamino-Tx eliminates.

#ifndef SRC_TXN_REDO_ENGINE_H_
#define SRC_TXN_REDO_ENGINE_H_

#include "src/txn/engine_base.h"

namespace kamino::txn {

class RedoLogEngine : public EngineBase {
 public:
  // Recovery frees an unfinished transaction's allocations in append order,
  // live Abort newest first. The frees commute, so both orders are correct;
  // each keeps the persist order its sweeps enumerate.
  RedoLogEngine(heap::Heap* heap, LogManager* log, LockManager* locks)
      : EngineBase(heap, log, locks, /*abort_site=*/nullptr,
                   /*recover_oldest_first=*/true) {}

  EngineType type() const override { return EngineType::kRedoLog; }

  // Returns pointers to the log-resident staging copies.
  Status OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                        void** out) override;

 private:
  // Persists the staging copies (and new objects) before the commit record,
  // installs them over the originals after it; recovery replays the install
  // for committed transactions. Abort needs only EngineBase's allocation
  // rollback: the main heap was never touched.
  void PersistWriteSet(TxContext* ctx) override;
  void InstallWriteSet(TxContext* ctx) override;
  Status RollForward(const Intent& in) override;
};

}  // namespace kamino::txn

#endif  // SRC_TXN_REDO_ENGINE_H_
