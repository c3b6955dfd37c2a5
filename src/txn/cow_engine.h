// Copy-on-write engine — the second classical baseline (paper §1, Figure 2
// middle; the NVM-CoW scheme of Arulraj et al. discussed in §2).
//
// TX_ADD allocates a persistent shadow copy in the critical path and returns
// a pointer to it; the transaction edits the shadow. At commit the shadows
// are persisted, the commit record flips, and the shadows are installed over
// the originals (a redo step that recovery can replay). Abort just deletes
// the shadows. The critical-path costs are the shadow allocation + copy —
// again exactly what Kamino-Tx eliminates.

#ifndef SRC_TXN_COW_ENGINE_H_
#define SRC_TXN_COW_ENGINE_H_

#include "src/txn/engine_base.h"

namespace kamino::txn {

class CowEngine : public EngineBase {
 public:
  // Recovery frees an unfinished transaction's shadows and allocations in
  // append order, live Abort newest first. The frees commute, so both
  // orders are correct; each keeps the persist order its sweeps enumerate.
  CowEngine(heap::Heap* heap, LogManager* log, LockManager* locks)
      : EngineBase(heap, log, locks, /*abort_site=*/nullptr,
                   /*recover_oldest_first=*/true) {}

  EngineType type() const override { return EngineType::kCow; }

  // Returns pointers to the *shadow* copies: all edits (and reads of the
  // objects within this transaction) must go through them.
  Status OpenWriteBatch(TxContext* ctx, const WriteSpan* spans, size_t count,
                        void** out) override;

 private:
  // Persists the shadows (and new objects) before the commit record and
  // installs them after it; every exit deletes the shadows: FinishCommitted
  // once installed, RollBack when discarded, RollForward after recovery's
  // install.
  void PersistWriteSet(TxContext* ctx) override;
  void InstallWriteSet(TxContext* ctx) override;
  Status FinishCommitted(const Intent& in) override;
  Status RollBack(const Intent& in) override;
  Status RollForward(const Intent& in) override;
};

}  // namespace kamino::txn

#endif  // SRC_TXN_COW_ENGINE_H_
