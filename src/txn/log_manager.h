// Log Manager (paper §6.2, Figure 11).
//
// Maintains persistent, fixed-size intent logs: per-transaction slots holding
// a header (state + transaction id) and a sequence of 64-byte, cache-line-
// aligned records. Records are *self-validating* — each carries the owning
// slot's txid and a CRC — so appending a record costs exactly one line flush
// and one drain, with no separate persistent record counter ("fine-grained
// logging of fixed-size write intents with minimum number of cache flushes").
// Stale records from a slot's previous occupant fail validation automatically
// because their txid tag no longer matches.
//
// Kamino-Tx records only object addresses in these logs; the undo and CoW
// baseline engines additionally use each slot's payload area for object
// snapshots (undo) — the copying the paper is eliminating from the critical
// path.
//
// Commit critical path (see DESIGN.md §8 for the fence-accounting model):
//
//   - Slot acquisition is a per-thread cache over striped lock-free
//     freelists; the global mutex is only taken when every freelist is
//     empty (true backpressure on the async applier). Acquisition *flushes*
//     the slot header but does not drain it: the txid tag self-validation
//     means a header that never became durable simply leaves the slot's
//     prior (durably Free) state behind, which recovery ignores.
//   - AppendRecord(drain=false) lets callers batch N intent flushes behind
//     a single DrainAppends() — the write-set batch path — and lets kFree
//     intents skip the drain entirely (any later drain, including the
//     commit-point drain, covers them; a lost kFree record only ever means
//     the free is not performed, never corruption).
//   - SetState(kCommitted) runs leader-based group commit: each committer
//     flushes its own commit record, then one elected leader drains on
//     behalf of every committer whose flush preceded the drain. A solo
//     committer still pays exactly one flush + one drain at the
//     "log/commit-record" site, so the crash-point enumeration harness sees
//     a deterministic event stream for single-mutator workloads.
//
// Epoch pipeline (`LogOptions::epoch_commit`, DESIGN.md §8): the group-commit
// ticket machinery generalises into an *epoch sequencer* shared by every
// commit-path fence. Committers flush their write set and a CRC-carrying
// kEpochCommitted header (no drains of their own), take a durability ticket,
// and one elected leader pays a single covering drain per epoch at the
// "log/epoch-drain" site — intent appends ride the same drain. Commit is the
// DRAM-side ticket; only the *acknowledgement* (EpochWait) blocks on the
// epoch's drain, and appliers consume a transaction only via its durability
// callback, so the backup never runs ahead of the log. Recovery trusts a
// kEpochCommitted slot only if the write-set CRC recomputed from the main
// heap matches the header — the validation that makes merging the data and
// mark drains sound under random cache eviction (a mark that leaked ahead of
// torn data fails the CRC and rolls back).
//
// `LogOptions::legacy_fences` restores the pre-optimisation behaviour
// (durable slot acquisition, one drain per append, solo commit drains);
// leaving both switches off reproduces the PR 4 schedule. All three fence
// regimes are measurable in one binary.

#ifndef SRC_TXN_LOG_MANAGER_H_
#define SRC_TXN_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/nvm/pool.h"

namespace kamino::txn {

enum class TxState : uint64_t {
  kFree = 0,
  kRunning = 1,
  kCommitted = 2,
  kAborted = 3,
  // Cross-shard 2PC (DESIGN.md §11): the write set is fully logged and the
  // participant votes yes, but the outcome belongs to the coordinator shard's
  // decision record. A kPrepared slot found at recovery is *in doubt* — it
  // must be resolved by consulting the coordinator's log, never unilaterally.
  kPrepared = 4,
  // Epoch pipeline (LogOptions::epoch_commit): committed in DRAM order, with
  // the write-set CRC and range count in the header's reserved words. The
  // mark shares the epoch drain with the data it covers, so recovery trusts
  // it only after recomputing the CRC over the intent ranges — a mismatch
  // (mark persisted ahead of torn data by random eviction) rolls back.
  kEpochCommitted = 5,
};

enum class IntentKind : uint64_t {
  kNone = 0,
  kWrite = 1,      // In-place modification of [offset, offset+size).
  kAlloc = 2,      // New allocation (also treated as a write at commit).
  kFree = 3,       // Deallocation, deferred to post-commit.
  kCowWrite = 4,   // CoW engine: heap shadow at `aux` for [offset, offset+size).
  kRedoWrite = 5,  // Redo engine: log-resident staging copy at `aux`.
};

// Volatile view of one intent record.
struct Intent {
  IntentKind kind = IntentKind::kNone;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t aux = 0;   // Undo: payload offset in pool; CoW: shadow offset.
  uint64_t aux2 = 0;  // Undo: CRC of the payload snapshot (validity gate).
};

struct LogOptions {
  uint64_t num_slots = 128;
  uint64_t slot_size = 64 * 1024;  // Header + records + payload area.
  uint64_t max_records = 128;      // 64 B each.

  // Runtime-only tuning (not persisted; adopted again on Open()).
  //
  // Number of lock-free freelist stripes slot releases/acquires spread
  // over. Clamped to [1, num_slots].
  uint64_t freelist_stripes = 8;
  // Leader-based group commit: how long an elected leader waits for more
  // committers to join before draining on everyone's behalf. 0 keeps
  // coalescing purely opportunistic (the leader drains immediately;
  // committers that flushed before the drain still ride along).
  uint64_t group_commit_window_ns = 0;
  // Pre-optimisation fence behaviour: durable slot acquisition, a drain on
  // every append (batching requests ignored), and solo commit drains.
  bool legacy_fences = false;
  // Epoch/persist-behind commit (see file comment): merge append, commit and
  // write-set drains into one shared epoch drain; commit records carry a
  // write-set CRC and acknowledgements block on the epoch's durability
  // ticket. Off (together with legacy_fences off) reproduces the PR 4
  // schedule in-binary. Ignored when legacy_fences is set.
  bool epoch_commit = false;
};

// Handle to an acquired slot; owned by a TxContext.
struct SlotHandle {
  uint64_t slot_index = ~0ull;
  uint64_t txid = 0;
  uint64_t num_records = 0;   // Volatile; recovered by scanning.
  uint64_t payload_used = 0;  // Bump offset into the payload area.

  bool valid() const { return slot_index != ~0ull; }
};

// A transaction reconstructed from the log during recovery.
struct RecoveredTx {
  uint64_t slot_index = 0;
  uint64_t txid = 0;
  TxState state = TxState::kFree;
  // kPrepared only: the cross-shard transaction id (the coordinator's local
  // txid) and the coordinator's shard index, read back from the slot header.
  uint64_t gtxid = 0;
  uint64_t coord_shard = ~0ull;
  std::vector<Intent> intents;
};

struct LogStats {
  // Slot-acquisition backpressure: how often AcquireSlot had to take the
  // slow path (every freelist empty) and the total time spent blocked.
  uint64_t blocked_acquires = 0;
  uint64_t blocked_wait_ns = 0;
  // Group commit: commits whose drain was performed by a leader on behalf
  // of the group, and how many drains leaders actually issued. The
  // coalescing ratio is group_commit_commits / group_commit_leader_drains.
  uint64_t group_commit_commits = 0;
  uint64_t group_commit_leader_drains = 0;
};

class LogManager {
 public:
  // Formats the log region [region_offset, region_offset+region_size).
  static Result<std::unique_ptr<LogManager>> Create(nvm::Pool* pool, uint64_t region_offset,
                                                    uint64_t region_size,
                                                    const LogOptions& options);

  // Attaches to an existing log region (recovery path). Slots holding
  // non-free transactions stay unavailable until ScanForRecovery() +
  // ReleaseSlot(). `runtime_options`, when given, supplies the non-persisted
  // tuning knobs (stripes, group-commit window, legacy_fences); geometry
  // always comes from the persistent header.
  static Result<std::unique_ptr<LogManager>> Open(nvm::Pool* pool, uint64_t region_offset,
                                                  const LogOptions* runtime_options = nullptr);

  ~LogManager();

  // Acquires a free slot for `txid` and marks it Running (flushed, not yet
  // drained — see file comment). Blocks if all slots are busy (backpressure
  // on the async applier).
  Result<SlotHandle> AcquireSlot(uint64_t txid);

  // Appends one intent record and persists it (one flush; one drain unless
  // `drain` is false, in which case the caller batches the drain via
  // DrainAppends() or relies on a later covering drain — only valid for
  // kFree, see file comment).
  Status AppendRecord(SlotHandle& slot, IntentKind kind, uint64_t offset, uint64_t size,
                      uint64_t aux = 0, bool drain = true, uint64_t aux2 = 0);

  // Drains all outstanding (flushed) appends — the single fence behind a
  // batch of AppendRecord(drain=false) calls. No-op under legacy_fences,
  // where every append already drained.
  void DrainAppends();

  // Reserves `size` bytes in the slot's payload area (undo snapshots);
  // returns the pool offset of the reservation.
  Result<uint64_t> ReservePayload(SlotHandle& slot, uint64_t size);

  // Durably transitions the slot's state (the commit/abort point). Commits
  // go through leader-based group commit unless legacy_fences is set.
  void SetState(const SlotHandle& slot, TxState state);

  // --- Epoch pipeline (LogOptions::epoch_commit; DESIGN.md §8) --------------
  // Writes the epoch commit mark: state = kEpochCommitted plus the write-set
  // CRC and kWrite/kAlloc range count in the header's reserved words, all in
  // one header-line flush at "log/commit-record" — NO drain. The mark becomes
  // durable with the epoch drain covering the write set it validates; until
  // then recovery sees either the prior state or a mark whose CRC check
  // decides roll-forward vs roll-back (see ScanForRecovery).
  void SetCommittedChecked(const SlotHandle& slot, uint64_t write_set_crc,
                           uint64_t range_count);

  // Stages an epoch commit: takes a durability ticket for everything the
  // caller already flushed (intents, write set, commit mark) and parks
  // `on_durable` to run exactly once — on the epoch leader's thread, outside
  // the sequencer lock — after a drain covering the ticket completes. This is
  // how appliers consume only durable epochs: the enqueue lives in the
  // callback, which receives its own ticket (the callback may run — on
  // another committer acting as leader — before this call even returns, so
  // the ticket cannot be delivered through the return value alone). Returns
  // the ticket for EpochWait. Does not block or drain.
  uint64_t RegisterEpochCommit(std::function<void(uint64_t)> on_durable);

  // Blocks until a drain covers `ticket` (the acknowledgement fence). The
  // caller may be elected epoch leader and pay the drain itself, at the
  // "log/epoch-drain" site.
  void EpochWait(uint64_t ticket);

  // Seals the current epoch: drains until every ticket issued so far is
  // covered, then waits until every callback of those tickets has run (a
  // concurrent leader may still be running the ones its drain covered). Used
  // by WaitIdle/shutdown so unacknowledged commits cannot wedge the applier
  // pipeline, and by KaminoEngine::SyncCut to see every sealed commit in
  // the applier queues. Emits no pool events when the epoch is already
  // durable.
  void DrainEpoch();

  bool epoch_commit() const { return epoch_commit_; }

  // --- Cross-shard 2PC records (DESIGN.md §11) ------------------------------
  // Durably marks the slot Prepared, recording the cross-shard transaction id
  // and the coordinator's shard index in the header's reserved words. One
  // flush + one drain: the 64-byte header carries state, txid, gtxid and
  // coordinator atomically (a cache line cannot tear), so a crash either
  // leaves the slot's prior state or a fully-formed prepared record — never a
  // prepared record with a dangling coordinator pointer. Site
  // "log/prepare-record".
  void SetPrepared(const SlotHandle& slot, uint64_t gtxid, uint64_t coord_shard);

  // The coordinator's commit decision: durably flips its own prepared slot to
  // Committed with a single 8-byte persist (exactly one drain — this is the
  // cross-shard commit point; see DESIGN.md §11 for why it must not be
  // batched or split). Site "log/decide-record".
  void SetDecision(const SlotHandle& slot);

  // Recovery-side resolution of an in-doubt prepared slot: durably converts
  // it to Committed or Aborted once the coordinator's outcome is known, so
  // the shard's ordinary recovery (roll forward / roll back) can proceed and
  // a crash *during* recovery re-finds a resolved slot, not an in-doubt one.
  // Site "log/resolve-in-doubt".
  void ResolvePrepared(const RecoveredTx& tx, bool commit);

  // Durably frees the slot and returns it to the free list. The kFree
  // persist here is load-bearing: without it, recovery would re-roll-forward
  // an already-applied transaction whose post-commit frees already happened.
  void ReleaseSlot(SlotHandle& slot);

  // Batched release: flushes every slot's Free header, pays a single drain,
  // then publishes them all to the freelists. The applier's batch step uses
  // this to share one release fence across a whole apply batch. The slots
  // belong to other transactions, so they always go to the shared stripes,
  // never into the calling thread's cache cell: a batch run by a helping
  // client thread (DESIGN.md §6 item 5) frees slots in exactly the order an
  // applier thread would. Invalid handles in the span are skipped; all
  // handles are fully reset.
  void ReleaseSlots(SlotHandle* slots, size_t count);

  // Recovery: returns every non-free transaction in the log, sorted by txid.
  // Slots remain held; the engine resolves each and calls ReleaseSlot (via a
  // handle rebuilt with HandleForRecovered). kEpochCommitted slots are
  // resolved here: the write-set CRC is recomputed from the main heap over
  // the slot's kWrite/kAlloc intents and the transaction is presented as
  // kCommitted on a match (the main heap provably holds exactly the
  // committed bytes — roll-forward is safe and atomic) or kAborted on a
  // mismatch (the mark outran its data; roll back from the backup). Engines
  // never see state 5.
  std::vector<RecoveredTx> ScanForRecovery();
  SlotHandle HandleForRecovered(const RecoveredTx& tx) const;

  // Partitions recovered transactions into `queues` disjoint replay queues,
  // keyed by each transaction's first intent offset (its lock-stripe-like
  // identity). The disjoint-write-set invariant — any two non-free slots at
  // crash time hold transactions with pairwise disjoint write sets — makes
  // every partition safe to replay in parallel; this one just balances load
  // while keeping each queue in txid order. Transactions without intents
  // land in queue 0.
  static std::vector<std::vector<RecoveredTx>> PartitionForRecovery(
      std::vector<RecoveredTx> txs, size_t queues);

  // --- Backup-reconcile cursor (online recovery, DESIGN.md §10) -------------
  // Persistent resume point for the post-replay backup reconcile sweep:
  // dirty-map chunks [0, cursor) were already reconciled by an interrupted
  // recovery and stay trusted across the next crash (replay only ever
  // re-applies ranges main -> backup, which preserves mirror equality).
  // kReconcileDone means no sweep is in progress. The field lives in the log
  // header block but outside its checksum, updated failure-atomically with
  // an 8-byte persist at the "engine/recover/cursor" site.
  static constexpr uint64_t kReconcileDone = ~0ull;
  uint64_t reconcile_cursor() const;
  void SetReconcileCursor(uint64_t chunk);

  // --- Backup-epoch stamp (backup-read cut, DESIGN.md §12) ------------------
  // Durable count of transactions whose backup applies are complete AND whose
  // log slots are durably released — the epoch a snapshot reader may be told
  // it is reading at. Monotone ratchet (applier batches retire out of order,
  // like the epoch sequencer's durable frontier); advancing it is a single
  // 8-byte persist at the "backup/cut" site. The stamp is a *floor*: it may
  // lag the true applied count across a crash (a release whose stamp was
  // lost is never re-counted), but it can never lead it — recovery re-rolls
  // exactly the unreleased transactions forward, so counting only released
  // ones keeps stamped epochs durably backed by backup state.
  uint64_t backup_epoch() const;
  void SetBackupEpoch(uint64_t epoch);

  // Largest txid present in the log at Open() time (0 for a fresh log).
  uint64_t max_recovered_txid() const { return max_recovered_txid_; }

  uint64_t num_slots() const { return num_slots_; }
  uint64_t slot_size() const { return slot_size_; }
  uint64_t max_records() const { return max_records_; }
  bool legacy_fences() const { return legacy_fences_; }

  LogStats stats() const;

 private:
  // Persistent layouts. kRecordSize == cache line so a record persists with a
  // single line flush and can never be torn across lines.
  static constexpr uint64_t kRecordSize = 64;
  static constexpr uint64_t kSlotHeaderSize = 64;
  static constexpr uint64_t kMagic = 0x4B414D494E4F4C47ull;  // "KAMINOLG"

  static constexpr uint32_t kNilIndex = 0xFFFFFFFFu;
  static constexpr uint64_t kNoCachedSlot = ~0ull;

  struct LogHeader {
    uint64_t magic;
    uint64_t version;
    uint64_t num_slots;
    uint64_t slot_size;
    uint64_t max_records;
    uint64_t checksum;
    // Not checksum-covered (mutated after format, like Heap's root): the
    // backup-reconcile resume cursor, persisted as a single 8-byte store.
    uint64_t reconcile_cursor;
    // Not checksum-covered: the backup-epoch stamp (see SetBackupEpoch).
    uint64_t backup_epoch;
  };
  static_assert(sizeof(LogHeader) <= kSlotHeaderSize,
                "log header must fit its 64-byte block");

  struct SlotHeader {
    uint64_t state;  // TxState.
    uint64_t txid;
    uint64_t reserved[6];
  };

  struct Record {
    uint64_t offset;
    uint64_t size;
    uint64_t kind_seq;  // kind << 56 | record index.
    uint64_t aux;
    uint64_t txid_tag;  // Must equal the slot's txid.
    uint64_t crc;       // Crc64 over the 5 fields above.
    uint64_t aux2;      // Not CRC-covered; undo payload CRC.
    uint64_t pad;
  };
  static_assert(sizeof(Record) == kRecordSize);

  // One lock-free Treiber-stack freelist. The head packs {aba:32, index:32}
  // so a pop's read of next_[index] is protected against reuse.
  struct alignas(64) Stripe {
    std::atomic<uint64_t> head;
  };

  // Per-thread slot cache cell, owned by the manager (registered in cells_)
  // so blocked acquirers can steal from every thread's cache. A cell holds
  // at most one slot index, or kNoCachedSlot.
  struct alignas(64) CacheCell {
    std::atomic<uint64_t> slot{kNoCachedSlot};
  };

  LogManager(nvm::Pool* pool, uint64_t region_offset);

  Status Format(uint64_t region_size, const LogOptions& options);
  Status Attach();
  void InitFreelists(const LogOptions& options);

  uint64_t SlotOffset(uint64_t index) const {
    return region_offset_ + kSlotHeaderSize + index * slot_size_;
  }
  SlotHeader* SlotHeaderAt(uint64_t index) {
    return static_cast<SlotHeader*>(pool_->At(SlotOffset(index)));
  }
  const SlotHeader* SlotHeaderAt(uint64_t index) const {
    return static_cast<const SlotHeader*>(pool_->At(SlotOffset(index)));
  }
  Record* RecordAt(uint64_t slot_index, uint64_t record_index) {
    return static_cast<Record*>(
        pool_->At(SlotOffset(slot_index) + kSlotHeaderSize + record_index * kRecordSize));
  }
  const Record* RecordAt(uint64_t slot_index, uint64_t record_index) const {
    return static_cast<const Record*>(
        pool_->At(SlotOffset(slot_index) + kSlotHeaderSize + record_index * kRecordSize));
  }
  uint64_t PayloadAreaOffset(uint64_t slot_index) const {
    return SlotOffset(slot_index) + kSlotHeaderSize + max_records_ * kRecordSize;
  }
  uint64_t PayloadAreaSize() const {
    return slot_size_ - kSlotHeaderSize - max_records_ * kRecordSize;
  }

  static uint64_t RecordCrc(const Record& r);
  bool RecordValid(const Record& r, uint64_t txid, uint64_t index) const;

  // Freelist plumbing.
  uint64_t HomeStripe(uint32_t slot) const { return slot % num_stripes_; }
  uint64_t PreferredStripe() const;
  void PushStripe(uint64_t stripe, uint32_t slot);
  bool PopStripe(uint64_t stripe, uint32_t* out);
  bool TryPopAnyStripe(uint32_t* out);
  bool StealFromCells(uint32_t* out);

  // Per-thread cache-cell registry. FindMyCell returns nullptr for threads
  // that never acquired from this manager (e.g. appliers, which only ever
  // release), so released slots flow back to the shared stripes instead of
  // parking in a cache no acquirer owns.
  CacheCell* FindMyCell() const;
  CacheCell* MyCellOrRegister();

  void GroupCommitDrain();
  // Core of the sequencer: blocks until gc_durable_ >= ticket, electing one
  // waiter as leader to pay the covering drain (epoch mode tags it
  // "log/epoch-drain"; otherwise the caller's active site wins) and to run
  // parked epoch callbacks whose tickets the drain covered. gc_mu_ must be
  // held on entry and is held again on return.
  void SequencerWait(std::unique_lock<std::mutex>& lk, uint64_t ticket);
  // Epoch mode: take a ticket for the caller's own flushed lines and wait
  // for a covering drain — the shared ride intent appends use in place of a
  // private drain.
  void EpochRide();
  // `cache` lets the slot park in the calling thread's cache cell (its own
  // transaction's slot); otherwise it goes to its home stripe.
  void ReleaseSlotsImpl(SlotHandle* slots, size_t count, bool cache);
  void PublishFreeSlot(uint32_t index, bool cache);

  nvm::Pool* pool_;
  uint64_t region_offset_;
  uint64_t num_slots_ = 0;
  uint64_t slot_size_ = 0;
  uint64_t max_records_ = 0;
  uint64_t max_recovered_txid_ = 0;

  // Runtime tuning (see LogOptions).
  uint64_t num_stripes_ = 1;
  uint64_t group_commit_window_ns_ = 0;
  bool legacy_fences_ = false;
  bool epoch_commit_ = false;

  // Striped freelists + per-slot next links.
  std::unique_ptr<Stripe[]> stripes_;
  std::unique_ptr<std::atomic<uint32_t>[]> next_;

  // Registered per-thread cache cells. cells_mu_ orders registration against
  // steal scans; lock order is mu_ -> cells_mu_.
  const uint64_t generation_;
  mutable std::mutex cells_mu_;
  std::vector<std::unique_ptr<CacheCell>> cells_;

  // Slow-path backpressure. waiters_ participates in a store-buffering
  // (Dekker) protocol with releasers via seq_cst fences: a releaser
  // publishes its slot, fences, then checks waiters_; an acquirer bumps
  // waiters_, fences, then scans. At least one side always observes the
  // other.
  std::mutex mu_;
  std::condition_variable slot_available_;
  std::atomic<uint64_t> waiters_{0};
  std::atomic<uint64_t> blocked_acquires_{0};
  std::atomic<uint64_t> blocked_wait_ns_{0};

  // Epoch sequencer / leader-based group commit state (all guarded by gc_mu_
  // except the counters). Tickets are taken under gc_mu_ *after* the caller's
  // own flushes, so a leader that observed cover = gc_ticket_ before draining
  // is guaranteed every covered caller's lines were staged. epoch_callbacks_
  // is ticket-ordered by construction (tickets issue under the same lock);
  // the leader extracts the prefix its drain covered and runs it unlocked.
  // Serializes backup-epoch stamp ratchets (appliers race to publish their
  // batch counts); the persisted value is monotone under this lock.
  mutable std::mutex epoch_stamp_mu_;

  std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  uint64_t gc_ticket_ = 0;
  uint64_t gc_durable_ = 0;
  // In-flight leader drains and the highest ticket any of them will cover.
  // The PR 4 group-commit regime serializes leaders (one drain at a time);
  // the epoch pipeline lets a second leader start the next epoch's drain
  // while the current one is in flight (drains are overlappable device
  // waits), so a rider's wait is one drain, not remaining-plus-one.
  int gc_drains_inflight_ = 0;
  uint64_t gc_cover_pending_ = 0;
  std::deque<std::pair<uint64_t, std::function<void(uint64_t)>>> epoch_callbacks_;
  // First ticket of every extracted callback batch a leader is still running.
  std::vector<uint64_t> gc_callbacks_running_;
  std::atomic<uint64_t> gc_commits_{0};
  std::atomic<uint64_t> gc_leader_drains_{0};
};

}  // namespace kamino::txn

#endif  // SRC_TXN_LOG_MANAGER_H_
