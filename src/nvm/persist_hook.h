// Persistence-event hook: the observation point for crash-point enumeration.
//
// Every durability-affecting action a Pool performs — staging cache lines on
// Flush (CLWB) and making staged lines durable on Drain (SFENCE) — can be
// observed, and vetoed, by a PersistenceObserver installed on the pool. The
// observer sees one event per flush/drain with the *site tag* of the
// innermost PersistSiteScope on the calling thread, so a test harness can
// answer "which persistence boundary is this?" without stack inspection.
//
// Vetoing (returning false from OnPersistEvent) suppresses the event's
// durability effect entirely: a vetoed Flush stages nothing, a vetoed Drain
// persists nothing. The working image is never affected — execution continues
// exactly as before, only durability changes. That is precisely the semantics
// of a power failure at that boundary, and it is what
// testing::CrashScheduler builds on: veto every event from ordinal k onward,
// let the workload run, then Pool::Crash() rewinds to what was durable at
// event k. Site-selective vetoes model missing-flush/missing-drain bugs
// ("what if this engine forgot this fence?") without touching engine code.
//
// One observer may be shared by several pools (main + backup): a machine
// loses power as a whole, so the crash ordinal must be global across them.
// Ordinal assignment therefore lives in the observer, not the pool.

#ifndef SRC_NVM_PERSIST_HOOK_H_
#define SRC_NVM_PERSIST_HOOK_H_

#include <cstdint>

namespace kamino::nvm {

class Pool;

enum class PersistEventKind : uint8_t {
  kFlush,  // Cache lines staged for write-back (CLWB).
  kDrain,  // Staged lines made durable (SFENCE).
};

inline const char* PersistEventKindName(PersistEventKind kind) {
  return kind == PersistEventKind::kFlush ? "flush" : "drain";
}

// Innermost active site tag on this thread; see PersistSiteScope.
const char* CurrentPersistSite();

struct PersistEvent {
  PersistEventKind kind = PersistEventKind::kFlush;
  // Innermost PersistSiteScope tag on the calling thread ("untagged" when no
  // scope is active). Always a string literal — safe to retain.
  const char* site = nullptr;
  // The emitting pool's PoolOptions::site_prefix ("" when unset). A sharded
  // store gives every shard's pools a distinct prefix (e.g. "shard3"), so one
  // observer over many shards can attribute each event to its shard without
  // threading shard identity through every engine thread. Points at the
  // pool's own string — valid for the duration of the callback.
  const char* shard = "";
  // Flush only: the covered byte range (pool offset). Zero for drains.
  uint64_t offset = 0;
  uint64_t len = 0;
  // The pool the event fired on (events from main and backup pools share one
  // observer and one ordinal space).
  const Pool* pool = nullptr;
};

// Installed on a Pool with Pool::SetPersistenceObserver. Implementations must
// be thread-safe: engines flush from client and applier threads concurrently.
class PersistenceObserver {
 public:
  virtual ~PersistenceObserver() = default;

  // Called before the event's durability effect takes place. Return true to
  // let it proceed, false to suppress it (nothing is staged/persisted and no
  // stats are charged). Must not call back into the pool.
  virtual bool OnPersistEvent(const PersistEvent& event) = 0;
};

namespace internal {
// The per-thread site stack is just the innermost tag plus a saved previous
// value in each RAII scope — no allocation, no depth limit.
inline thread_local const char* tls_persist_site = nullptr;
}  // namespace internal

inline const char* CurrentPersistSite() {
  const char* s = internal::tls_persist_site;
  return s != nullptr ? s : "untagged";
}

// RAII site tag. Instantiate around a persistence boundary so every
// flush/drain issued underneath carries `site`:
//
//   PersistSiteScope scope("log/append-intent");
//   pool->Flush(rec, 64);
//   pool->Drain();
//
// Scopes nest; the innermost wins (a backup-store apply inside an applier
// scope reports the store's more specific tag). `site` must be a string
// literal (or otherwise outlive the scope); nullptr keeps the enclosing tag.
class PersistSiteScope {
 public:
  explicit PersistSiteScope(const char* site) : prev_(internal::tls_persist_site) {
    if (site != nullptr) {
      internal::tls_persist_site = site;
    }
  }
  ~PersistSiteScope() { internal::tls_persist_site = prev_; }

  PersistSiteScope(const PersistSiteScope&) = delete;
  PersistSiteScope& operator=(const PersistSiteScope&) = delete;

 private:
  const char* prev_;
};

}  // namespace kamino::nvm

#endif  // SRC_NVM_PERSIST_HOOK_H_
