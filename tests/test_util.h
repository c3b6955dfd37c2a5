// Shared fixtures for Kamino-Tx tests: crashable pool/heap/manager bundles.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/heap/heap.h"
#include "src/nvm/persist_hook.h"
#include "src/nvm/pool.h"
#include "src/txn/tx_manager.h"

// Hard-failure assert for helpers that cannot use gtest macros (non-void
// returns / constructors).
#define ASSERT_CRASH(x) \
  do {                  \
    if (!(x)) {         \
      abort();          \
    }                   \
  } while (0)

namespace kamino::test {

// A heap + manager whose pools outlive manager/heap teardown, so tests can
// simulate a crash and re-attach ("restart the process").
struct CrashableSystem {
  std::unique_ptr<nvm::Pool> main_pool;
  std::unique_ptr<nvm::Pool> backup_pool;  // Only for Kamino engines.
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<txn::TxManager> mgr;

  txn::TxManagerOptions options;

  // `log` carries commit-path knobs (group_commit_window_ns, epoch_commit,
  // legacy_fences) into the system under test; geometry defaults apply.
  static CrashableSystem Create(txn::EngineType engine, uint64_t pool_size = 64ull << 20,
                                double alpha = 0.25, int applier_threads = 1,
                                const txn::LogOptions& log = {}) {
    CrashableSystem sys;
    nvm::PoolOptions popts;
    popts.size = pool_size;
    popts.crash_sim = true;
    sys.main_pool = std::move(nvm::Pool::Create(popts).value());

    sys.options.engine = engine;
    sys.options.log = log;
    sys.options.alpha = alpha;
    sys.options.lock.timeout_ms = 2000;
    sys.options.applier_threads = applier_threads;

    sys.heap = std::move(heap::Heap::CreateOn(sys.main_pool.get(), 16ull << 20).value());

    if (engine == txn::EngineType::kKaminoSimple) {
      nvm::PoolOptions bopts;
      bopts.size = pool_size;
      bopts.crash_sim = true;
      sys.backup_pool = std::move(nvm::Pool::Create(bopts).value());
      sys.options.external_backup_pool = sys.backup_pool.get();
    } else if (engine == txn::EngineType::kKaminoDynamic) {
      const uint64_t budget = static_cast<uint64_t>(
          alpha * static_cast<double>(sys.heap->allocator()->stats().capacity));
      nvm::PoolOptions bopts;
      bopts.size = txn::DynamicBackupStore::RequiredPoolSize(budget, 1 << 14);
      bopts.crash_sim = true;
      sys.backup_pool = std::move(nvm::Pool::Create(bopts).value());
      sys.options.external_backup_pool = sys.backup_pool.get();
      sys.options.dynamic_lookup_buckets = 1 << 14;
    }

    sys.mgr = std::move(txn::TxManager::Create(sys.heap.get(), sys.options).value());
    return sys;
  }

  // Simulates a machine crash: discards unflushed stores in both pools and
  // rebuilds heap + manager via the recovery path. Callers must have
  // quiesced the applier (WaitIdle / PauseApplier + DiscardPending).
  void CrashAndRecover(nvm::CrashMode mode = nvm::CrashMode::kDropUnflushed,
                       uint64_t seed = 0) {
    mgr.reset();   // "Process dies" — volatile state (locks, LRU) is lost.
    heap.reset();
    ASSERT_CRASH(main_pool->Crash(mode, seed).ok());
    if (backup_pool) {
      ASSERT_CRASH(backup_pool->Crash(mode, seed + 1).ok());
    }
    heap = std::move(heap::Heap::Attach(main_pool.get()).value());
    mgr = std::move(txn::TxManager::Open(heap.get(), options).value());
  }
};

// Parks the applier inside a transaction's apply: the first persistence
// event emitted by any thread other than the one that constructed the park
// (the test thread) blocks until Release(). In a single-mutator test that
// event is the first flush of the applier's roll-forward, so the applier
// sits inside that batch — cut gate entered, locks held — while the test
// drives dependent transactions. Events after the first pass straight
// through to `next` (a CrashScheduler, say), the parked one after release,
// so a single-mutator event stream stays deterministic.
class ApplierPark : public nvm::PersistenceObserver {
 public:
  explicit ApplierPark(nvm::PersistenceObserver* next = nullptr)
      : owner_(std::this_thread::get_id()), next_(next) {}

  bool OnPersistEvent(const nvm::PersistEvent& event) override {
    if (std::this_thread::get_id() != owner_) {
      std::unique_lock<std::mutex> lk(mu_);
      if (!fired_) {
        fired_ = true;
        parked_site_ = event.site;
        cv_.notify_all();
        cv_.wait(lk, [&] { return released_; });
      }
    }
    return next_ == nullptr || next_->OnPersistEvent(event);
  }

  // Waits until a thread is parked; false on timeout.
  bool WaitParked(std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return fired_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  const char* parked_site() {
    std::lock_guard<std::mutex> lk(mu_);
    return parked_site_;
  }

 private:
  const std::thread::id owner_;
  nvm::PersistenceObserver* next_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool fired_ = false;
  bool released_ = false;
  const char* parked_site_ = nullptr;
};

}  // namespace kamino::test

#endif  // TESTS_TEST_UTIL_H_
