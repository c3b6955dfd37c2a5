// Cooperative apply (DESIGN.md §6): a transaction that blocks on a committed
// but not-yet-applied writer runs the applier's batch step itself instead of
// sleeping until an applier thread reaches its blocker.
//
// The applier is parked deterministically inside another transaction's
// apply (test::ApplierPark), or paused (PauseApplier), so the only way a
// dependent operation can make progress is by helping.
//
// Committed-pending lock entries (LockManager::MarkCommitted): a reader
// passes a writer whose commit is durable, never a running or prepared one,
// and a transaction that passed a writer and writes commits only after that
// writer is applied, so backup snapshots stay causally closed (DESIGN.md
// §12.1). Every case runs under ThreadSanitizer ("txn").

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/kv/kv_store.h"
#include "src/txn/kamino_engine.h"
#include "tests/test_util.h"

namespace kamino::txn {
namespace {

constexpr uint64_t kObjectSize = 64;

struct Stack {
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<TxManager> mgr;

  static Stack Make(EngineType engine, uint64_t lock_timeout_ms) {
    Stack s;
    heap::HeapOptions hopts;
    hopts.pool_size = 32ull << 20;
    s.heap = std::move(heap::Heap::Create(hopts).value());
    TxManagerOptions mopts;
    mopts.engine = engine;
    mopts.applier_threads = 1;
    mopts.lock.timeout_ms = lock_timeout_ms;
    s.mgr = std::move(TxManager::Create(s.heap.get(), mopts).value());
    return s;
  }

  KaminoEngine* engine() { return static_cast<KaminoEngine*>(mgr->engine()); }

  std::vector<uint64_t> Alloc(int count) {
    std::vector<uint64_t> offs;
    for (int i = 0; i < count; ++i) {
      Status st = mgr->Run([&](Tx& tx) -> Status {
        Result<uint64_t> a = tx.Alloc(kObjectSize);
        if (!a.ok()) {
          return a.status();
        }
        offs.push_back(*a);
        return Status::Ok();
      });
      EXPECT_TRUE(st.ok()) << st.message();
    }
    mgr->WaitIdle();
    return offs;
  }

  Status Write(uint64_t off, uint64_t value) {
    return mgr->Run([&](Tx& tx) -> Status {
      Result<void*> p = tx.OpenWrite(off, kObjectSize);
      if (!p.ok()) {
        return p.status();
      }
      auto* words = static_cast<uint64_t*>(*p);
      for (uint64_t i = 0; i < kObjectSize / sizeof(uint64_t); ++i) {
        words[i] = value;
      }
      return Status::Ok();
    });
  }

  // A read-only transaction: read-locks `off` (blocked by a running or
  // prepared writer of `off`, passing a committed one) and returns its
  // first word.
  Result<uint64_t> Read(uint64_t off) {
    uint64_t value = 0;
    Status st = mgr->Run([&](Tx& tx) -> Status {
      KAMINO_RETURN_IF_ERROR(tx.ReadLock(off));
      std::memcpy(&value, heap->pool()->At(off), sizeof(value));
      return Status::Ok();
    });
    if (!st.ok()) {
      return st;
    }
    return value;
  }

  bool MainEqualsBackup(uint64_t off) {
    return std::memcmp(heap->pool()->At(off), mgr->backup_pool()->At(off), kObjectSize) == 0;
  }
};

// Parks the applier inside its next batch (test::ApplierPark) while it
// lives. Every exit path, failed assertions included, un-parks the applier
// and uninstalls the observer before the park and the engine go away.
struct ParkedApplier {
  explicit ParkedApplier(Stack& stack) : s(stack) {
    s.mgr->backup_pool()->SetPersistenceObserver(&park);
  }
  ParkedApplier(const ParkedApplier&) = delete;
  ParkedApplier& operator=(const ParkedApplier&) = delete;
  ~ParkedApplier() {
    park.Release();
    s.mgr->WaitIdle();
    s.mgr->backup_pool()->SetPersistenceObserver(nullptr);
  }

  Stack& s;
  test::ApplierPark park;
};

// T1's apply is parked on the applier thread; T2 (a different object) is
// committed behind it. A read of T2's object passes T2's committed write
// lock, and its one helping pass applies T2 — all while the applier is
// still parked.
TEST(CooperativeApplyTest, DependentReadAppliesPastParkedApplier) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/10'000);
  const std::vector<uint64_t> offs = s.Alloc(2);
  const uint64_t a = offs[0];
  const uint64_t b = offs[1];

  ParkedApplier parked(s);
  test::ApplierPark& park = parked.park;
  ASSERT_TRUE(s.Write(a, 1).ok());  // T1
  ASSERT_TRUE(park.WaitParked()) << "the applier never reached T1's roll-forward";
  EXPECT_EQ(std::string(park.parked_site()).rfind("backup/", 0), 0u) << park.parked_site();
  ASSERT_TRUE(s.Write(b, 2).ok());  // T2, queued behind the parked batch.
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(b));

  auto read = std::async(std::launch::async, [&] { return s.Read(b); });
  const bool returned = read.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "dependent read waited for the parked applier";
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(a)) << "T1 applied while its applier was parked";
  park.Release();
  Result<uint64_t> got = read.get();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(*got, 2u);

  s.mgr->WaitIdle();
  const EngineStats stats = s.mgr->engine()->stats();
  EXPECT_GE(stats.helper_apply_batches, 1u);
  EXPECT_EQ(stats.applied, 4u);  // Two allocations, T1 and T2.
  EXPECT_EQ(stats.applier_queue_depth, 0u);
  EXPECT_TRUE(s.MainEqualsBackup(a));
  EXPECT_TRUE(s.MainEqualsBackup(b));
  EXPECT_FALSE(s.mgr->locks()->IsWriteLocked(a));
  EXPECT_FALSE(s.mgr->locks()->IsWriteLocked(b));
}

// A reader that passes a committed writer needs no apply; it helps the
// dependent writers behind it with one transaction, not a batch. With the
// applier parked inside T1 and T2..T4 queued behind it, one read of T2's
// object applies T2 alone.
TEST(CooperativeApplyTest, PassingReaderAppliesOneTransaction) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/10'000);
  const std::vector<uint64_t> offs = s.Alloc(4);

  ParkedApplier parked(s);
  ASSERT_TRUE(s.Write(offs[0], 1).ok());  // T1
  ASSERT_TRUE(parked.park.WaitParked()) << "the applier never reached T1's roll-forward";
  for (uint64_t i = 1; i < offs.size(); ++i) {
    ASSERT_TRUE(s.Write(offs[i], 10 + i).ok());  // T2..T4, queued.
  }
  const EngineStats before = s.mgr->engine()->stats();
  EXPECT_EQ(before.applier_queue_depth, 4u);  // T1 in the parked batch.

  Result<uint64_t> got = s.Read(offs[1]);  // Passes T2 and helps once.
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(*got, 11u);

  const EngineStats after = s.mgr->engine()->stats();
  EXPECT_EQ(after.applied - before.applied, 1u);
  EXPECT_EQ(after.helper_apply_batches - before.helper_apply_batches, 1u);
  EXPECT_EQ(after.applier_queue_depth, 3u);
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(offs[0])) << "T1 applied while parked";
  EXPECT_FALSE(s.mgr->locks()->IsWriteLocked(offs[1])) << "the reader did not apply T2";
  EXPECT_TRUE(s.MainEqualsBackup(offs[1]));
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(offs[2])) << "the reader applied a batch";
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(offs[3])) << "the reader applied a batch";
}

// PauseApplier freezes the committed-but-unapplied window (crash tests
// depend on it): a dependent writer may not help while it holds, so it
// times out and the backup stays behind. A reader passes the committed
// writer and gets its value without applying anything.
TEST(CooperativeApplyTest, PausedApplierFreezesHelpers) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/200);
  const uint64_t a = s.Alloc(1)[0];

  s.engine()->PauseApplier(true);
  ASSERT_TRUE(s.Write(a, 7).ok());
  Result<uint64_t> read = s.Read(a);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(*read, 7u);
  Status write = s.Write(a, 8);
  EXPECT_EQ(write.code(), StatusCode::kTxConflict);

  EngineStats stats = s.mgr->engine()->stats();
  EXPECT_EQ(stats.helper_apply_batches, 0u);
  EXPECT_EQ(stats.applier_queue_depth, 1u);
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(a));
  EXPECT_FALSE(s.MainEqualsBackup(a)) << "a paused engine applied a transaction";

  s.engine()->PauseApplier(false);
  s.mgr->WaitIdle();
  EXPECT_TRUE(s.MainEqualsBackup(a));
  Result<uint64_t> after = s.Read(a);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 7u);
}

// A writer that has not committed blocks readers: its in-place bytes are
// not committed data.
// apply_batches counts ApplyBatch runs, not transactions: five commits
// queued behind a paused applier are applied in fewer than five batches.
TEST(CooperativeApplyTest, ApplyBatchesCountsBatchesNotTransactions) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/2000);
  const std::vector<uint64_t> offs = s.Alloc(5);
  const EngineStats before = s.engine()->stats();
  s.engine()->PauseApplier(true);
  for (size_t i = 0; i < offs.size(); ++i) {
    ASSERT_TRUE(s.Write(offs[i], i + 1).ok());
  }
  s.engine()->PauseApplier(false);
  s.mgr->WaitIdle();
  const EngineStats after = s.engine()->stats();
  EXPECT_EQ(after.applied - before.applied, 5u);
  EXPECT_GE(after.apply_batches - before.apply_batches, 1u);
  EXPECT_LT(after.apply_batches - before.apply_batches, 5u);
}

TEST(CooperativeApplyTest, RunningWriterBlocksReaders) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/200);
  const uint64_t a = s.Alloc(1)[0];
  ASSERT_TRUE(s.Write(a, 3).ok());
  s.mgr->WaitIdle();

  Result<Tx> writer = s.mgr->Begin();
  ASSERT_TRUE(writer.ok());
  Result<void*> p = writer->OpenWrite(a, kObjectSize);
  ASSERT_TRUE(p.ok());
  std::memset(*p, 0x5a, kObjectSize);
  Result<uint64_t> read = s.Read(a);
  ASSERT_FALSE(read.ok()) << "a reader passed a running writer and read " << *read;
  EXPECT_EQ(read.status().code(), StatusCode::kTxConflict);
  ASSERT_TRUE(writer->Abort().ok());
  Result<uint64_t> after = s.Read(a);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 3u);
}

// A prepared 2PC participant has a durable vote, not a durable commit: it
// blocks readers until FinishPrepared commits it.
TEST(CooperativeApplyTest, PreparedWriterBlocksReaders) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/200);
  const uint64_t a = s.Alloc(1)[0];
  ASSERT_TRUE(s.Write(a, 3).ok());
  s.mgr->WaitIdle();

  Result<Tx> writer = s.mgr->Begin();
  ASSERT_TRUE(writer.ok());
  Result<void*> p = writer->OpenWrite(a, kObjectSize);
  ASSERT_TRUE(p.ok());
  auto* words = static_cast<uint64_t*>(*p);
  for (uint64_t i = 0; i < kObjectSize / sizeof(uint64_t); ++i) {
    words[i] = 9;
  }
  ASSERT_TRUE(writer->Prepare(/*gtxid=*/1, /*coord_shard=*/0).ok());
  ASSERT_TRUE(writer->prepared());
  Result<uint64_t> read = s.Read(a);
  ASSERT_FALSE(read.ok()) << "a reader passed a prepared writer and read " << *read;
  EXPECT_EQ(read.status().code(), StatusCode::kTxConflict);

  s.engine()->PauseApplier(true);  // Keep the commit pending.
  ASSERT_TRUE(writer->FinishPrepared(/*commit=*/true).ok());
  EXPECT_TRUE(s.mgr->locks()->IsWriteLocked(a));
  Result<uint64_t> committed = s.Read(a);
  ASSERT_TRUE(committed.ok()) << committed.status().message();
  EXPECT_EQ(*committed, 9u);
  s.engine()->PauseApplier(false);
  s.mgr->WaitIdle();
  EXPECT_TRUE(s.MainEqualsBackup(a));
}

// Fixed-width values, so every update fits the key's blob in place.
std::string Num(uint64_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%010llu", static_cast<unsigned long long>(v));
  return buf;
}

struct KvStack {
  std::unique_ptr<heap::Heap> heap;
  std::unique_ptr<TxManager> mgr;
  std::unique_ptr<kv::KvStore> store;

  static KvStack Make(int applier_threads, uint64_t lock_timeout_ms) {
    KvStack s;
    heap::HeapOptions hopts;
    hopts.pool_size = 32ull << 20;
    s.heap = std::move(heap::Heap::Create(hopts).value());
    TxManagerOptions mopts;
    mopts.applier_threads = applier_threads;
    mopts.lock.timeout_ms = lock_timeout_ms;
    s.mgr = std::move(TxManager::Create(s.heap.get(), mopts).value());
    s.store = std::move(kv::KvStore::Create(s.mgr.get()).value());
    return s;
  }

  KaminoEngine* engine() { return static_cast<KaminoEngine*>(mgr->engine()); }

  // One transaction: reads `from` and writes what it read to `to`.
  Status Copy(uint64_t from, uint64_t to) {
    auto guard = store->tree()->LockShared();
    return mgr->Run([&](Tx& tx) -> Status {
      Result<std::string> v = store->tree()->GetInTx(tx, from);
      if (!v.ok()) {
        return v.status();
      }
      return store->tree()->UpdateInTx(tx, to, *v);
    });
  }

  // The backup's view of (from, to), read at one cut.
  std::pair<uint64_t, uint64_t> SnapshotPair(uint64_t from, uint64_t to) {
    Result<std::vector<std::pair<uint64_t, std::string>>> scan = store->SnapshotScan(from, 2);
    EXPECT_TRUE(scan.ok() && scan->size() == 2 && (*scan)[0].first == from &&
                (*scan)[1].first == to);
    if (!scan.ok() || scan->size() != 2) {
      return {0, 0};
    }
    return {std::stoull((*scan)[0].second), std::stoull((*scan)[1].second)};
  }
};

// A read-write transaction that read a committed-but-unapplied value may not
// commit before that value's writer is applied and released: otherwise the
// backup could hold its write without the write it read (DESIGN.md §12.1).
// Under a paused applier it times out at commit and aborts; once the
// applier resumes it commits, and no snapshot ever shows it without its
// blocker's write.
TEST(CooperativeApplyTest, ReadWriteTxWaitsAtCommitForPassedWriter) {
  KvStack s = KvStack::Make(/*applier_threads=*/2, /*lock_timeout_ms=*/500);
  constexpr uint64_t kFrom = 10;
  constexpr uint64_t kTo = 11;
  ASSERT_TRUE(s.store->Insert(kFrom, Num(0)).ok());
  ASSERT_TRUE(s.store->Insert(kTo, Num(0)).ok());
  s.mgr->WaitIdle();

  s.engine()->PauseApplier(true);
  ASSERT_TRUE(s.store->Update(kFrom, Num(1)).ok());
  Result<std::string> passed = s.store->Read(kFrom);  // Read-only: never waits.
  ASSERT_TRUE(passed.ok()) << passed.status().message();
  EXPECT_EQ(*passed, Num(1));
  EXPECT_EQ(s.Copy(kFrom, kTo).code(), StatusCode::kTxConflict)
      << "a read-write transaction committed ahead of the writer it read";
  EXPECT_EQ(s.store->Read(kTo).value(), Num(0));
  EXPECT_EQ(s.SnapshotPair(kFrom, kTo), std::make_pair(uint64_t{0}, uint64_t{0}));

  auto copy = std::async(std::launch::async, [&] { return s.Copy(kFrom, kTo); });
  EXPECT_EQ(copy.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout)
      << "the copy committed while its blocker was paused";
  s.engine()->PauseApplier(false);
  const Status st = copy.get();
  ASSERT_TRUE(st.ok()) << st.message();
  s.mgr->WaitIdle();
  EXPECT_EQ(s.SnapshotPair(kFrom, kTo), std::make_pair(uint64_t{1}, uint64_t{1}));

  // Live: one client keeps raising kFrom, another copies it to kTo, and
  // snapshots must never show kTo ahead of kFrom.
  std::atomic<bool> stop{false};
  std::atomic<int> copies{0};
  std::thread writer([&] {
    for (uint64_t v = 2; !stop.load(); ++v) {
      ASSERT_TRUE(s.store->Update(kFrom, Num(v)).ok());
    }
  });
  std::thread copier([&] {
    while (!stop.load()) {
      ASSERT_TRUE(s.Copy(kFrom, kTo).ok());
      copies.fetch_add(1);
    }
  });
  int cuts = 0;
  int torn_cuts = 0;
  const auto end = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < end || copies.load() < 20) {
    const auto [from, to] = s.SnapshotPair(kFrom, kTo);
    torn_cuts += to > from ? 1 : 0;
    ++cuts;
  }
  stop = true;
  writer.join();
  copier.join();
  EXPECT_EQ(torn_cuts, 0) << "of " << cuts
                          << " snapshots showed a copy without the write it read";
  s.mgr->WaitIdle();
  const auto [from, to] = s.SnapshotPair(kFrom, kTo);
  EXPECT_LE(to, from);
}

// Readers of a 1 KB object under concurrent writers see only whole,
// committed values: writers write it in pieces (yielding in between) and
// abort every third value, so a reader that passed a running writer would
// see a torn or an aborted value.
TEST(CooperativeApplyTest, ReadersSeeOnlyWholeCommittedValues) {
  Stack s = Stack::Make(EngineType::kKaminoSimple, /*lock_timeout_ms=*/10'000);
  constexpr uint64_t kSize = 1024;
  constexpr uint64_t kPiece = 128;
  uint64_t a = 0;
  ASSERT_TRUE(s.mgr
                  ->Run([&](Tx& tx) -> Status {
                    Result<uint64_t> off = tx.Alloc(kSize);
                    if (off.ok()) {
                      a = *off;
                    }
                    return off.status();
                  })
                  .ok());
  s.mgr->WaitIdle();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 1; !stop.load(); ++i) {
        const auto tag = static_cast<uint8_t>((i * 2 + static_cast<uint64_t>(w)) % 251 + 1);
        const Status st = s.mgr->Run([&](Tx& tx) -> Status {
          Result<void*> p = tx.OpenWrite(a, kSize);
          if (!p.ok()) {
            return p.status();
          }
          for (uint64_t off = 0; off < kSize; off += kPiece) {
            std::memset(static_cast<char*>(*p) + off, tag, kPiece);
            std::this_thread::yield();
          }
          return tag % 3 == 0 ? Status::Internal("abort on purpose") : Status::Ok();
        });
        ASSERT_TRUE(st.ok() || tag % 3 == 0) << st.message();
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::vector<uint8_t> buf(kSize);
      while (!stop.load()) {
        const Status st = s.mgr->Run([&](Tx& tx) -> Status {
          KAMINO_RETURN_IF_ERROR(tx.ReadLock(a));
          std::memcpy(buf.data(), s.heap->pool()->At(a), kSize);
          return Status::Ok();
        });
        ASSERT_TRUE(st.ok()) << st.message();
        reads.fetch_add(1);
        const uint8_t tag = buf[0];
        bool whole = tag % 3 != 0 || tag == 0;
        for (uint64_t i = 1; i < kSize && whole; ++i) {
          whole = buf[i] == tag;
        }
        if (!whole) {
          bad.fetch_add(1);
        }
      }
    });
  }
  const auto end = std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < end || reads.load() < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u) << "of " << reads.load() << " reads";
  s.mgr->WaitIdle();
  EXPECT_TRUE(std::memcmp(s.heap->pool()->At(a), s.mgr->backup_pool()->At(a), kSize) == 0);
}

}  // namespace
}  // namespace kamino::txn
