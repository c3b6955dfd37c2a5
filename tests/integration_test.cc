// Integration tests: several persistent data structures (B+-trees and the
// doubly-linked list) sharing one heap and one atomicity engine,
// cross-structure transactions, and whole-system crash recovery through the
// combined object graph.

#include <gtest/gtest.h>

#include "src/pds/bplus_tree.h"
#include "src/pds/dlist.h"
#include "src/workload/tpcc_lite.h"
#include "tests/test_util.h"

namespace kamino {
namespace {

using test::CrashableSystem;

class IntegrationTest : public ::testing::TestWithParam<txn::EngineType> {
 protected:
  void SetUp() override { sys_ = CrashableSystem::Create(GetParam(), 128ull << 20); }
  CrashableSystem sys_;
};

TEST_P(IntegrationTest, FourStructuresShareOneHeap) {
  auto tree = pds::BPlusTree::Create(sys_.mgr.get()).value();
  auto list = pds::DList::Create(sys_.mgr.get()).value();
  auto other = pds::BPlusTree::Create(sys_.mgr.get()).value();
  auto fifo = pds::BPlusTree::Create(sys_.mgr.get()).value();

  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(tree->Insert(k, "t" + std::to_string(k)).ok());
    ASSERT_TRUE(other->Upsert(k, "m" + std::to_string(k)).ok());
    if (k < 50) {
      ASSERT_TRUE(list->Insert(k, static_cast<double>(k)).ok());
      ASSERT_TRUE(fifo->Insert(k, "q" + std::to_string(k)).ok());
    }
  }
  sys_.mgr->WaitIdle();
  EXPECT_TRUE(tree->Validate().ok());
  EXPECT_TRUE(list->Validate().ok());
  EXPECT_TRUE(other->Validate().ok());
  EXPECT_TRUE(fifo->Validate().ok());
  EXPECT_EQ(tree->CountSlow(), 200u);
  EXPECT_EQ(other->CountSlow(), 200u);
  EXPECT_EQ(list->size(), 50u);
  EXPECT_EQ(fifo->CountSlow(), 50u);
}

TEST_P(IntegrationTest, CrossStructureTransactionIsAtomic) {
  if (GetParam() == txn::EngineType::kNoLogging) {
    GTEST_SKIP() << "no-logging cannot roll back";
  }
  auto from = pds::BPlusTree::Create(sys_.mgr.get()).value();
  auto to = pds::BPlusTree::Create(sys_.mgr.get()).value();
  ASSERT_TRUE(from->Insert(1, "record").ok());
  ASSERT_TRUE(to->Insert(2, "resident").ok());
  sys_.mgr->WaitIdle();

  // Moves key 1 from `from` to `to` in one transaction. Both exclusive
  // guards are taken, always in this order, before the transaction starts.
  auto move = [&](bool commit) {
    auto from_guard = from->LockExclusive();
    auto to_guard = to->LockExclusive();
    return sys_.mgr->Run([&](txn::Tx& tx) -> Status {
      // Read without object locks: the same transaction deletes from this leaf.
      Result<std::pair<uint64_t, std::string>> rec = from->FirstAtLeastInTx(tx, 1);
      KAMINO_RETURN_IF_ERROR(rec.status());
      KAMINO_RETURN_IF_ERROR(from->DeleteInTx(tx, 1));
      KAMINO_RETURN_IF_ERROR(to->InsertInTx(tx, 1, rec->second));
      return commit ? Status::Ok() : Status::Internal("abort");
    });
  };

  EXPECT_FALSE(move(/*commit=*/false).ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(from->Get(1).value(), "record");
  EXPECT_EQ(to->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(to->CountSlow(), 1u);

  ASSERT_TRUE(move(/*commit=*/true).ok());
  sys_.mgr->WaitIdle();
  EXPECT_EQ(from->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(from->CountSlow(), 0u);
  EXPECT_EQ(to->Get(1).value(), "record");
  EXPECT_EQ(to->Get(2).value(), "resident");
  EXPECT_TRUE(from->Validate().ok());
  EXPECT_TRUE(to->Validate().ok());
}

TEST_P(IntegrationTest, WholeSystemCrashRecovery) {
  if (GetParam() == txn::EngineType::kNoLogging) {
    GTEST_SKIP() << "no-logging has no recovery";
  }
  uint64_t tree_anchor = 0, other_anchor = 0, list_anchor = 0;
  {
    auto tree = pds::BPlusTree::Create(sys_.mgr.get()).value();
    auto other = pds::BPlusTree::Create(sys_.mgr.get()).value();
    auto list = pds::DList::Create(sys_.mgr.get()).value();
    tree_anchor = tree->anchor();
    other_anchor = other->anchor();
    list_anchor = list->anchor();
    for (uint64_t k = 0; k < 120; ++k) {
      ASSERT_TRUE(tree->Insert(k, "v" + std::to_string(k)).ok());
      ASSERT_TRUE(other->Insert(k, "w" + std::to_string(k)).ok());
      ASSERT_TRUE(list->Insert(k, static_cast<double>(k)).ok());
    }
    sys_.mgr->WaitIdle();
    // One in-flight transaction across both trees dies with the machine.
    Result<txn::Tx> tx = sys_.mgr->Begin();
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(tree->UpsertInTx(*tx, 5, "doomed").ok());
    ASSERT_TRUE(other->DeleteInTx(*tx, 5).ok());
    tx->LeakForCrashTest();
  }
  sys_.CrashAndRecover();

  auto tree = pds::BPlusTree::Attach(sys_.mgr.get(), tree_anchor).value();
  auto other = pds::BPlusTree::Attach(sys_.mgr.get(), other_anchor).value();
  auto list = pds::DList::Attach(sys_.mgr.get(), list_anchor).value();
  ASSERT_TRUE(tree->Validate().ok());
  ASSERT_TRUE(other->Validate().ok());
  ASSERT_TRUE(list->Validate().ok());
  EXPECT_EQ(tree->CountSlow(), 120u);
  EXPECT_EQ(tree->Get(5).value(), "v5");
  EXPECT_EQ(other->CountSlow(), 120u);
  EXPECT_EQ(other->Get(5).value(), "w5");
  EXPECT_EQ(list->size(), 120u);
  EXPECT_EQ(list->Lookup(119).value(), 119.0);
}

INSTANTIATE_TEST_SUITE_P(Engines, IntegrationTest,
                         ::testing::Values(txn::EngineType::kKaminoSimple,
                                           txn::EngineType::kKaminoDynamic,
                                           txn::EngineType::kUndoLog, txn::EngineType::kCow,
                                           txn::EngineType::kRedoLog,
                                           txn::EngineType::kNoLogging),
                         [](const ::testing::TestParamInfo<txn::EngineType>& info) {
                           switch (info.param) {
                             case txn::EngineType::kKaminoSimple:
                               return "KaminoSimple";
                             case txn::EngineType::kKaminoDynamic:
                               return "KaminoDynamic";
                             case txn::EngineType::kUndoLog:
                               return "UndoLog";
                             case txn::EngineType::kCow:
                               return "Cow";
                             case txn::EngineType::kRedoLog:
                               return "RedoLog";
                             case txn::EngineType::kNoLogging:
                               return "NoLogging";
                             default:
                               return "Unknown";
                           }
                         });

// TPC-C-lite survives a mid-transaction crash with all invariants intact.
TEST(TpccCrashTest, MidNewOrderCrashRecovers) {
  CrashableSystem sys = CrashableSystem::Create(txn::EngineType::kKaminoSimple, 256ull << 20);
  workload::TpccLite::Options topts;
  topts.items = 100;
  topts.customers = 20;
  auto tpcc = workload::TpccLite::Create(sys.mgr.get(), topts).value();
  ASSERT_TRUE(tpcc->Load().ok());
  Xoshiro256 rng(3);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tpcc->RunOne(rng).ok());
  }
  sys.mgr->WaitIdle();
  // The heap crashes with no transaction in flight (TpccLite holds its own
  // tree handles which die with it); the persistent state must reopen clean.
  sys.CrashAndRecover();
  auto log_txs = sys.mgr->log()->ScanForRecovery();
  EXPECT_TRUE(log_txs.empty()) << "recovery left unresolved transactions";
}

}  // namespace
}  // namespace kamino
