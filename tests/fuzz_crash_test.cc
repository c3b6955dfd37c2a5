// Randomized whole-system crash fuzzer: three B+-trees share one heap. The
// "tree" and the "map" take Upsert and Delete. The "queue" is a FIFO: push
// inserts the next sequence number, and pop finds the smallest key with
// FirstAtLeastInTx and deletes it in the same transaction, which drives leaf
// merges at the tree's left edge. Random
// committed operations interleave with leaked (in-flight) transactions and
// randomized power failures (kEvictRandomly). After every recovery, all
// structural invariants must hold and all committed data must match a
// volatile model exactly. Sweeps engines x seeds.
//
// EnumeratedCrashPoints complements the randomness with one systematic pass
// per engine through the crash-point scheduler (tests/crash_points/): every
// k-th persistence event of a small deterministic workload, instead of
// whatever points the random seeds happen to hit.

#include <gtest/gtest.h>

#include <map>

#include "src/common/random.h"
#include "src/pds/bplus_tree.h"
#include "tests/crash_points/crash_point_harness.h"
#include "tests/test_util.h"

namespace kamino {
namespace {

using test::CrashableSystem;

// The queue model is keyed by sequence number, so it iterates in FIFO order.
struct Model {
  std::map<uint64_t, std::string> tree;
  std::map<uint64_t, std::string> map;
  std::map<uint64_t, std::string> queue;
};

struct Structures {
  std::unique_ptr<pds::BPlusTree> tree;
  std::unique_ptr<pds::BPlusTree> map;
  std::unique_ptr<pds::BPlusTree> queue;
};

Structures AttachAll(CrashableSystem* sys, uint64_t tree_a, uint64_t map_a, uint64_t q_a) {
  Structures s;
  s.tree = std::move(pds::BPlusTree::Attach(sys->mgr.get(), tree_a).value());
  s.map = std::move(pds::BPlusTree::Attach(sys->mgr.get(), map_a).value());
  s.queue = std::move(pds::BPlusTree::Attach(sys->mgr.get(), q_a).value());
  return s;
}

// Removes the queue's oldest entry in one transaction; kNotFound when empty.
Status PopFront(pds::BPlusTree* queue) {
  auto guard = queue->LockExclusive();
  return queue->manager()->Run([&](txn::Tx& tx) -> Status {
    Result<std::pair<uint64_t, std::string>> head = queue->FirstAtLeastInTx(tx, 0);
    KAMINO_RETURN_IF_ERROR(head.status());
    return queue->DeleteInTx(tx, head->first);
  });
}

void CheckTree(pds::BPlusTree* t, const std::map<uint64_t, std::string>& m, const char* name) {
  ASSERT_TRUE(t->Validate().ok()) << name;
  ASSERT_EQ(t->CountSlow(), m.size()) << name;
  for (const auto& [k, v] : m) {
    ASSERT_EQ(t->Get(k).value(), v) << name << " key " << k;
  }
}

void CheckAgainstModel(const Structures& s, const Model& m) {
  CheckTree(s.tree.get(), m.tree, "tree");
  CheckTree(s.map.get(), m.map, "map");
  CheckTree(s.queue.get(), m.queue, "queue");
}

class FuzzCrashTest : public ::testing::TestWithParam<txn::EngineType> {};

TEST_P(FuzzCrashTest, RandomOpsWithRandomCrashes) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    CrashableSystem sys = CrashableSystem::Create(GetParam(), 128ull << 20);
    Model model;
    Xoshiro256 rng(seed * 7919);

    uint64_t tree_a, map_a, q_a;
    {
      auto tree = pds::BPlusTree::Create(sys.mgr.get()).value();
      auto map = pds::BPlusTree::Create(sys.mgr.get()).value();
      auto queue = pds::BPlusTree::Create(sys.mgr.get()).value();
      tree_a = tree->anchor();
      map_a = map->anchor();
      q_a = queue->anchor();
    }
    Structures s = AttachAll(&sys, tree_a, map_a, q_a);
    // The queue starts several leaves deep, so pops empty and merge leaves.
    uint64_t queue_tail = 0;
    for (; queue_tail < 64; ++queue_tail) {
      const std::string val = "s" + std::to_string(seed) + "q" + std::to_string(queue_tail);
      ASSERT_TRUE(s.queue->Insert(queue_tail, val).ok());
      model.queue[queue_tail] = val;
    }

    for (int round = 0; round < 4; ++round) {
      // A burst of committed operations, mirrored in the model.
      for (int op = 0; op < 120; ++op) {
        const uint64_t key = rng.NextBounded(80);
        const std::string val =
            "s" + std::to_string(seed) + "r" + std::to_string(round) + "o" + std::to_string(op);
        switch (rng.NextBounded(6)) {
          case 0:
            ASSERT_TRUE(s.tree->Upsert(key, val).ok());
            model.tree[key] = val;
            break;
          case 1:
            if (s.tree->Delete(key).ok()) {
              model.tree.erase(key);
            }
            break;
          case 2:
            ASSERT_TRUE(s.map->Upsert(key, val).ok());
            model.map[key] = val;
            break;
          case 3:
            if (s.map->Delete(key).ok()) {
              model.map.erase(key);
            }
            break;
          case 4:
            ASSERT_TRUE(s.queue->Insert(queue_tail, val).ok());
            model.queue[queue_tail++] = val;
            break;
          case 5:
            if (PopFront(s.queue.get()).ok()) {
              model.queue.erase(model.queue.begin());
            }
            break;
        }
      }
      sys.mgr->WaitIdle();

      // One in-flight transaction that dies with the machine (sometimes).
      if (rng.NextDouble() < 0.7) {
        Result<txn::Tx> tx = sys.mgr->Begin();
        ASSERT_TRUE(tx.ok());
        auto guard = s.tree->LockExclusive();
        (void)s.tree->UpsertInTx(*tx, 999, "doomed");
        tx->LeakForCrashTest();
      }

      // Power failure with a random eviction outcome, then recovery.
      s = Structures{};  // Handles die with the "process".
      sys.CrashAndRecover(nvm::CrashMode::kEvictRandomly, seed * 100 + round);
      s = AttachAll(&sys, tree_a, map_a, q_a);
      CheckAgainstModel(s, model);
      ASSERT_EQ(s.tree->Get(999).status().code(), StatusCode::kNotFound)
          << "in-flight write leaked into recovered state";
    }
  }
}

// One enumerated (non-random) pass per engine: a small workload, every 3rd
// persistence event injected. Catches ordering bugs the random sweep's
// eviction model can step over.
TEST_P(FuzzCrashTest, EnumeratedCrashPoints) {
  testing::CrashPointOptions options;
  options.engine = GetParam();
  options.num_ops = 4;
  options.stride = 3;
  testing::CrashPointReport report = testing::EnumerateCrashPoints(options);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Engines, FuzzCrashTest,
                         ::testing::Values(txn::EngineType::kKaminoSimple,
                                           txn::EngineType::kKaminoDynamic,
                                           txn::EngineType::kUndoLog, txn::EngineType::kCow,
                                           txn::EngineType::kRedoLog),
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
                             default:
                               return "Unknown";
                           }
                         });

}  // namespace
}  // namespace kamino
