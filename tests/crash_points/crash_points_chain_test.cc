// Crash-point sweep over the chain head (paper §5.2): power-fail the head at
// a strided set of persistence events, fail-stop it, and require that every
// operation the tail acknowledged survives the promotion — for every crash
// point, not just hand-picked ones.
//
// The observer is installed on the head's pools only (main + backup): the
// experiment is a head machine losing power, not a cluster-wide outage. The
// head keeps executing volatile after the injection point — exactly a CPU
// outliving its NVDIMM — so the tail keeps acknowledging; those acks are the
// durability obligation the surviving replicas must honor.
//
// Unlike the single-machine sweep, no event-stream determinism is asserted:
// network threads interleave, so ordinals name slightly different moments per
// run. Each run's check is self-contained (acked ops vs recovered chain), so
// that nondeterminism costs coverage precision, not soundness.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/chain/chain.h"
#include "tests/crash_points/crash_scheduler.h"

namespace kamino::testing {
namespace {

chain::ChainOptions Opts() {
  chain::ChainOptions o;
  o.kamino = true;
  o.f = 1;  // Three replicas: head + middle + tail.
  o.pool_size = 24ull << 20;
  o.log_region_size = 4ull << 20;
  o.one_way_latency_us = 5;
  o.client_timeout_ms = 5'000;
  return o;
}

void InstallOnHead(chain::Chain* chain, nvm::PersistenceObserver* obs) {
  chain::Replica* head = chain->head();
  ASSERT_NE(head, nullptr);
  ASSERT_NE(head->pool(), nullptr);
  head->pool()->SetPersistenceObserver(obs);
  if (head->backup_pool() != nullptr) {
    head->backup_pool()->SetPersistenceObserver(obs);
  }
}

void UninstallFromHead(chain::Chain* chain, uint64_t head_id) {
  chain::Replica* head = chain->replica_by_id(head_id);
  ASSERT_NE(head, nullptr);
  head->pool()->SetPersistenceObserver(nullptr);
  if (head->backup_pool() != nullptr) {
    head->backup_pool()->SetPersistenceObserver(nullptr);
  }
}

void ExpectConverged(chain::Chain* chain, const std::map<uint64_t, std::string>& expect) {
  ASSERT_TRUE(chain->Quiesce().ok());
  for (uint64_t id : chain->current_view().nodes) {
    chain::Replica* r = chain->replica_by_id(id);
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->tree()->Validate().ok()) << "replica " << id;
    EXPECT_EQ(r->tree()->CountSlow(), expect.size()) << "replica " << id;
    for (const auto& [k, v] : expect) {
      EXPECT_EQ(r->tree()->Get(k).value(), v) << "replica " << id << " key " << k;
    }
  }
}

constexpr uint64_t kNumOps = 8;

// Runs the workload, quiescing after every op so head persistence events
// settle at op boundaries. Stops early once the scheduler has fired. Returns
// the model of every acknowledged op.
std::map<uint64_t, std::string> RunWorkload(chain::Chain* chain, CrashScheduler* sched) {
  std::map<uint64_t, std::string> model;
  for (uint64_t i = 0; i < kNumOps; ++i) {
    const uint64_t key = 1 + (i * 7) % 5;
    const std::string value = "op-" + std::to_string(i);
    EXPECT_TRUE(chain->Upsert(key, value).ok()) << "op " << i;
    model[key] = value;
    EXPECT_TRUE(chain->Quiesce().ok());
    if (sched->crashed()) {
      break;
    }
  }
  return model;
}

TEST(CrashPointChain, HeadPowerFailureAtEveryStridedPointSurvivesPromotion) {
  CrashScheduler scheduler;

  // Count pass: discover the head's persistence-event space for this workload.
  uint64_t total_events = 0;
  {
    auto chain = chain::Chain::Create(Opts()).value();
    InstallOnHead(chain.get(), &scheduler);
    scheduler.ArmCounting();
    RunWorkload(chain.get(), &scheduler);
    scheduler.Disarm();
    total_events = scheduler.event_count();
    UninstallFromHead(chain.get(), chain->current_view().head());
  }
  ASSERT_GT(total_events, 0u) << "persistence hook not wired into head pools?";
  ::testing::Test::RecordProperty("total_events", std::to_string(total_events));

  // Sweep ~5 points spread across the event space (promotion resyncs the new
  // head's backup, which is expensive on the crash-sim pool — keep it small).
  const uint64_t kPoints = 5;
  const uint64_t stride = total_events / kPoints > 0 ? total_events / kPoints : 1;
  for (uint64_t k = 1; k <= total_events; k += stride) {
    SCOPED_TRACE("crash_ordinal=" + std::to_string(k) + " of " + std::to_string(total_events));
    auto chain = chain::Chain::Create(Opts()).value();
    const uint64_t head_id = chain->current_view().head();
    InstallOnHead(chain.get(), &scheduler);
    scheduler.ArmInjection(k);

    std::map<uint64_t, std::string> model = RunWorkload(chain.get(), &scheduler);

    // Power is gone at the head; fail-stop it and let the chain promote.
    scheduler.Disarm();
    UninstallFromHead(chain.get(), head_id);
    ASSERT_TRUE(chain->KillReplica(head_id).ok());

    // Every tail-acknowledged op must have survived the head's power loss.
    ExpectConverged(chain.get(), model);

    // The promoted chain must still accept writes.
    ASSERT_TRUE(chain->Upsert(100, "post-promotion").ok());
    model[100] = "post-promotion";
    ExpectConverged(chain.get(), model);
  }
}

}  // namespace
}  // namespace kamino::testing
