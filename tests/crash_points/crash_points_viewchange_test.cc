// Crash-point sweep over the chain's VIEW CHANGES (DESIGN.md §13): power-fail
// the node that is *executing* a promotion, join, or neighbour resolution at
// every persistence event of the view change itself, reboot it, re-run the
// view change, and require that the chain converges with zero acked-op loss
// and exactly-once replay — for every crash point, not just hand-picked ones.
//
// Staging differs from crash_points_chain_test: there the observer watches
// the dying head; here it watches the SURVIVOR doing recovery work (the
// promoting candidate or the joining tail), because the hazard under test is
// a power failure in the middle of the recovery protocol, not in the middle
// of the workload. Workloads are quiesced before arming so the per-site
// occurrence streams of the view change are deterministic (the persists come
// from one caller thread), which makes (kind, site, occurrence) a stable
// crash coordinate across runs.
//
// Veto semantics (crash_scheduler.h): once the coordinate fires, every later
// persist is vetoed but control flow continues — the CPU outlives the
// NVDIMM, so the view change "succeeds" volatile. The test then power-cycles
// the node (QuickReboot / RejoinAsTail crash-sim the pools back to the
// durable prefix) and requires the re-run view change to finish the job.
//
// Sweep budget: KAMINO_CRASH_POINT_STRIDE=N sweeps every Nth coordinate
// (default 1 = exhaustive; the event spaces here are small and bounded).
//
// Negative controls at the end: suppressing the promotion-cursor persist or
// the backup SyncAll persist must be *detected* (missing trust attestation /
// main-vs-backup divergence), proving the sweep's assertions have teeth.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/chain/anchor.h"
#include "src/chain/chain.h"
#include "tests/crash_points/crash_scheduler.h"

namespace kamino::testing {
namespace {

chain::ChainOptions Opts(bool kamino) {
  chain::ChainOptions o;
  o.kamino = kamino;
  // Three replicas either way: head + middle + tail, so both a promotion
  // (middle becomes head) and a join (fresh tail) leave a real chain behind.
  o.f = kamino ? 1 : 2;
  o.pool_size = 24ull << 20;
  o.log_region_size = 4ull << 20;
  o.one_way_latency_us = 5;
  o.client_timeout_ms = 5'000;
  return o;
}

uint64_t EnvStride() {
  const char* s = std::getenv("KAMINO_CRASH_POINT_STRIDE");
  if (s == nullptr || *s == '\0') {
    return 1;
  }
  const uint64_t v = std::strtoull(s, nullptr, 10);
  return v == 0 ? 1 : v;
}

void InstallOn(chain::Replica* r, nvm::PersistenceObserver* obs) {
  ASSERT_NE(r, nullptr);
  ASSERT_NE(r->pool(), nullptr);
  r->pool()->SetPersistenceObserver(obs);
  if (r->backup_pool() != nullptr) {
    r->backup_pool()->SetPersistenceObserver(obs);
  }
}

void UninstallFrom(chain::Replica* r) {
  ASSERT_NE(r, nullptr);
  if (r->pool() != nullptr) {
    r->pool()->SetPersistenceObserver(nullptr);
  }
  if (r->backup_pool() != nullptr) {
    r->backup_pool()->SetPersistenceObserver(nullptr);
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

// Quiesced workload: every op is acknowledged and fully settled before the
// next, so the model is exactly the acked set and no persistence event of
// the workload bleeds into the armed view-change window.
// With `idle` set, each op also waits for that replica's applier to finish,
// so no op starts there while the previous one is still being applied.
std::map<uint64_t, std::string> RunWorkload(chain::Chain* chain,
                                            chain::Replica* idle = nullptr) {
  std::map<uint64_t, std::string> model;
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t key = 1 + (i * 7) % 5;
    const std::string value = "op-" + std::to_string(i);
    EXPECT_TRUE(chain->Upsert(key, value).ok()) << "op " << i;
    model[key] = value;
    EXPECT_TRUE(chain->Quiesce().ok());
    if (idle != nullptr) {
      idle->manager()->WaitIdle();
    }
  }
  return model;
}

std::set<std::string> SitesIn(const std::vector<CrashScheduler::EventRecord>& trace) {
  std::set<std::string> sites;
  for (const auto& ev : trace) {
    sites.insert(ev.site);
  }
  return sites;
}

// --- Promotion sweep --------------------------------------------------------
//
// Power-fail the promoting candidate (the middle that becomes head after the
// head fail-stops) at every persistence event of PromoteToHead, then reboot
// it. QuickReboot must observe the durable promotion cursor short of
// HeadComplete and resume the takeover; every step is idempotent, so the
// chain converges on the acked model regardless of which site lost power.

void SweepPromotion(bool kamino) {
  CrashScheduler scheduler;
  const uint64_t stride = EnvStride();

  // Count pass: discover the promotion's persistence-event space.
  std::vector<CrashScheduler::EventRecord> coords;
  {
    auto chain = chain::Chain::Create(Opts(kamino)).value();
    const uint64_t head_id = chain->current_view().head();
    const uint64_t cand_id = chain->current_view().nodes[1];
    RunWorkload(chain.get());
    chain::Replica* cand = chain->replica_by_id(cand_id);
    if (kamino) {
      // Pre-create the full-size backup pool the promotion will populate, so
      // the observer sees its persists too (EnsureBackupPool is idempotent —
      // CompletePromotion keeps a pre-sized pool).
      ASSERT_TRUE(cand->EnsureBackupPool(/*force_full=*/true).ok());
    }
    InstallOn(cand, &scheduler);
    scheduler.ArmCounting();
    ASSERT_TRUE(chain->KillReplica(head_id).ok());
    scheduler.Disarm();
    coords = scheduler.trace();
    UninstallFrom(cand);
  }
  ASSERT_FALSE(coords.empty()) << "promotion produced no persistence events?";
  const std::set<std::string> sites = SitesIn(coords);
  // The durable-cursor protocol must actually be in the event stream.
  EXPECT_TRUE(sites.count("chain/promote-cursor")) << "promotion cursor not persisted";
  if (kamino) {
    EXPECT_TRUE(sites.count("backup/sync-all")) << "head backup never synced";
  }

  for (uint64_t i = 0; i < coords.size(); i += stride) {
    const auto& c = coords[i];
    SCOPED_TRACE("coordinate " + std::to_string(i + 1) + "/" +
                 std::to_string(coords.size()) + ": " +
                 std::string(nvm::PersistEventKindName(c.kind)) + " @" + c.site +
                 " occurrence " + std::to_string(c.occurrence));

    auto chain = chain::Chain::Create(Opts(kamino)).value();
    const uint64_t head_id = chain->current_view().head();
    const uint64_t cand_id = chain->current_view().nodes[1];
    std::map<uint64_t, std::string> model = RunWorkload(chain.get());
    chain::Replica* cand = chain->replica_by_id(cand_id);
    if (kamino) {
      ASSERT_TRUE(cand->EnsureBackupPool(/*force_full=*/true).ok());
    }
    InstallOn(cand, &scheduler);
    scheduler.ArmInjectionAtSite(c.kind, c.site, c.occurrence);

    // The promotion "succeeds" volatile: vetoed persists do not change
    // control flow (the CPU outlives the NVDIMM).
    ASSERT_TRUE(chain->KillReplica(head_id).ok());
    EXPECT_TRUE(scheduler.crashed()) << "count-pass coordinate did not fire";

    scheduler.Disarm();
    UninstallFrom(cand);

    // Power-cycle the candidate: volatile state gone, pools rewound to the
    // durable prefix. QuickReboot sees cursor != HeadComplete and re-runs
    // the takeover (or, if the crash landed after the HeadComplete stamp
    // drained, recovers engine-locally from the now-trusted backup).
    ASSERT_TRUE(chain->RebootReplica(cand_id).ok());
    EXPECT_EQ(cand->view_cursor(), chain::kViewCursorHeadComplete);

    // Zero acked-op loss, exactly-once: every acked op present once, on
    // every surviving replica.
    ExpectConverged(chain.get(), model);

    // The re-promoted chain must still accept writes.
    ASSERT_TRUE(chain->Upsert(100, "post-viewchange").ok());
    model[100] = "post-viewchange";
    ExpectConverged(chain.get(), model);
  }
}

TEST(CrashPointViewChange, PromotionPowerFailureAtEverySiteKamino) {
  SweepPromotion(/*kamino=*/true);
}

TEST(CrashPointViewChange, PromotionPowerFailureAtEverySiteUndoLog) {
  SweepPromotion(/*kamino=*/false);
}

// --- Join sweep -------------------------------------------------------------
//
// Power-fail the joining tail at every persistence event of the state
// transfer (invalidate -> body -> superblock commit), then power-cycle it and
// RetryJoin. Until the superblock page persists the transferred image is
// unattachable by construction, so a retry always restarts from a clean
// re-transfer; after it persists the image is complete and the retry is a
// no-op transfer of the same bytes. Either way: full-strength chain, zero
// acked-op loss.

void SweepJoin(bool kamino) {
  CrashScheduler scheduler;
  const uint64_t stride = EnvStride();
  const size_t full_strength = 3;

  // Count pass.
  std::vector<CrashScheduler::EventRecord> coords;
  {
    auto chain = chain::Chain::Create(Opts(kamino)).value();
    RunWorkload(chain.get());
    const uint64_t tail_id = chain->current_view().nodes.back();
    ASSERT_TRUE(chain->KillReplica(tail_id).ok());
    ASSERT_TRUE(chain->Quiesce().ok());
    const uint64_t jid = chain->PrepareJoiningReplica().value();
    InstallOn(chain->replica_by_id(jid), &scheduler);
    scheduler.ArmCounting();
    ASSERT_TRUE(chain->CompleteJoin(jid).ok());
    scheduler.Disarm();
    coords = scheduler.trace();
    UninstallFrom(chain->replica_by_id(jid));
  }
  ASSERT_FALSE(coords.empty()) << "join produced no persistence events?";
  const std::set<std::string> sites = SitesIn(coords);
  EXPECT_TRUE(sites.count("chain/join-invalidate")) << "stale image never fenced";
  EXPECT_TRUE(sites.count("chain/state-transfer")) << "transfer body not persisted";
  EXPECT_TRUE(sites.count("chain/join-commit")) << "join has no commit point";

  for (uint64_t i = 0; i < coords.size(); i += stride) {
    const auto& c = coords[i];
    SCOPED_TRACE("coordinate " + std::to_string(i + 1) + "/" +
                 std::to_string(coords.size()) + ": " +
                 std::string(nvm::PersistEventKindName(c.kind)) + " @" + c.site +
                 " occurrence " + std::to_string(c.occurrence));

    auto chain = chain::Chain::Create(Opts(kamino)).value();
    std::map<uint64_t, std::string> model = RunWorkload(chain.get());
    const uint64_t tail_id = chain->current_view().nodes.back();
    ASSERT_TRUE(chain->KillReplica(tail_id).ok());
    ASSERT_TRUE(chain->Quiesce().ok());

    const uint64_t jid = chain->PrepareJoiningReplica().value();
    chain::Replica* joiner = chain->replica_by_id(jid);
    InstallOn(joiner, &scheduler);
    scheduler.ArmInjectionAtSite(c.kind, c.site, c.occurrence);

    // The join "succeeds" volatile past the crash point.
    ASSERT_TRUE(chain->CompleteJoin(jid).ok());
    EXPECT_TRUE(scheduler.crashed()) << "count-pass coordinate did not fire";
    scheduler.Disarm();

    // Power-cycle the joiner and re-run the join from scratch.
    ASSERT_TRUE(chain->RetryJoin(jid).ok());
    UninstallFrom(joiner);

    EXPECT_EQ(chain->current_view().nodes.size(), full_strength);
    ExpectConverged(chain.get(), model);
    ASSERT_TRUE(chain->Upsert(100, "post-join").ok());
    model[100] = "post-join";
    ExpectConverged(chain.get(), model);
  }
}

TEST(CrashPointViewChange, JoinPowerFailureAtEverySiteKamino) {
  SweepJoin(/*kamino=*/true);
}

TEST(CrashPointViewChange, JoinPowerFailureAtEverySiteUndoLog) {
  SweepJoin(/*kamino=*/false);
}

// --- Promotion with an incomplete transaction (neighbour roll-back) ---------
//
// Figure 9's "new head" case: the candidate itself lost power mid-apply, so
// its resumed promotion finds an incomplete transaction in the log and must
// roll it back from the successor's older object state before building the
// backup. Sweep power failures across THAT resolution too: the first reboot's
// promotion is power-failed at each site, and a second reboot must finish.
//
// The victim op is never acknowledged (the client times out while the
// candidate is fenced), so exactly-once here means: the op's key is absent
// on every replica after convergence.

TEST(CrashPointViewChange, PromotionWithIncompleteTxnPowerFailureAtEverySite) {
  CrashScheduler scheduler;
  const uint64_t stride = EnvStride();

  chain::ChainOptions opts = Opts(/*kamino=*/true);
  // The staging write must fail fast: the candidate is fenced mid-apply, so
  // the client can only time out.
  opts.client_timeout_ms = 1'000;
  opts.client_retry_base_ms = 250;

  // Stages the scenario up to the point where the candidate is a powered-off
  // mid-apply casualty and the old head is fenced out of the view. Returns
  // the model of acked ops (the stuck op is NOT in it).
  auto stage = [&](chain::Chain* chain, uint64_t* cand_id_out)
      -> std::map<uint64_t, std::string> {
    std::map<uint64_t, std::string> model = RunWorkload(chain);
    const uint64_t head_id = chain->current_view().head();
    const uint64_t cand_id = chain->current_view().nodes[1];
    chain::Replica* cand = chain->replica_by_id(cand_id);
    EXPECT_TRUE(cand->EnsureBackupPool(/*force_full=*/true).ok());

    // One more write dies inside the candidate's apply: the commit marker
    // may be durable but the transaction is incomplete, and the node drops
    // off the network (CPU halt) so the op is never acknowledged.
    cand->ArmCrashDuringNextApply();
    EXPECT_FALSE(chain->Upsert(9, "never-acked").ok());

    // The head fails too. Excise it from the view and fence it; the
    // candidate is down, so the promotion can only happen when it reboots.
    chain->membership()->ReportFailure(head_id);
    chain->replica_by_id(head_id)->CrashStop();
    *cand_id_out = cand_id;
    return model;
  };

  // Count pass: the first reboot resumes into a promotion that must resolve
  // the incomplete transaction from the successor.
  std::vector<CrashScheduler::EventRecord> coords;
  {
    auto chain = chain::Chain::Create(opts).value();
    uint64_t cand_id = 0;
    std::map<uint64_t, std::string> model = stage(chain.get(), &cand_id);
    chain::Replica* cand = chain->replica_by_id(cand_id);
    InstallOn(cand, &scheduler);
    scheduler.ArmCounting();
    ASSERT_TRUE(chain->RebootReplica(cand_id).ok());
    scheduler.Disarm();
    coords = scheduler.trace();
    UninstallFrom(cand);
    // Sanity: this really was the incomplete-txn path.
    EXPECT_TRUE(SitesIn(coords).count("chain/neighbour-repair"))
        << "staging did not reach neighbour resolution";
    EXPECT_EQ(cand->view_cursor(), chain::kViewCursorHeadComplete);
    ExpectConverged(chain.get(), model);
    // Exactly-once for the unacked op: rolled back everywhere (already
    // implied by CountSlow == model.size(), stated explicitly here).
    for (uint64_t id : chain->current_view().nodes) {
      EXPECT_FALSE(chain->replica_by_id(id)->tree()->Get(9).ok()) << "replica " << id;
    }
  }
  ASSERT_FALSE(coords.empty());

  for (uint64_t i = 0; i < coords.size(); i += stride) {
    const auto& c = coords[i];
    SCOPED_TRACE("coordinate " + std::to_string(i + 1) + "/" +
                 std::to_string(coords.size()) + ": " +
                 std::string(nvm::PersistEventKindName(c.kind)) + " @" + c.site +
                 " occurrence " + std::to_string(c.occurrence));

    auto chain = chain::Chain::Create(opts).value();
    uint64_t cand_id = 0;
    std::map<uint64_t, std::string> model = stage(chain.get(), &cand_id);
    chain::Replica* cand = chain->replica_by_id(cand_id);
    InstallOn(cand, &scheduler);
    scheduler.ArmInjectionAtSite(c.kind, c.site, c.occurrence);

    // First reboot: resumes the promotion and loses power again at the
    // coordinate (volatile success past it).
    ASSERT_TRUE(chain->RebootReplica(cand_id).ok());
    EXPECT_TRUE(scheduler.crashed()) << "count-pass coordinate did not fire";
    scheduler.Disarm();
    UninstallFrom(cand);

    // Second reboot finishes whatever durably remains of the takeover.
    ASSERT_TRUE(chain->RebootReplica(cand_id).ok());
    EXPECT_EQ(cand->view_cursor(), chain::kViewCursorHeadComplete);

    ExpectConverged(chain.get(), model);
    for (uint64_t id : chain->current_view().nodes) {
      EXPECT_FALSE(chain->replica_by_id(id)->tree()->Get(9).ok()) << "replica " << id;
    }
    ASSERT_TRUE(chain->Upsert(100, "post-rollback").ok());
    model[100] = "post-rollback";
    ExpectConverged(chain.get(), model);
  }
}

// --- Negative controls ------------------------------------------------------
//
// The sweep's guarantees rest on two persists actually happening; a broken
// engine that "forgets" either must be caught. Site suppression models the
// missing barrier without touching production code.

// (a) Promotion cursor never persisted: after a power cycle the durable
// cursor still reads its pre-promotion value, i.e. the trust attestation is
// missing and the node correctly refuses to trust its half-built backup —
// the violation is DETECTED, and a reboot re-runs the promotion wholesale.
TEST(CrashPointViewChange, SuppressedPromoteCursorPersistIsDetected) {
  CrashScheduler scheduler;
  auto chain = chain::Chain::Create(Opts(/*kamino=*/true)).value();
  const uint64_t head_id = chain->current_view().head();
  const uint64_t cand_id = chain->current_view().nodes[1];
  std::map<uint64_t, std::string> model = RunWorkload(chain.get());
  chain::Replica* cand = chain->replica_by_id(cand_id);
  ASSERT_TRUE(cand->EnsureBackupPool(/*force_full=*/true).ok());
  InstallOn(cand, &scheduler);

  scheduler.ArmCounting();
  scheduler.SuppressSite("chain/promote-cursor", nvm::PersistEventKind::kFlush);
  ASSERT_TRUE(chain->KillReplica(head_id).ok());
  scheduler.Disarm();
  bool saw_suppressed = false;
  for (const auto& ev : scheduler.trace()) {
    saw_suppressed |= ev.suppressed && ev.site == "chain/promote-cursor";
  }
  ASSERT_TRUE(saw_suppressed) << "suppression never matched the cursor persist";
  UninstallFrom(cand);

  // Power cycle: the volatile promotion is gone; without the cursor persist
  // the durable image carries NO trust attestation. That is the detection:
  // a fresh boot would re-run the takeover instead of trusting the backup.
  cand->CrashStop();
  ASSERT_TRUE(cand->pool()->Crash().ok());
  ASSERT_TRUE(cand->backup_pool()->Crash().ok());
  EXPECT_NE(cand->view_cursor(), chain::kViewCursorHeadComplete)
      << "durability violation went undetected: cursor persisted despite "
         "the suppressed barrier";

  // And the re-run takeover completes the job.
  ASSERT_TRUE(chain->RebootReplica(cand_id).ok());
  EXPECT_EQ(cand->view_cursor(), chain::kViewCursorHeadComplete);
  ExpectConverged(chain.get(), model);

  // Positive twin: with the barrier intact, the attestation survives the
  // same power cycle.
  {
    auto chain2 = chain::Chain::Create(Opts(/*kamino=*/true)).value();
    const uint64_t head2 = chain2->current_view().head();
    const uint64_t cand2_id = chain2->current_view().nodes[1];
    RunWorkload(chain2.get());
    chain::Replica* cand2 = chain2->replica_by_id(cand2_id);
    ASSERT_TRUE(chain2->KillReplica(head2).ok());
    cand2->CrashStop();
    ASSERT_TRUE(cand2->pool()->Crash().ok());
    if (cand2->backup_pool() != nullptr) {
      ASSERT_TRUE(cand2->backup_pool()->Crash().ok());
    }
    EXPECT_EQ(cand2->view_cursor(), chain::kViewCursorHeadComplete);
  }
}

// (b) Backup SyncAll never persisted while the cursor still stamps
// HeadComplete: the durable state now LIES — the cursor attests a built
// backup whose bytes are not there. An offline audit comparing the main and
// backup data regions exposes the divergence; the positive twin shows the
// same audit is clean when the barrier is honoured.

// Byte-compares the data regions (everything past the intent log) of a
// replica's main and backup pools, ignoring the 8-byte view-cursor word
// (main reads HeadComplete; the backup's copy was synced while the cursor
// still read Promoting). Returns the number of differing bytes.
uint64_t DataRegionDivergence(chain::Replica* r) {
  const uint64_t begin = r->heap()->log_region_offset() + r->heap()->log_region_size();
  const uint64_t end = r->pool()->size();
  const uint64_t cursor_off =
      r->heap()->root() + offsetof(chain::ChainAnchor, view_cursor);
  const uint8_t* main = r->pool()->base();
  const uint8_t* backup = r->backup_pool()->base();
  uint64_t diff = 0;
  for (uint64_t off = begin; off < end; ++off) {
    if (off >= cursor_off && off < cursor_off + sizeof(uint64_t)) {
      continue;
    }
    diff += main[off] != backup[off];
  }
  return diff;
}

TEST(CrashPointViewChange, SuppressedBackupSyncPersistViolatesTrustContract) {
  CrashScheduler scheduler;

  auto run = [&](bool suppress) -> uint64_t {
    auto chain = chain::Chain::Create(Opts(/*kamino=*/true)).value();
    const uint64_t head_id = chain->current_view().head();
    const uint64_t cand_id = chain->current_view().nodes[1];
    RunWorkload(chain.get());
    chain::Replica* cand = chain->replica_by_id(cand_id);
    EXPECT_TRUE(cand->EnsureBackupPool(/*force_full=*/true).ok());
    InstallOn(cand, &scheduler);
    scheduler.ArmCounting();
    if (suppress) {
      scheduler.SuppressSite("backup/sync-all", nvm::PersistEventKind::kFlush);
    }
    EXPECT_TRUE(chain->KillReplica(head_id).ok());
    scheduler.Disarm();
    UninstallFrom(cand);

    // Power cycle, then audit what the durable image claims vs holds.
    cand->CrashStop();
    EXPECT_TRUE(cand->pool()->Crash().ok());
    EXPECT_TRUE(cand->backup_pool()->Crash().ok());
    EXPECT_EQ(cand->view_cursor(), chain::kViewCursorHeadComplete)
        << "cursor should persist either way: only SyncAll was suppressed";
    return DataRegionDivergence(cand);
  };

  const uint64_t clean = run(/*suppress=*/false);
  EXPECT_EQ(clean, 0u) << "honest promotion: backup must mirror main";

  const uint64_t broken = run(/*suppress=*/true);
  EXPECT_GT(broken, 0u)
      << "trust-contract violation went undetected: cursor attests a backup "
         "whose bytes never persisted";
}

// --- Committed-only log promotion (regression) ------------------------------
//
// A rebooting sole survivor whose log holds only COMMITTED transactions must
// promote without a neighbour: committed slots resolve locally (deferred
// frees + release). The old code routed ANY non-empty scan through the
// neighbour fetch, which cannot work when no successor remains.
TEST(CrashPointViewChange, CommittedOnlyLogPromotionResolvesLocally) {
  CrashScheduler scheduler;

  chain::ChainOptions opts = Opts(/*kamino=*/true);
  opts.f = 0;  // Two replicas: head + tail. Killing the head leaves ONE node.
  auto chain = chain::Chain::Create(opts).value();
  const uint64_t head_id = chain->current_view().head();
  const uint64_t tail_id = chain->current_view().nodes.back();
  chain::Replica* tail = chain->replica_by_id(tail_id);

  // Suppress the tail's slot releases for the whole workload: every op
  // commits durably but its release never persists, so the power-cycled log
  // is full of committed (never incomplete) transactions. The tail's applier
  // goes idle after every op: otherwise the next op can take a different
  // slot while the previous one is still being released, leaving a stale
  // Committed slot whose kFree targets a blob a later op reallocates — and
  // re-running that free at reboot would free a live blob. The lost-flush
  // model is the test's, not the program's (a reservation is released only
  // after its Free header is durable), so the test quiesces instead.
  InstallOn(tail, &scheduler);
  scheduler.ArmCounting();
  scheduler.SuppressSite("log/release-slot", nvm::PersistEventKind::kFlush);
  std::map<uint64_t, std::string> model = RunWorkload(chain.get(), tail);
  scheduler.Disarm();
  UninstallFrom(tail);

  // Head dies; the tail is the sole survivor and reboots into a resumed
  // promotion with no successor to lean on.
  chain->membership()->ReportFailure(head_id);
  chain->replica_by_id(head_id)->CrashStop();
  ASSERT_TRUE(chain->RebootReplica(tail_id).ok())
      << "committed-only log must resolve locally, not demand a neighbour";
  EXPECT_EQ(tail->view_cursor(), chain::kViewCursorHeadComplete);

  ExpectConverged(chain.get(), model);
  ASSERT_TRUE(chain->Upsert(100, "post-solo-promotion").ok());
  model[100] = "post-solo-promotion";
  ExpectConverged(chain.get(), model);
}

// --- Inherited-trust drop on join -------------------------------------------
//
// A tail joining behind a HEAD (two-node chain) receives a state-transfer
// image carrying the head's HeadComplete cursor. The joiner has no backup,
// so it must durably drop that inherited attestation: a later promotion
// crash on the joiner must never trust a backup it never built.
TEST(CrashPointViewChange, JoinDropsInheritedPromotionCursor) {
  chain::ChainOptions opts = Opts(/*kamino=*/true);
  opts.f = 0;  // Head + tail; the joiner's transfer source is the head.
  auto chain = chain::Chain::Create(opts).value();
  std::map<uint64_t, std::string> model = RunWorkload(chain.get());

  const uint64_t tail_id = chain->current_view().nodes.back();
  ASSERT_TRUE(chain->KillReplica(tail_id).ok());
  ASSERT_TRUE(chain->Quiesce().ok());

  const uint64_t jid = chain->PrepareJoiningReplica().value();
  ASSERT_TRUE(chain->CompleteJoin(jid).ok());
  chain::Replica* joiner = chain->replica_by_id(jid);

  // The transfer source (the head) stamps HeadComplete; the joined image
  // must not carry it.
  EXPECT_EQ(joiner->view_cursor(), chain::kViewCursorNone)
      << "joiner inherited the predecessor's backup-trust attestation";
  ExpectConverged(chain.get(), model);
}

}  // namespace
}  // namespace kamino::testing
