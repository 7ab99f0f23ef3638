// chaos_test.cpp — the deterministic chaos harness end to end: schedule
// generation (pure function of topology+profile+seed), the cross-layer
// audit core::check() (clean deployments audit clean; planted divergences
// are named), the sabotage acceptance path (a deliberately skipped recovery
// audit is found, shrunk to a minimal repro, and replays byte-identically
// from its artifact), deadline-budgeted call-setup retry in UserLib, and
// the FaultPlan misuse contract.
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/chaos.hpp"
#include "chaos/runner.hpp"
#include "core/apps.hpp"
#include "core/audit.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"

namespace xunet {
namespace {

using chaos::ChaosCase;
using chaos::ChaosEvent;
using chaos::ChaosProfile;
using chaos::ChaosSchedule;
using core::Violation;

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&rule](const Violation& v) { return v.rule == rule; });
}

// ----------------------------------------------------- schedule generation

TEST(ChaosSchedule, SameSeedSameSchedule) {
  ChaosProfile p;
  const ChaosSchedule a = ChaosSchedule::generate(3, 2, p, 1234);
  const ChaosSchedule b = ChaosSchedule::generate(3, 2, p, 1234);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_TRUE(a.events == b.events);
}

TEST(ChaosSchedule, DifferentSeedsDiverge) {
  ChaosProfile p;
  bool diverged = false;
  const ChaosSchedule base = ChaosSchedule::generate(3, 2, p, 1);
  for (std::uint64_t seed = 2; seed <= 6 && !diverged; ++seed) {
    diverged = !(ChaosSchedule::generate(3, 2, p, seed).events == base.events);
  }
  EXPECT_TRUE(diverged);
}

TEST(ChaosSchedule, EventsRespectProfileWindows) {
  ChaosProfile p;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ChaosSchedule s = ChaosSchedule::generate(4, 3, p, seed);
    for (const ChaosEvent& e : s.events) {
      EXPECT_LT(e.at.ns(), p.horizon.ns()) << "seed " << seed;
      EXPECT_LE((e.at + e.duration).ns(), p.heal_by.ns()) << "seed " << seed;
      EXPECT_GE(e.probability, 0.0);
      EXPECT_LE(e.probability, 1.0);
    }
  }
}

TEST(ChaosSchedule, EventJsonRoundTripsByteIdentically) {
  ChaosProfile p;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const ChaosEvent& e : ChaosSchedule::generate(3, 2, p, seed).events) {
      const std::string line = chaos::event_json(e);
      ChaosEvent back;
      ASSERT_TRUE(chaos::event_from_json(line, back)) << line;
      EXPECT_TRUE(back == e) << line;
      EXPECT_EQ(chaos::event_json(back), line);
    }
  }
}

// --------------------------------------------- checker fixtures (planted)

// A minimal synthetic deployment snapshot that audits clean: one call,
// consistent across all four layers.
core::Snapshot consistent_snapshot() {
  core::Snapshot s;
  s.sighosts.push_back({"mh.rt", true, {}, {}, {}});
  s.sighosts.push_back({"berkeley.rt", true, {}, {}, {}});
  s.kernel_vcis.push_back({"mh.rt", "mh.rt", 40, /*bound=*/false});
  s.kernel_vcis.push_back({"berkeley.rt", "berkeley.rt", 41, /*bound=*/true});
  s.call_records.push_back({"mh.rt", 40, "mh.rt#1", true, false, "mh.rt"});
  s.call_records.push_back(
      {"berkeley.rt", 41, "mh.rt#1", true, false, "berkeley.rt"});
  s.vcs.push_back({1, "mh.rt", "berkeley.rt", 40, 41});
  s.routes_installed.push_back({"s1", 0, 40});
  s.routes_installed.push_back({"s2", 1, 40});
  s.routes_expected = s.routes_installed;
  return s;
}

core::WorkloadCounts clean_counts() {
  core::WorkloadCounts w;
  w.opened = 1;
  w.delivered = 1;
  return w;
}

TEST(InvariantChecker, ConsistentSnapshotAuditsClean) {
  const auto vs = core::check(consistent_snapshot(), clean_counts());
  EXPECT_TRUE(vs.empty()) << vs.size() << " violations, first: "
                          << (vs.empty() ? "" : vs[0].rule + " " + vs[0].detail);
}

TEST(InvariantChecker, NamesOrphanKernelVci) {
  core::Snapshot s = consistent_snapshot();
  s.kernel_vcis.push_back({"mh.rt", "mh.rt", 55, false});
  const auto vs = core::check(s, clean_counts());
  ASSERT_TRUE(has_rule(vs, core::kOrphanKernelVci));
  // The detail pinpoints the offending socket.
  const auto it = std::find_if(vs.begin(), vs.end(), [](const Violation& v) {
    return v.rule == core::kOrphanKernelVci;
  });
  EXPECT_NE(it->detail.find("vci=55"), std::string::npos) << it->detail;
}

TEST(InvariantChecker, NamesMissingKernelSocketAndOrphanRecord) {
  core::Snapshot s = consistent_snapshot();
  s.call_records.push_back({"mh.rt", 60, "mh.rt#9", true, false, "mh.rt"});
  const auto vs = core::check(s, clean_counts());
  EXPECT_TRUE(has_rule(vs, core::kMissingKernelSocket));
  EXPECT_TRUE(has_rule(vs, core::kOrphanCallRecord));
}

TEST(InvariantChecker, NamesOrphanNetworkVc) {
  core::Snapshot s = consistent_snapshot();
  s.vcs.push_back({2, "mh.rt", "berkeley.rt", 70, 71});
  const auto vs = core::check(s, clean_counts());
  EXPECT_TRUE(has_rule(vs, core::kOrphanNetworkVc));
}

TEST(InvariantChecker, NamesDanglingSwitchRoute) {
  core::Snapshot s = consistent_snapshot();
  s.routes_installed.push_back({"s1", 7, 99});
  std::sort(s.routes_installed.begin(), s.routes_installed.end());
  const auto vs = core::check(s, clean_counts());
  EXPECT_TRUE(has_rule(vs, core::kDanglingSwitchRoute));
  EXPECT_FALSE(has_rule(vs, core::kMissingSwitchRoute));
}

TEST(InvariantChecker, NamesMissingSwitchRoute) {
  core::Snapshot s = consistent_snapshot();
  s.routes_expected.push_back({"s2", 7, 99});
  std::sort(s.routes_expected.begin(), s.routes_expected.end());
  const auto vs = core::check(s, clean_counts());
  EXPECT_TRUE(has_rule(vs, core::kMissingSwitchRoute));
}

TEST(InvariantChecker, NamesDoubleListedCall) {
  core::Snapshot s = consistent_snapshot();
  s.sighosts[0].outgoing_calls.push_back("mh.rt#2");
  s.sighosts[0].incoming_calls.push_back("mh.rt#2");
  const auto vs = core::check(s, clean_counts());
  EXPECT_TRUE(has_rule(vs, core::kDoubleListedCall));
}

TEST(InvariantChecker, NamesConservationAndLivenessBreaches) {
  core::WorkloadCounts w;
  w.opened = 3;
  w.delivered = 1;
  w.unresolved = 1;  // 1 open vanished entirely: conservation AND liveness
  auto vs = core::check(consistent_snapshot(), w);
  EXPECT_TRUE(has_rule(vs, core::kCallConservation));
  EXPECT_TRUE(has_rule(vs, core::kLiveness));

  w.failed = 1;  // now conserved, but still unresolved at quiescence
  vs = core::check(consistent_snapshot(), w);
  EXPECT_FALSE(has_rule(vs, core::kCallConservation));
  EXPECT_TRUE(has_rule(vs, core::kLiveness));

  core::WorkloadCounts multi = clean_counts();
  multi.multi_fired = 1;
  vs = core::check(consistent_snapshot(), multi);
  EXPECT_TRUE(has_rule(vs, core::kCallConservation));
}

TEST(InvariantChecker, CrashedSighostSuspendsItsAudits) {
  core::Snapshot s = consistent_snapshot();
  s.sighosts[0].alive = false;
  // Its call records are unknowable, not violations...
  s.call_records.erase(s.call_records.begin());
  const auto vs = core::check(s, clean_counts());
  EXPECT_FALSE(has_rule(vs, core::kOrphanKernelVci));
  EXPECT_FALSE(has_rule(vs, core::kOrphanNetworkVc));
  // ...but a sighost still down at quiescence is itself a liveness breach.
  EXPECT_TRUE(has_rule(vs, core::kLiveness));
}

TEST(InvariantChecker, ReservationLedgerWithinCapacityAuditsClean) {
  core::Snapshot s = consistent_snapshot();
  s.reservations.push_back({"s1", 0, 1'000'000, 45'000'000});
  s.reservations.push_back({"s1", 1, 45'000'000, 45'000'000});  // exactly full
  s.reservations.push_back({"s2", 0, 5'000'000, 0});  // no output link: skip
  const auto vs = core::check(s, clean_counts());
  EXPECT_FALSE(has_rule(vs, core::kQosOvercommit));
}

TEST(InvariantChecker, NamesQosOvercommit) {
  core::Snapshot s = consistent_snapshot();
  s.reservations.push_back({"s1", 2, 46'000'000, 45'000'000});
  const auto vs = core::check(s, clean_counts());
  ASSERT_TRUE(has_rule(vs, core::kQosOvercommit));
  const auto it = std::find_if(vs.begin(), vs.end(), [](const Violation& v) {
    return v.rule == core::kQosOvercommit;
  });
  EXPECT_NE(it->detail.find("sw=s1"), std::string::npos) << it->detail;
  EXPECT_NE(it->detail.find("port=2"), std::string::npos) << it->detail;
}

TEST(InvariantChecker, OverreserveSabotageSeamIsCaughtEndToEnd) {
  // Self-test of the conservation rule against a LIVE deployment, not a
  // hand-edited snapshot: corrupt one switch's bandwidth ledger through the
  // debug seam and the audit must name it; the same deployment untouched
  // must audit clean.  This is what keeps the rule honest — it proves
  // capture() really reads the switches, not a cached expectation.
  auto tb = core::TestbedConfig{}.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  tb->sim().run_for(sim::milliseconds(500));

  const auto before = core::check(core::capture(*tb), core::WorkloadCounts{});
  EXPECT_FALSE(has_rule(before, core::kQosOvercommit));

  atm::AtmSwitch* sw = tb->network().switch_by_name("s1");
  ASSERT_NE(sw, nullptr);
  // Find a port with an output link and push its ledger past capacity.
  int port = -1;
  for (int p = 0; p < sw->port_count(); ++p) {
    if (sw->output_rate_bps(p) > 0) {
      port = p;
      break;
    }
  }
  ASSERT_GE(port, 0) << "testbed switch has no output links";
  sw->debug_overreserve(port, sw->output_rate_bps(port) + 1);

  const auto after = core::check(core::capture(*tb), core::WorkloadCounts{});
  EXPECT_TRUE(has_rule(after, core::kQosOvercommit));
}

// ------------------------------------------------------- end-to-end runs

TEST(ChaosRun, FixedSeedsAuditCleanOnHealthyDeployment) {
  for (std::uint64_t seed : {3u, 11u}) {
    ChaosCase c;
    c.routers = 2;
    c.calls = 6;
    c.seed = seed;
    const chaos::RunOutcome o = chaos::run_case(c);
    EXPECT_TRUE(o.violations.empty())
        << "seed " << seed << ": " << o.violations.size()
        << " violations, first: " << o.violations[0].rule << " "
        << o.violations[0].detail;
    EXPECT_EQ(o.workload.opened,
              o.workload.delivered + o.workload.failed);
  }
}

// Regression for two real recovery bugs honest chaos sweeps surfaced:
//  * seed 1: the post-restart sighost restarted its req-id counter at 1 and
//    re-minted call keys ("mh.rt#2") its previous life's recovered calls
//    still carry in the peer — a timeout on the NEW call then tore the OLD
//    call's record out of the peer, orphaning its network VC.  Fixed by
//    incarnation-partitioned request ids (Kernel::next_sighost_incarnation).
//  * seed 24: overlapping double crash — the peer's recovery grace expired
//    while we were down and tore the VCs, so our own restart's audit found
//    bound kernel sockets with no VC and left them bound forever.  Fixed by
//    recover() disconnecting socket-without-VC orphans (the join's third
//    case).
// Both seeds must now audit clean with double crash/restarts allowed.
TEST(ChaosRun, HonestDoubleCrashSeedsAuditClean) {
  for (std::uint64_t seed : {1u, 24u}) {
    ChaosCase c;
    c.routers = 2;
    c.calls = 6;
    c.seed = seed;
    c.profile.max_crash_restarts = 2;
    const chaos::RunOutcome o = chaos::run_case(c);
    EXPECT_TRUE(o.violations.empty())
        << "seed " << seed << ": " << o.violations.size()
        << " violations, first: " << o.violations[0].rule << " "
        << o.violations[0].detail;
  }
}

TEST(ChaosRun, SameSeedReproducesByteIdentically) {
  ChaosCase c;
  c.routers = 2;
  c.calls = 4;
  c.seed = 5;
  const chaos::RunOutcome a = chaos::run_case(c);
  const chaos::RunOutcome b = chaos::run_case(c);
  EXPECT_EQ(chaos::to_artifact(c, a.schedule.events, a),
            chaos::to_artifact(c, b.schedule.events, b));
}

// The acceptance path: a deliberately sabotaged recovery audit (sighost
// skips its kernel/network cross-check after restart) must be FOUND by the
// chaos runner within the seed budget, SHRUNK to a minimal schedule, and
// the emitted artifact must REPLAY the identical violation byte-for-byte.
TEST(ChaosAcceptance, SabotagedRecoveryAuditIsFoundShrunkAndReplayed) {
  ChaosCase c;
  c.routers = 2;
  c.calls = 6;
  c.sabotage_skip_audit = true;
  c.profile.max_crash_restarts = 2;  // bias schedules toward crash coverage

  chaos::RunOutcome failing;
  std::uint64_t found_seed = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    c.seed = seed;
    chaos::RunOutcome o = chaos::run_case(c);
    if (!o.violations.empty()) {
      failing = std::move(o);
      found_seed = seed;
      break;
    }
  }
  ASSERT_NE(found_seed, 0u)
      << "no seed in budget surfaced the sabotaged audit";
  c.seed = found_seed;
  // The sabotage leaves pre-crash state orphaned across layers.
  EXPECT_TRUE(has_rule(failing.violations, core::kOrphanKernelVci) ||
              has_rule(failing.violations, core::kOrphanNetworkVc))
      << failing.violations[0].rule << " " << failing.violations[0].detail;
  EXPECT_FALSE(failing.post_mortem.empty());

  // Shrink to a minimal repro: the crash/restart pair alone should suffice.
  const chaos::ShrinkResult shrunk = chaos::shrink(c, failing);
  ASSERT_FALSE(shrunk.minimal.empty());
  EXPECT_LE(shrunk.minimal.size(), 3u);
  const chaos::RunOutcome minimal_run = chaos::run_events(c, shrunk.minimal);
  ASSERT_TRUE(has_rule(minimal_run.violations, shrunk.rule));

  // The artifact replays byte-identically from (topology, workload, seed).
  const std::string artifact =
      chaos::to_artifact(c, shrunk.minimal, minimal_run);
  const chaos::ReplayResult replay = chaos::replay_artifact(artifact);
  ASSERT_TRUE(replay.parsed);
  EXPECT_EQ(replay.artifact, artifact);
  EXPECT_TRUE(replay.outcome.violations == minimal_run.violations);

  // Same seed without the sabotage: recovery's audit closes the gap, so
  // the very schedule that failed now passes — the checker keyed on the
  // sabotage, not on the faults.
  c.sabotage_skip_audit = false;
  const chaos::RunOutcome honest = chaos::run_events(c, shrunk.minimal);
  EXPECT_FALSE(has_rule(honest.violations, shrunk.rule))
      << honest.violations[0].detail;
}

// ------------------------------------------------- UserLib retry budget

struct RetryRig {
  std::unique_ptr<core::Testbed> tb;
  std::unique_ptr<core::CallServer> server;
  std::unique_ptr<core::CallClient> client;

  explicit RetryRig(core::TestbedConfig cfg = {}) {
    cfg.kernel.fd_table_size = 256;
    cfg.sighost.request_timeout = sim::seconds(3);
    tb = cfg.routers(2).pvc_mesh().build();
    auto& r1 = tb->router(1);
    server = std::make_unique<core::CallServer>(
        *r1.kernel, r1.kernel->ip_node().address(), "svc", 6200);
    server->start([](util::Result<void>) {});
    client = std::make_unique<core::CallClient>(
        *tb->router(0).kernel, tb->router(0).kernel->ip_node().address());
    tb->sim().run_for(sim::milliseconds(300));
  }
};

TEST(UserLibRetry, DeadlineBudgetSurvivesSighostOutage) {
  RetryRig rig;
  fault::FaultPlan plan(*rig.tb, 77);
  plan.crash_sighost_at(sim::milliseconds(300), 1);
  plan.restart_sighost_at(sim::milliseconds(1800), 1);
  plan.arm();

  int ok = 0, failed = 0, fired = 0;
  rig.tb->sim().schedule(sim::milliseconds(500), [&] {
    app::OpenOptions opts;
    opts.deadline = sim::seconds(12);
    rig.client->open("berkeley.rt", "svc", "", opts,
                     [&](util::Result<core::CallClient::Call> r) {
                       ++fired;
                       r.ok() ? ++ok : ++failed;
                     });
  });
  rig.tb->sim().run_for(sim::seconds(20));
  EXPECT_EQ(fired, 1);
  // The outage window rejects or strands the first attempts; the budget
  // must carry the call through to the restarted sighost.
  EXPECT_EQ(ok, 1) << "failed=" << failed;
}

TEST(UserLibRetry, ExhaustedDeadlineFailsExactlyOnce) {
  RetryRig rig;
  fault::FaultPlan plan(*rig.tb, 78);
  plan.crash_sighost_at(sim::milliseconds(200), 0);  // never restarted
  plan.arm();

  int ok = 0, failed = 0, fired = 0;
  rig.tb->sim().schedule(sim::milliseconds(400), [&] {
    app::OpenOptions opts;
    opts.deadline = sim::seconds(3);
    rig.client->open("berkeley.rt", "svc", "", opts,
                     [&](util::Result<core::CallClient::Call> r) {
                       ++fired;
                       r.ok() ? ++ok : ++failed;
                     });
  });
  rig.tb->sim().run_for(sim::seconds(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(failed, 1);
}

TEST(UserLibRetry, PermanentErrorsAreNotRetried) {
  RetryRig rig;
  int fired = 0;
  sim::SimTime resolved{};
  const sim::SimTime issued = rig.tb->sim().now();
  app::OpenOptions opts;
  opts.deadline = sim::seconds(10);
  rig.client->open("berkeley.rt", "no-such-service", "", opts,
                   [&](util::Result<core::CallClient::Call> r) {
                     ++fired;
                     EXPECT_FALSE(r.ok());
                     resolved = rig.tb->sim().now();
                   });
  rig.tb->sim().run_for(sim::seconds(12));
  ASSERT_EQ(fired, 1);
  // A definitive rejection resolves immediately; the budget is not spent.
  EXPECT_LT((resolved - issued).ns(), sim::seconds(2).ns());
}

// ------------------------------------------------- FaultPlan contract

using FaultPlanContractDeathTest = ::testing::Test;

TEST(FaultPlanContractDeathTest, DoubleArmAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto tb = core::TestbedConfig{}.routers(2).build_deferred();
  fault::FaultPlan plan(*tb, 1);
  plan.arm();
  EXPECT_TRUE(plan.armed());
  EXPECT_DEATH(plan.arm(), "FaultPlan misuse");
}

TEST(FaultPlanContractDeathTest, EventAfterArmAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto tb = core::TestbedConfig{}.routers(2).build_deferred();
  fault::FaultPlan plan(*tb, 1);
  plan.arm();
  EXPECT_DEATH(plan.at(sim::seconds(1), "late", [] {}), "FaultPlan misuse");
}

TEST(FaultPlanContract, WireRulesAddedAfterArmTakeEffect) {
  RetryRig rig;
  fault::FaultPlan plan(*rig.tb, 9);
  plan.arm();  // armed with NO rules
  plan.drop_signaling(1.0);  // documented: live rule insertion works

  int fired = 0;
  rig.client->open("berkeley.rt", "svc", "",
                   [&](util::Result<core::CallClient::Call>) { ++fired; });
  rig.tb->sim().run_for(sim::seconds(5));
  EXPECT_GT(plan.stats().dropped, 0u);
}

}  // namespace
}  // namespace xunet
