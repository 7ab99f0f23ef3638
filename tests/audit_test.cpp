// audit_test.cpp — the cross-layer audit (core::capture + core::check) at
// call-load scale: pathbench call_hold's shape, 10^4 calls held live over
// a six-router chain with two sighost shards per router.  Every live call
// must agree across kernel sockets, sighost lists, network VCs and switch
// routes, before and after one router's sighosts crash and recover.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "held_calls.hpp"

namespace xunet {
namespace {

using held::HeldCalls;
using held::kCalls;
using held::kPerPair;

std::string describe(const std::vector<core::Violation>& vs) {
  std::string s = std::to_string(vs.size()) + " violations";
  for (std::size_t i = 0; i < vs.size() && i < 5; ++i) {
    s += "\n  " + vs[i].rule + ": " + vs[i].detail;
  }
  return s;
}

// One rig for both checks: building 10^4 held calls dominates the cost.
TEST(CrossLayerAudit, TenThousandLiveCallsAuditCleanThroughSighostRestart) {
  HeldCalls h;
  h.hold();
  ASSERT_EQ(h.counts.delivered, kCalls);
  {
    core::Snapshot snap = core::capture(*h.tb);
    EXPECT_EQ(snap.vcs.size(), kCalls);
    EXPECT_EQ(snap.call_records.size(), 2 * kCalls);
    EXPECT_EQ(snap.kernel_vcis.size(), 2 * kCalls);
    const auto vs = core::check(snap, h.counts);
    EXPECT_TRUE(vs.empty()) << describe(vs);

    // Plant one missing kernel socket in the copy: exactly that breach is
    // named.
    snap.kernel_vcis.erase(snap.kernel_vcis.begin() +
                           static_cast<std::ptrdiff_t>(kCalls / 2));
    const auto planted = core::check(snap, h.counts);
    ASSERT_EQ(planted.size(), 1u) << describe(planted);
    EXPECT_EQ(planted.front().rule, core::kMissingKernelSocket);
  }

  // Router 2 is the callee of pair 1 and the caller of pair 2.
  constexpr std::size_t kVictim = 2;
  h.tb->crash_sighost(kVictim);
  h.tb->sim().run_for(sim::milliseconds(500));
  ASSERT_TRUE(h.tb->restart_sighost(kVictim).ok());
  h.tb->sim().run_for(h.tb->config().sighost.resync_grace + sim::seconds(1));

  // Every one of its 2 x 2000 calls is audited back from the kernel and
  // network; nothing was dangling.
  core::Router& r = h.tb->router(kVictim);
  std::uint64_t recovered = 0;
  std::uint64_t orphans = 0;
  for (std::size_t s = 0; s < r.shard_count(); ++s) {
    recovered += r.shard(s)->stats().recovered_calls;
    orphans += r.shard(s)->stats().orphans_torn_down;
  }
  EXPECT_EQ(recovered, 2u * kPerPair);
  EXPECT_EQ(orphans, 0u);
  const auto vs = core::check(core::capture(*h.tb), h.counts);
  EXPECT_TRUE(vs.empty()) << describe(vs);
  EXPECT_EQ(h.tb->audit().network_vcs, kCalls);
}

}  // namespace
}  // namespace xunet
