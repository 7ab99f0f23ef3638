// audit_test.cpp — the cross-layer audit (core::capture + core::check) at
// call-load scale: pathbench call_hold's shape, 10^4 calls held live over
// a six-router chain with two sighost shards per router.  Every live call
// must agree across kernel sockets, sighost lists, network VCs and switch
// routes, before and after one router's sighosts crash and recover.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/apps.hpp"
#include "core/audit.hpp"
#include "core/testbed.hpp"

namespace xunet {
namespace {

constexpr int kRouters = 6;
constexpr int kShards = 2;
constexpr int kPerPair = 2000;  ///< 5 pairs x 2000 = 10^4 live calls
constexpr std::uint64_t kCalls = (kRouters - 1) * kPerPair;

std::string describe(const std::vector<core::Violation>& vs) {
  std::string s = std::to_string(vs.size()) + " violations";
  for (std::size_t i = 0; i < vs.size() && i < 5; ++i) {
    s += "\n  " + vs[i].rule + ": " + vs[i].detail;
  }
  return s;
}

/// 10^4 calls held open with call_hold's cost config: pair p runs a client
/// on router p calling a server on router p+1, each pair opening one call
/// every 100 us, so every call crosses exactly one trunk.
struct HeldCalls {
  std::unique_ptr<core::Testbed> tb;
  std::vector<std::unique_ptr<core::CallServer>> servers;
  std::vector<std::unique_ptr<core::CallClient>> clients;
  core::WorkloadCounts counts;

  HeldCalls() {
    core::TestbedConfig cfg;
    cfg.kernel.fd_table_size = kPerPair * 2 + 2048;
    cfg.kernel.tcp_msl = sim::milliseconds(200);
    cfg.kernel.context_switch = sim::microseconds(10);
    cfg.kernel.anand_buffers = 65536;
    cfg.sighost.per_call_log_cost = sim::SimDuration{};
    cfg.sighost.maintenance_logging = false;
    cfg.sighost.max_outgoing_requests = 1u << 16;
    cfg.sighost.max_incoming_requests = 1u << 16;
    tb = cfg.routers(kRouters)
             .shards(kShards)
             .adjacent_pvc_only()
             .pvc_mesh()
             .build();
    for (std::size_t p = 0; p + 1 < kRouters; ++p) {
      core::Router& dst = tb->router(p + 1);
      servers.push_back(std::make_unique<core::CallServer>(
          *dst.kernel, dst.kernel->ip_node().address(), "hold", 5700, kShards));
      servers.back()->start([](util::Result<void>) {});
      core::Router& src = tb->router(p);
      clients.push_back(std::make_unique<core::CallClient>(
          *src.kernel, src.kernel->ip_node().address(), kShards));
    }
    tb->sim().run_for(sim::milliseconds(500));

    app::OpenOptions opts;
    opts.deadline = sim::seconds(60);
    opts.retry_backoff = sim::milliseconds(10);
    opts.retry_backoff_max = sim::milliseconds(200);
    auto on_open = [this](util::Result<core::CallClient::Call> r) {
      ++(r.ok() ? counts.delivered : counts.failed);
    };
    for (int i = 0; i < kPerPair; ++i) {
      for (std::size_t p = 0; p < clients.size(); ++p) {
        ++counts.opened;
        clients[p]->open(tb->router(p + 1).kernel->atm_address().name, "hold",
                         "", opts, on_open);
      }
      tb->sim().run_for(sim::microseconds(100));
    }
    for (int i = 0; i < 120 && resolved() < counts.opened; ++i) {
      tb->sim().run_for(sim::milliseconds(500));
    }
    tb->sim().run_for(sim::milliseconds(100));  // last binds confirm
    counts.unresolved = counts.opened - resolved();
  }

  [[nodiscard]] std::uint64_t resolved() const {
    return counts.delivered + counts.failed;
  }
};

// One rig for both checks: building 10^4 held calls dominates the cost.
TEST(CrossLayerAudit, TenThousandLiveCallsAuditCleanThroughSighostRestart) {
  HeldCalls h;
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
