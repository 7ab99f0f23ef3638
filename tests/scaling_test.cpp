// scaling_test.cpp — §10's two scaling problems, reproduced and fixed:
//  1. an 8-buffer pseudo-device loses bind indications when "a large number
//     of connections were simultaneously opened by the test workload"
//     (80 buffers are adequate);
//  2. a ~20-slot descriptor table caps simultaneous establishes because
//     closed per-call sockets linger in TIME_WAIT for 2×MSL (100 slots fix
//     it); with both fixes, 200 connections stay open between two routers.
//
// Timescale note: the experiments compress the paper's workloads into short
// simulated runs, so they scale MSL down (keeping the call-setup-rate :
// TIME_WAIT-lifetime ratio in the regime the paper describes); EXPERIMENTS.md
// records the mapping.
#include <gtest/gtest.h>

#include "core/apps.hpp"
#include "core/testbed.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;

struct BurstOutcome {
  int established = 0;
  int failed = 0;
  std::uint64_t lost_indications = 0;
  std::uint64_t bind_timeouts = 0;
};

/// Fire `burst` calls as fast as possible; each established call is held
/// for one second and then torn down (the paper's robustness workload).
BurstOutcome run_burst(core::TestbedConfig cfg, int burst,
                       sim::SimDuration settle = sim::seconds(120)) {
  auto tb = cfg.routers(2).pvc_mesh().build();
  auto& r1 = tb->router(1);
  CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "burst", 4400);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  auto client = std::make_shared<CallClient>(
      *tb->router(0).kernel, tb->router(0).kernel->ip_node().address());
  auto out = std::make_shared<BurstOutcome>();
  for (int i = 0; i < burst; ++i) {
    client->open("berkeley.rt", "burst", "",
                 [&tb, client, out](util::Result<CallClient::Call> r) {
                   if (r.ok()) {
                     ++out->established;
                     tb->sim().schedule(sim::seconds(1), [client, call = *r] {
                       client->close_call(call);
                     });
                   } else {
                     ++out->failed;
                   }
                 });
  }
  tb->sim().run_for(settle);
  out->lost_indications = tb->router(0).kernel->anand().dropped() +
                          tb->router(1).kernel->anand().dropped();
  out->bind_timeouts = tb->router(0).sighost->stats().bind_timeouts +
                       tb->router(1).sighost->stats().bind_timeouts;
  return *out;
}

// ---- experiment 1: pseudo-device message buffers -------------------------

/// Open `n` calls but do NOT attach data sockets as VCIs arrive; once all
/// VCIs are granted, connect them back-to-back.  This recreates the paper's
/// clump of simultaneous kernel indications racing one pseudo-device.
struct AnandBurstOutcome {
  int granted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bind_timeouts = 0;
  std::uint64_t torn_down = 0;
};

AnandBurstOutcome run_anand_burst(std::size_t buffers, int n) {
  core::TestbedConfig cfg;
  cfg.kernel.anand_buffers = buffers;
  cfg.kernel.fd_table_size = 512;            // descriptors are not the subject
  cfg.kernel.tcp_msl = sim::seconds(1);
  cfg.sighost.per_call_log_cost = sim::milliseconds(5);
  // Phase 1 parks granted VCIs unconnected while the clump is assembled;
  // the wait-for-bind timer must not fire during that staging.
  cfg.sighost.wait_for_bind_timeout = sim::seconds(20);
  auto tb = cfg.routers(2).pvc_mesh().build();
  auto& r0 = tb->router(0);
  auto& r1 = tb->router(1);

  CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "clump", 4410);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  auto& k0 = *r0.kernel;
  kern::Pid pid = k0.spawn("clump-client");
  app::UserLib lib(k0, pid, k0.ip_node().address());
  auto results = std::make_shared<std::vector<app::OpenResult>>();
  for (int i = 0; i < n; ++i) {
    lib.open_connection("berkeley.rt", "clump", "", "",
                        [results](util::Result<app::OpenResult> r) {
                          if (r.ok()) results->push_back(*r);
                        });
  }
  tb->sim().run_for(sim::seconds(5));
  AnandBurstOutcome out;
  out.granted = static_cast<int>(results->size());

  // The clump: connect every granted VCI within ~one scheduling quantum.
  for (std::size_t i = 0; i < results->size(); ++i) {
    tb->sim().schedule(sim::microseconds(static_cast<std::int64_t>(100 * i)),
                       [&k0, pid, &lib, r = (*results)[i]] {
                         (void)lib.connect_data_socket(r);
                       });
  }
  tb->sim().run_for(sim::seconds(60));  // let wait-for-bind timers decide

  out.dropped = k0.anand().dropped();
  out.bind_timeouts = r0.sighost->stats().bind_timeouts;
  out.torn_down = r0.sighost->stats().calls_torn_down;
  return out;
}

TEST(Scaling, EightAnandBuffersLoseBindIndications) {
  auto out = run_anand_burst(8, 100);  // the original, broken configuration
  ASSERT_EQ(out.granted, 100);
  // Indications overflow the 8 buffers; sighost never hears about those
  // connects, so the wait-for-bind timers kill otherwise-healthy calls.
  EXPECT_GT(out.dropped, 0u);
  EXPECT_GT(out.bind_timeouts, 0u);
}

TEST(Scaling, EightyAnandBuffersAreAdequate) {
  auto out = run_anand_burst(80, 100);  // the fixed configuration
  ASSERT_EQ(out.granted, 100);
  EXPECT_EQ(out.dropped, 0u);
  EXPECT_EQ(out.bind_timeouts, 0u);
}

// ---- experiment 2: descriptor table vs TIME_WAIT --------------------------

TEST(Scaling, SmallFdTableCapsSimultaneousEstablishes) {
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 20;  // "the table size is typically around twenty"
  cfg.kernel.tcp_msl = sim::seconds(5);
  auto out = run_burst(cfg, 100);
  // Far fewer than 100 calls complete: per-call descriptors are pinned in
  // TIME_WAIT at the server (and sighost), refusing later establishes.
  EXPECT_LT(out.established, 60);
  EXPECT_GT(out.failed, 40);
}

TEST(Scaling, HundredFdSlotsFixTheBurst) {
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 100;  // the paper's fix
  cfg.kernel.tcp_msl = sim::seconds(5);
  auto out = run_burst(cfg, 100);
  EXPECT_EQ(out.established, 100);
  EXPECT_EQ(out.failed, 0);
}

TEST(Scaling, TimeWaitDescriptorsDrainAfterTwoMsl) {
  // Establish a burst, then check that server-side descriptors pinned by
  // TIME_WAIT are all released after 2×MSL.
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 100;
  cfg.sighost.per_call_log_cost = sim::milliseconds(1);
  auto tb = cfg.routers(2).pvc_mesh().build();
  auto& r1 = tb->router(1);
  CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "tw", 4401);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*tb->router(0).kernel,
                    tb->router(0).kernel->ip_node().address());
  int established = 0;
  for (int i = 0; i < 30; ++i) {
    client.open("berkeley.rt", "tw", "",
                [&](util::Result<CallClient::Call> r) {
                  ASSERT_TRUE(r.ok());
                  ++established;
                });
  }
  tb->sim().run_for(sim::seconds(10));
  ASSERT_EQ(established, 30);
  // The server's per-call connections were closed right after VCI delivery:
  // they are now lingering in TIME_WAIT, each pinning a descriptor slot.
  std::size_t pinned = r1.kernel->fds_in_time_wait();
  EXPECT_EQ(pinned, 30u);
  tb->sim().run_for(r1.kernel->tcp().config().msl * 2 + sim::seconds(2));
  EXPECT_EQ(r1.kernel->fds_in_time_wait(), 0u);
}

TEST(Scaling, TwoHundredConnectionsStayOpenBetweenTwoRouters) {
  // "...we were able to establish and keep open two hundred connections
  // between two routers."  Generous descriptor tables here: each side
  // holds 100 open data sockets *plus* its TIME_WAIT backlog, and the fd
  // interplay is the subject of the tests above.
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 512;
  cfg.kernel.anand_buffers = 80;
  cfg.kernel.tcp_msl = sim::seconds(5);
  auto tb = cfg.routers(2).pvc_mesh().build();
  auto& r0 = tb->router(0);
  auto& r1 = tb->router(1);

  // 100 calls in each direction = 200 open connections.
  CallServer sa(*r1.kernel, r1.kernel->ip_node().address(), "fwd", 4402);
  CallServer sb(*r0.kernel, r0.kernel->ip_node().address(), "rev", 4403);
  sa.start([](util::Result<void>) {});
  sb.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  CallClient ca(*r0.kernel, r0.kernel->ip_node().address());
  CallClient cb(*r1.kernel, r1.kernel->ip_node().address());
  int open_count = 0;
  for (int i = 0; i < 100; ++i) {
    ca.open("berkeley.rt", "fwd", "",
            [&](util::Result<CallClient::Call> r) {
              ASSERT_TRUE(r.ok()) << to_string(r.error());
              ++open_count;
            });
    cb.open("mh.rt", "rev", "",
            [&](util::Result<CallClient::Call> r) {
              ASSERT_TRUE(r.ok()) << to_string(r.error());
              ++open_count;
            });
  }
  tb->sim().run_for(sim::seconds(120));
  EXPECT_EQ(open_count, 200);
  EXPECT_EQ(tb->network().active_vc_count(), 2u + 200u);
  EXPECT_EQ(sa.calls_accepted(), 100u);
  EXPECT_EQ(sb.calls_accepted(), 100u);
}

TEST(Scaling, ShardOwnershipIsStableAcrossRestart) {
  // Two shards per router: every switched VCI must live on the shard that
  // owns its residue class, and a machine-wide crash/restart (both shards)
  // must recover the same partition — no call migrates shards.
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 512;
  cfg.kernel.tcp_msl = sim::seconds(1);
  cfg.sighost.per_call_log_cost = sim::milliseconds(1);
  auto tb = cfg.routers(2).shards(2).pvc_mesh().build();
  auto& r0 = tb->router(0);
  auto& r1 = tb->router(1);

  CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "shard", 4420,
                    2);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*r0.kernel, r0.kernel->ip_node().address(), 2);

  int established = 0;
  for (int i = 0; i < 24; ++i) {
    client.open("berkeley.rt", "shard", "",
                [&](util::Result<CallClient::Call> r) {
                  ASSERT_TRUE(r.ok()) << to_string(r.error());
                  ++established;
                });
  }
  tb->sim().run_for(sim::seconds(15));
  ASSERT_EQ(established, 24);

  auto partition_holds = [&](core::Router& r) {
    std::size_t total = 0;
    for (std::size_t s = 0; s < r.shard_count(); ++s) {
      ASSERT_NE(r.shard(s), nullptr);
      for (atm::Vci v : r.shard(s)->vci_mapping_vcis()) {
        EXPECT_EQ(v % r.shard_count(), s) << "vci " << v << " on shard " << s;
        ++total;
      }
    }
    EXPECT_EQ(total, 24u);
  };
  partition_holds(r0);
  partition_holds(r1);
  const std::vector<atm::Vci> before0 = r0.shard(0)->vci_mapping_vcis();
  const std::vector<atm::Vci> before1 = r0.shard(1)->vci_mapping_vcis();

  // Machine crash: both shards die and restart together; recovery audits
  // reconcile per shard, filtered by ownership.
  tb->crash_sighost(0);
  tb->sim().run_for(sim::milliseconds(200));
  ASSERT_TRUE(tb->restart_sighost(0).ok());
  tb->sim().run_for(sim::seconds(10));

  partition_holds(r0);
  EXPECT_EQ(r0.shard(0)->vci_mapping_vcis(), before0);
  EXPECT_EQ(r0.shard(1)->vci_mapping_vcis(), before1);
}

TEST(Scaling, AnandMessagesAreSmall) {
  // "each message is small (4 bytes), so it is cheap to increase the size
  // of this buffer" — our stub relay encodes the kernel's 4 payload bytes
  // (VCI + cookie) plus type/origin framing.
  EXPECT_LE(sig::kStubMsgBytes, 16u);
  EXPECT_EQ(sizeof(atm::Vci) + sizeof(sig::Cookie), 4u);
}

}  // namespace
}  // namespace xunet
