// encap_test.cpp — the AAL-over-IP encapsulation path (§5.4, §7.4):
// header semantics, out-of-order detection, VCI_BIND/VCI_SHUT forwarding
// state, and instruction accounting on the host paths.
#include <gtest/gtest.h>

#include "core/apps.hpp"
#include "core/testbed.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;
using core::TestbedConfig;
using kern::InstrComponent;
using kern::InstrDir;

/// Fixture with an established host→host call over the IP encapsulation
/// path in both access networks.
struct EncapFixture : ::testing::Test {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<CallServer> server;
  std::unique_ptr<CallClient> client;
  std::optional<CallClient::Call> call;

  void SetUp() override {
    tb = TestbedConfig{}.hosts(2).build_deferred();
    ASSERT_TRUE(tb->bring_up().ok());
    auto& h1 = tb->host(1);
    server = std::make_unique<CallServer>(
        *h1.kernel, h1.home->kernel->ip_node().address(), "sink", 4500);
    server->start([](util::Result<void>) {});
    tb->sim().run_for(sim::milliseconds(300));
    client = std::make_unique<CallClient>(
        *tb->host(0).kernel, tb->host(0).home->kernel->ip_node().address());
    client->open("berkeley.rt", "sink", "",
                 [&](util::Result<CallClient::Call> r) {
                   ASSERT_TRUE(r.ok()) << to_string(r.error());
                   call = *r;
                 });
    tb->sim().run_for(sim::seconds(2));
    ASSERT_TRUE(call.has_value());
  }
};

TEST_F(EncapFixture, FramesArriveIntactAcrossTheFullPath) {
  util::Rng rng(7);
  std::vector<util::Buffer> sent;
  for (int i = 0; i < 10; ++i) {
    util::Buffer b(100 + rng.below(3000));
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    sent.push_back(b);
    ASSERT_TRUE(client->send(*call, b).ok());
  }
  std::size_t total = 0;
  for (const auto& b : sent) total += b.size();
  tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(server->frames_received(), 10u);
  EXPECT_EQ(server->bytes_received(), total);
  // Clean path: no sequence-number alarms anywhere.
  EXPECT_EQ(tb->host(1).kernel->proto_atm().out_of_order(), 0u);
  EXPECT_EQ(tb->router(0).kernel->proto_atm().out_of_order(), 0u);
}

TEST_F(EncapFixture, HostSendChargesTable1SendPath) {
  auto& hk = *tb->host(0).kernel;
  hk.instr().reset();
  // One frame shaped to exactly 4 mbufs.
  kern::MbufChain chain = kern::MbufChain::shaped(4, 100);
  ASSERT_TRUE(hk.xunet_send_chain(client->pid(), call->fd, chain).ok());
  tb->sim().run_for(sim::seconds(1));
  // Table 1 send column: PF_XUNET 0, driver 0, IPPROTO_ATM 58+8m, IP 61.
  EXPECT_EQ(hk.instr().total(InstrComponent::pf_xunet, InstrDir::send), 0u);
  EXPECT_EQ(hk.instr().total(InstrComponent::orc_driver, InstrDir::send), 0u);
  EXPECT_EQ(hk.instr().total(InstrComponent::proto_atm, InstrDir::send),
            58u + 8u * 4u);
  EXPECT_EQ(hk.instr().total(InstrComponent::ip_layer, InstrDir::send), 61u);
  EXPECT_EQ(hk.instr().path_total(InstrDir::send), 119u + 8u * 4u);
}

TEST_F(EncapFixture, HostReceiveChargesTable1ReceivePath) {
  auto& hk1 = *tb->host(1).kernel;  // receiving host
  hk1.instr().reset();
  // Send one frame of exactly 2 mbufs worth of data (mbuf_bytes=128).
  std::size_t mbuf = hk1.config().mbuf_bytes;
  util::Buffer data(mbuf * 2, 0x33);
  ASSERT_TRUE(client->send(*call, data).ok());
  tb->sim().run_for(sim::seconds(1));
  // Table 1 receive column: IP 57, IPPROTO_ATM 36, driver 2, PF_XUNET 99+8m.
  EXPECT_EQ(hk1.instr().total(InstrComponent::ip_layer, InstrDir::receive), 57u);
  EXPECT_EQ(hk1.instr().total(InstrComponent::proto_atm, InstrDir::receive), 36u);
  EXPECT_EQ(hk1.instr().total(InstrComponent::orc_driver, InstrDir::receive), 2u);
  EXPECT_EQ(hk1.instr().total(InstrComponent::pf_xunet, InstrDir::receive),
            99u + 8u * 2u);
  EXPECT_EQ(hk1.instr().path_total(InstrDir::receive), 194u + 8u * 2u);
}

TEST_F(EncapFixture, RouterSwitchingAddsExactly39Instructions) {
  auto& rk = *tb->router(0).kernel;  // client-side router decapsulates
  rk.instr().reset();
  ASSERT_TRUE(client->send(*call, util::Buffer(100, 1)).ok());
  tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(rk.instr().total(InstrComponent::router_switch, InstrDir::receive),
            39u);
}

TEST_F(EncapFixture, OutOfOrderEncapsulatedPacketsDetected) {
  // Manufacture reordering by driving the receiving host's decapsulation
  // with a stale-sequence packet: send normally, then replay an old seq by
  // sending through a second path... simplest: drop one IP frame.
  auto& h0 = tb->host(0);
  util::Rng rng(11);
  h0.link->set_loss(0.3, &rng);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client->send(*call, util::Buffer(50, 2)).ok());
  }
  tb->sim().run_for(sim::seconds(2));
  // Lost encapsulated frames create sequence gaps at the router's
  // decapsulation point, which the header's sequence number detects.
  EXPECT_GT(tb->router(0).kernel->proto_atm().out_of_order(), 0u);
  // And every frame that did arrive was intact.
  EXPECT_EQ(server->bytes_received(), server->frames_received() * 50u);
}

TEST_F(EncapFixture, VciShutStopsForwardingToTheHost) {
  auto& r1 = tb->router(1);
  ASSERT_EQ(r1.anand_server->forwarded_vci_count(), 1u);
  std::uint64_t before = server->frames_received();

  // Tear the call down from the client side; VCI_SHUT must stop the
  // router from forwarding anything further.
  client->close_call(*call);
  tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(r1.anand_server->forwarded_vci_count(), 0u);
  EXPECT_TRUE(r1.kernel->orc().discarding(call->info.vci) ||
              r1.kernel->proto_atm().bound_vci_count() == 0);
  (void)before;
}

TEST(Encap, RouterPerVciIpDestinationTableRoutesTwoHosts) {
  // Two hosts behind the same remote router, each with its own call: the
  // per-VCI IP destination table must keep them separate.
  auto tb = TestbedConfig{}.hosts(2).build_deferred();
  // Second host behind router 1.
  auto& h2 = tb->add_host("berkeley.host2", ip::make_ip(10, 0, 1, 3),
                          tb->router(1));
  ASSERT_TRUE(tb->bring_up().ok());
  auto& h1 = tb->host(1);

  CallServer s1(*h1.kernel, h1.home->kernel->ip_node().address(), "svc1", 4501);
  CallServer s2(*h2.kernel, h2.home->kernel->ip_node().address(), "svc2", 4502);
  s1.start([](util::Result<void>) {});
  s2.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  CallClient client(*tb->router(0).kernel,
                    tb->router(0).kernel->ip_node().address());
  std::optional<CallClient::Call> c1, c2;
  client.open("berkeley.rt", "svc1", "",
              [&](util::Result<CallClient::Call> r) { c1 = *r; });
  client.open("berkeley.rt", "svc2", "",
              [&](util::Result<CallClient::Call> r) { c2 = *r; });
  tb->sim().run_for(sim::seconds(3));
  ASSERT_TRUE(c1 && c2);
  EXPECT_EQ(tb->router(1).anand_server->forwarded_vci_count(), 2u);

  ASSERT_TRUE(client.send(*c1, util::Buffer(10, 0xA1)).ok());
  ASSERT_TRUE(client.send(*c2, util::Buffer(20, 0xB2)).ok());
  ASSERT_TRUE(client.send(*c2, util::Buffer(20, 0xB2)).ok());
  tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(s1.frames_received(), 1u);
  EXPECT_EQ(s1.bytes_received(), 10u);
  EXPECT_EQ(s2.frames_received(), 2u);
  EXPECT_EQ(s2.bytes_received(), 40u);
}

// ---- a VCI handed to a new call after a call over the encapsulation path

/// Routers mh.rt and berkeley.rt, host 0 behind mh.rt, host 1 behind
/// berkeley.rt, and a service on host 1 ("on_host") and on berkeley.rt
/// itself ("on_router").
struct VciReuseRig {
  std::unique_ptr<Testbed> tb = TestbedConfig{}.hosts(2).build_deferred();
  std::unique_ptr<CallServer> on_host;
  std::unique_ptr<CallServer> on_router;

  VciReuseRig() {
    EXPECT_TRUE(tb->bring_up().ok());
    const ip::IpAddress berkeley = tb->router(1).kernel->ip_node().address();
    on_host = std::make_unique<CallServer>(*tb->host(1).kernel, berkeley,
                                           "on_host", 4500);
    on_router = std::make_unique<CallServer>(*tb->router(1).kernel, berkeley,
                                             "on_router", 4501);
    on_host->start([](util::Result<void>) {});
    on_router->start([](util::Result<void>) {});
    tb->sim().run_for(sim::milliseconds(300));
  }

  /// Open a call from `client` to `service` at berkeley.rt, send three
  /// frames on it and close it.  Returns the call's VCI at berkeley.rt.
  atm::Vci call_once(CallClient& client, const char* service) {
    std::optional<CallClient::Call> call;
    client.open("berkeley.rt", service, "",
                [&](util::Result<CallClient::Call> r) {
                  ASSERT_TRUE(r.ok()) << to_string(r.error());
                  call = *r;
                });
    tb->sim().run_for(sim::seconds(2));
    const std::vector<atm::Vci> vcis = tb->router(1).sighost->vci_mapping_vcis();
    if (!call || vcis.size() != 1) {
      ADD_FAILURE() << "call to " << service << " not established";
      return atm::kInvalidVci;
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(client.send(*call, util::Buffer(100, 0x5A)).ok());
    }
    tb->sim().run_for(sim::seconds(1));
    client.close_call(*call);
    tb->sim().run_for(sim::seconds(2));
    return vcis.front();
  }
};

TEST(Encap, VciOfAForwardedCallServesTheRouterNext) {
  // berkeley.rt forwards the first call to host 1 and shuts its VCI; the
  // second call lands on the same VCI at berkeley.rt itself.  Neither the
  // old AAL5 sequence state nor the VCI_SHUT discard mark may survive.
  VciReuseRig rig;
  CallClient client(*rig.tb->router(0).kernel,
                    rig.tb->router(0).kernel->ip_node().address());
  const atm::Vci first = rig.call_once(client, "on_host");
  EXPECT_EQ(rig.on_host->frames_received(), 3u);
  const atm::Vci second = rig.call_once(client, "on_router");
  EXPECT_EQ(second, first);
  EXPECT_EQ(rig.on_router->frames_received(), 3u);
  kern::Kernel& berkeley = *rig.tb->router(1).kernel;
  EXPECT_EQ(berkeley.hobbit()->aal5_errors(), 0u);
  EXPECT_EQ(berkeley.orc().frames_discarded(), 0u);
}

TEST(Encap, VciOfAForwardedCallServesTheHostAgain) {
  // Two calls in a row to host 1 share berkeley.rt's VCI: the router's
  // reassembler and the host's IPPROTO_ATM sequence number start afresh.
  VciReuseRig rig;
  CallClient client(*rig.tb->router(0).kernel,
                    rig.tb->router(0).kernel->ip_node().address());
  const atm::Vci first = rig.call_once(client, "on_host");
  const atm::Vci second = rig.call_once(client, "on_host");
  EXPECT_EQ(second, first);
  EXPECT_EQ(rig.on_host->frames_received(), 6u);
  EXPECT_EQ(rig.tb->router(1).kernel->hobbit()->aal5_errors(), 0u);
  EXPECT_EQ(rig.tb->host(1).kernel->proto_atm().out_of_order(), 0u);
}

TEST(Encap, VciOfAHostOriginatedCallServesTheHostAgain) {
  // Host 0 originates both calls through mh.rt on one VCI: the host's send
  // sequence and mh.rt's expected sequence both start afresh.
  VciReuseRig rig;
  CallClient client(*rig.tb->host(0).kernel,
                    rig.tb->router(0).kernel->ip_node().address());
  (void)rig.call_once(client, "on_router");
  (void)rig.call_once(client, "on_router");
  EXPECT_EQ(rig.on_router->frames_received(), 6u);
  EXPECT_EQ(rig.tb->router(0).kernel->proto_atm().out_of_order(), 0u);
}

TEST(Encap, ReconfiguringTheTargetRouterTakesEffect) {
  // "This allows a host to reconfigure its target router easily."
  auto tb = TestbedConfig{}.hosts(2).build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& h0 = tb->host(0);
  auto pid = h0.kernel->spawn("reconfig");
  auto fd = h0.kernel->proto_atm_socket(pid);
  ASSERT_TRUE(fd.ok());
  auto other = ip::make_ip(10, 0, 0, 99);
  ASSERT_TRUE(h0.kernel->proto_atm_set_router(pid, *fd, other).ok());
  EXPECT_EQ(*h0.kernel->proto_atm().router_address(), other);
}

}  // namespace
}  // namespace xunet
