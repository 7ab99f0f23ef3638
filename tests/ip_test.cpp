// ip_test.cpp — addresses, packet wire format, forwarding, fragmentation,
// and the UDP baseline layer.
#include <gtest/gtest.h>

#include "ip/udp.hpp"
#include "util/rng.hpp"

namespace xunet::ip {
namespace {

// ----------------------------------------------------------------- address

TEST(IpAddress, FormatAndParse) {
  IpAddress a = make_ip(10, 0, 1, 2);
  EXPECT_EQ(to_string(a), "10.0.1.2");
  auto back = parse_ip("10.0.1.2");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, a);
}

TEST(IpAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_ip("10.0.1").ok());
  EXPECT_FALSE(parse_ip("10.0.1.256").ok());
  EXPECT_FALSE(parse_ip("10.0.1.2.3").ok());
  EXPECT_FALSE(parse_ip("a.b.c.d").ok());
  EXPECT_FALSE(parse_ip("").ok());
}

// ------------------------------------------------------------------ packet

TEST(IpPacket, SerializeParseRoundTrip) {
  IpPacket p;
  p.src = make_ip(1, 2, 3, 4);
  p.dst = make_ip(5, 6, 7, 8);
  p.protocol = IpProto::atm;
  p.id = 777;
  p.payload = util::to_buffer(std::string_view("payload bytes"));
  auto wire = serialize(p);
  EXPECT_EQ(wire.size(), kIpHeaderBytes + p.payload.size());
  auto back = parse_ip_packet(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->src, p.src);
  EXPECT_EQ(back->dst, p.dst);
  EXPECT_EQ(back->protocol, IpProto::atm);
  EXPECT_EQ(back->id, 777);
  EXPECT_EQ(back->payload, p.payload);
}

TEST(IpPacket, HeaderCorruptionDetected) {
  IpPacket p;
  p.src = make_ip(1, 2, 3, 4);
  p.dst = make_ip(5, 6, 7, 8);
  auto wire = serialize(p);
  wire[12] ^= 0x01;  // flip a src-address bit
  EXPECT_FALSE(parse_ip_packet(wire).ok());
}

TEST(IpPacket, TruncationDetected) {
  IpPacket p;
  p.payload = util::Buffer(100, 1);
  auto wire = serialize(p);
  wire.resize(wire.size() - 10);
  EXPECT_FALSE(parse_ip_packet(wire).ok());
}

// ------------------------------------------------------ forwarding fixture

struct TwoHopFixture : ::testing::Test {
  // host --- router --- server (two links, router forwards)
  sim::Simulator sim;
  IpNode host{sim, "host", make_ip(10, 0, 0, 2)};
  IpNode router{sim, "router", make_ip(10, 0, 0, 1)};
  IpNode server{sim, "server", make_ip(10, 0, 1, 2)};
  IpLink l1{sim, kFddiBps, sim::microseconds(50), kFddiMtu};
  IpLink l2{sim, kFddiBps, sim::microseconds(50), kFddiMtu};

  void SetUp() override {
    l1.attach(host, router);
    l2.attach(router, server);
    host.set_default_route(l1);
    server.set_default_route(l2);
    router.add_route(host.address(), l1);
    router.add_route(server.address(), l2);
  }
};

TEST_F(TwoHopFixture, DeliversAcrossARouter) {
  std::optional<IpPacket> got;
  server.register_protocol(IpProto::udp,
                           [&](const IpPacket& p) { got = p; });
  util::Buffer data = util::to_buffer(std::string_view("hello"));
  ASSERT_TRUE(host.send(server.address(), IpProto::udp, data).ok());
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, data);
  EXPECT_EQ(got->src, host.address());
  EXPECT_EQ(router.forwarded(), 1u);
}

TEST_F(TwoHopFixture, NoHandlerCountsDrop) {
  ASSERT_TRUE(host.send(server.address(), IpProto::udp, {}).ok());
  sim.run();
  EXPECT_EQ(server.dropped_no_handler(), 1u);
}

TEST_F(TwoHopFixture, NoRouteFailsAtSender) {
  auto r = host.send(make_ip(99, 9, 9, 9), IpProto::udp, {});
  // Host has a default route, so it sends — but the router drops.
  ASSERT_TRUE(r.ok());
  sim.run();
  EXPECT_EQ(router.dropped_no_route(), 1u);
}

TEST_F(TwoHopFixture, LoopbackDeliversLocally) {
  std::optional<IpPacket> got;
  host.register_protocol(IpProto::udp, [&](const IpPacket& p) { got = p; });
  ASSERT_TRUE(host.send(host.address(), IpProto::udp,
                        util::to_buffer(std::string_view("self"))).ok());
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_text(got->payload), "self");
}

TEST_F(TwoHopFixture, TtlExpiryDropsForwardedPackets) {
  // Build a routing loop: router sends unknowns back to host... instead,
  // directly check TTL decrement by sending with ttl=1 via serialization.
  IpPacket p;
  p.src = host.address();
  p.dst = server.address();
  p.protocol = IpProto::udp;
  p.ttl = 1;
  p.id = 1;
  // Inject the frame at the router as if it arrived from the host link.
  router.frame_arrival(serialize(p));
  sim.run();
  EXPECT_EQ(router.dropped_ttl(), 1u);
}

// ------------------------------------------------------------ fragmentation

struct FragCase {
  std::size_t payload;
  std::size_t mtu;
};

class FragmentationSweep : public ::testing::TestWithParam<FragCase> {};

TEST_P(FragmentationSweep, FragmentsReassembleExactly) {
  const auto [payload_size, mtu] = GetParam();
  sim::Simulator sim;
  IpNode a(sim, "a", make_ip(1, 1, 1, 1));
  IpNode b(sim, "b", make_ip(2, 2, 2, 2));
  IpLink link(sim, kFddiBps, sim::microseconds(10), mtu);
  link.attach(a, b);
  a.set_default_route(link);
  b.set_default_route(link);

  util::Rng rng(payload_size);
  util::Buffer data(payload_size);
  for (auto& x : data) x = static_cast<std::uint8_t>(rng.next());

  std::optional<IpPacket> got;
  b.register_protocol(IpProto::atm, [&](const IpPacket& p) { got = p; });
  ASSERT_TRUE(a.send(b.address(), IpProto::atm, data).ok());
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, data);
  if (payload_size + kIpHeaderBytes > mtu) {
    EXPECT_GT(a.fragments_sent(), 1u);
    EXPECT_EQ(b.reassembled(), 1u);
  }
  EXPECT_EQ(b.pending_reassemblies(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FragmentationSweep,
    ::testing::Values(FragCase{100, 1500}, FragCase{1481, 1500},
                      FragCase{1500, 1500}, FragCase{3000, 1500},
                      FragCase{9000, 1500}, FragCase{10000, 4352},
                      FragCase{65000, 4352}, FragCase{65000, 1500}));

TEST(Fragmentation, LostFragmentMeansNoDelivery) {
  sim::Simulator sim;
  util::Rng rng(4);
  IpNode a(sim, "a", make_ip(1, 1, 1, 1));
  IpNode b(sim, "b", make_ip(2, 2, 2, 2));
  IpLink link(sim, kEthernetBps, sim::microseconds(10), kEthernetMtu);
  link.attach(a, b);
  a.set_default_route(link);
  b.set_default_route(link);

  int delivered = 0;
  b.register_protocol(IpProto::atm, [&](const IpPacket&) { ++delivered; });

  link.set_loss(0.3, &rng);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.send(b.address(), IpProto::atm, util::Buffer(5000, 7)).ok());
  }
  sim.run();
  // With 30% frame loss and 4 fragments per datagram, most datagrams die,
  // and crucially none is delivered corrupted or duplicated.
  EXPECT_LT(delivered, 20);
  EXPECT_EQ(b.reassembled(), static_cast<std::uint64_t>(delivered));
}

TEST(Fragmentation, InterleavedDatagramsReassembleIndependently) {
  sim::Simulator sim;
  IpNode a(sim, "a", make_ip(1, 1, 1, 1));
  IpNode b(sim, "b", make_ip(2, 2, 2, 2));
  IpLink link(sim, kFddiBps, sim::microseconds(10), kEthernetMtu);
  link.attach(a, b);
  a.set_default_route(link);
  b.set_default_route(link);

  std::vector<util::Buffer> got;
  b.register_protocol(IpProto::atm,
                      [&](const IpPacket& p) { got.push_back(p.payload); });
  util::Buffer d1(4000, 0x11), d2(4000, 0x22);
  ASSERT_TRUE(a.send(b.address(), IpProto::atm, d1).ok());
  ASSERT_TRUE(a.send(b.address(), IpProto::atm, d2).ok());
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], d1);
  EXPECT_EQ(got[1], d2);
}

// --------------------------------------------------------------------- UDP

struct UdpFixture : ::testing::Test {
  sim::Simulator sim;
  IpNode a{sim, "a", make_ip(1, 1, 1, 1)};
  IpNode b{sim, "b", make_ip(2, 2, 2, 2)};
  IpLink link{sim, kFddiBps, sim::microseconds(10), kFddiMtu};
  std::unique_ptr<UdpLayer> ua, ub;

  void SetUp() override {
    link.attach(a, b);
    a.set_default_route(link);
    b.set_default_route(link);
    ua = std::make_unique<UdpLayer>(a);
    ub = std::make_unique<UdpLayer>(b);
  }
};

TEST_F(UdpFixture, DatagramDeliveryWithPorts) {
  std::optional<std::string> got;
  std::uint16_t from_port = 0;
  ASSERT_TRUE(ub->bind(53, [&](IpAddress src, std::uint16_t sp,
                               util::BytesView data) {
                EXPECT_EQ(src, a.address());
                from_port = sp;
                got = util::to_text(data);
              }).ok());
  ASSERT_TRUE(ua->send(b.address(), 53, 1234,
                       util::to_buffer(std::string_view("query"))).ok());
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "query");
  EXPECT_EQ(from_port, 1234);
  EXPECT_EQ(ub->datagrams_received(), 1u);
}

TEST_F(UdpFixture, UnboundPortDrops) {
  ASSERT_TRUE(ua->send(b.address(), 99, 1, {}).ok());
  sim.run();
  EXPECT_EQ(ub->datagrams_dropped(), 1u);
}

TEST_F(UdpFixture, BindConflictAndEphemeral) {
  auto h = [](IpAddress, std::uint16_t, util::BytesView) {};
  ASSERT_TRUE(ub->bind(53, h).ok());
  EXPECT_EQ(ub->bind(53, h).error(), util::Errc::address_in_use);
  auto p1 = ub->bind_ephemeral(h);
  auto p2 = ub->bind_ephemeral(h);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(*p1, *p2);
  EXPECT_GE(*p1, 1024);
  ub->unbind(*p1);
  SUCCEED();
}

}  // namespace
}  // namespace xunet::ip
