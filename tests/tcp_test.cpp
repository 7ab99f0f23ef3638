// tcp_test.cpp — the TCP model: handshake, reliable transfer, orderly and
// abortive close, and the TIME_WAIT/2MSL behaviour the paper's scaling
// experiment turns on.
#include <gtest/gtest.h>

#include "tcpsim/tcp.hpp"
#include "util/rng.hpp"

namespace xunet::tcp {
namespace {

struct TcpFixture : ::testing::Test {
  sim::Simulator sim;
  ip::IpNode a{sim, "a", ip::make_ip(1, 1, 1, 1)};
  ip::IpNode b{sim, "b", ip::make_ip(2, 2, 2, 2)};
  ip::IpLink link{sim, ip::kFddiBps, sim::microseconds(100), ip::kFddiMtu};
  std::unique_ptr<TcpLayer> ta, tb;

  void SetUp() override {
    link.attach(a, b);
    a.set_default_route(link);
    b.set_default_route(link);
    ta = std::make_unique<TcpLayer>(a);
    tb = std::make_unique<TcpLayer>(b);
  }

  /// Establish a connection a→b:7; returns {client conn, server conn}.
  std::pair<ConnId, ConnId> establish() {
    ConnId server_conn = 0, client_conn = 0;
    EXPECT_TRUE(tb->listen(7, [&](ConnId c) { server_conn = c; }).ok());
    auto c = ta->connect(b.address(), 7, [&](util::Result<ConnId> r) {
      ASSERT_TRUE(r.ok());
      client_conn = *r;
    });
    EXPECT_TRUE(c.ok());
    sim.run_for(sim::milliseconds(50));
    EXPECT_NE(client_conn, 0u);
    EXPECT_NE(server_conn, 0u);
    return {client_conn, server_conn};
  }

  /// Burn ephemeral ports on `t` (connect, then abort at once, with the
  /// link down) until its allocator's next candidate is `port`, wrapping
  /// from 65535 back to 10000 if need be.
  void advance_ephemeral_cursor(TcpLayer& t, ip::IpAddress peer, std::uint16_t port) {
    link.set_down(true);
    const std::uint16_t last = port == 10'000 ? 65'535 : port - 1;
    for (int i = 0; i < 64 * 1024; ++i) {
      auto id = t.connect(peer, 9, [](util::Result<ConnId>) {});
      ASSERT_TRUE(id.ok());
      const std::uint16_t got = t.local_port(*id);
      t.abort(*id);
      if (got == last) break;
    }
    link.set_down(false);
    sim.run_for(sim::milliseconds(1));
  }

  /// Local port of a fresh connect from `t`, which is then aborted.
  std::uint16_t probe_ephemeral_port(TcpLayer& t, ip::IpAddress peer) {
    auto id = t.connect(peer, 9, [](util::Result<ConnId>) {});
    EXPECT_TRUE(id.ok());
    if (!id.ok()) return 0;
    const std::uint16_t got = t.local_port(*id);
    t.abort(*id);
    return got;
  }
};

TEST_F(TcpFixture, HandshakeEstablishesBothEnds) {
  auto [c, s] = establish();
  EXPECT_EQ(ta->state(c), State::established);
  EXPECT_EQ(tb->state(s), State::established);
}

TEST_F(TcpFixture, ConnectToClosedPortRefused) {
  std::optional<util::Errc> err;
  auto c = ta->connect(b.address(), 999, [&](util::Result<ConnId> r) {
    ASSERT_FALSE(r.ok());
    err = r.error();
  });
  ASSERT_TRUE(c.ok());
  sim.run_for(sim::milliseconds(50));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::connection_refused);
  EXPECT_EQ(ta->connection_count(), 0u);
}

TEST_F(TcpFixture, DataFlowsBothWays) {
  auto [c, s] = establish();
  std::string got_b, got_a;
  tb->set_receive_handler(s, [&](util::BytesView d) { got_b += util::to_text(d); });
  ta->set_receive_handler(c, [&](util::BytesView d) { got_a += util::to_text(d); });
  ASSERT_TRUE(ta->send(c, util::to_buffer(std::string_view("ping"))).ok());
  ASSERT_TRUE(tb->send(s, util::to_buffer(std::string_view("pong"))).ok());
  sim.run_for(sim::milliseconds(50));
  EXPECT_EQ(got_b, "ping");
  EXPECT_EQ(got_a, "pong");
}

TEST_F(TcpFixture, LargeTransferIsCompleteAndOrdered) {
  auto [c, s] = establish();
  util::Rng rng(99);
  util::Buffer sent(200'000);
  for (auto& x : sent) x = static_cast<std::uint8_t>(rng.next());
  util::Buffer got;
  tb->set_receive_handler(s, [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  });
  // Send in odd-sized chunks to exercise segmentation.
  std::size_t off = 0;
  while (off < sent.size()) {
    std::size_t n = std::min<std::size_t>(7777, sent.size() - off);
    ASSERT_TRUE(ta->send(c, {sent.data() + off, n}).ok());
    off += n;
  }
  sim.run_for(sim::seconds(10));
  EXPECT_EQ(got, sent);
}

TEST_F(TcpFixture, LossyLinkStillDeliversEverything) {
  auto [c, s] = establish();
  util::Rng loss_rng(5);
  link.set_loss(0.1, &loss_rng);
  util::Buffer sent(100'000, 0);
  util::Rng rng(123);
  for (auto& x : sent) x = static_cast<std::uint8_t>(rng.next());
  util::Buffer got;
  tb->set_receive_handler(s, [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  });
  ASSERT_TRUE(ta->send(c, sent).ok());
  sim.run_for(sim::seconds(120));
  EXPECT_EQ(got, sent);
  EXPECT_GT(ta->retransmits(), 0u);
}

TEST_F(TcpFixture, OrderlyCloseReachesTimeWaitFor2Msl) {
  auto [c, s] = establish();
  std::optional<util::Errc> b_close;
  tb->set_close_handler(s, [&](util::Errc e) { b_close = e; });

  ASSERT_TRUE(ta->close(c).ok());
  sim.run_for(sim::milliseconds(100));
  // Peer saw the FIN and (passively) closes too.
  ASSERT_TRUE(b_close.has_value());
  EXPECT_EQ(*b_close, util::Errc::ok);
  EXPECT_EQ(tb->state(s), State::close_wait);
  ASSERT_TRUE(tb->close(s).ok());
  sim.run_for(sim::milliseconds(100));

  // Active closer lingers in TIME_WAIT; passive closer is gone.
  EXPECT_EQ(ta->state(c), State::time_wait);
  EXPECT_EQ(ta->count_in_state(State::time_wait), 1u);
  EXPECT_EQ(tb->connection_count(), 0u);

  // ... for exactly 2×MSL.
  bool released = false;
  ta->set_released_handler(c, [&](ConnId) { released = true; });
  sim.run_for(ta->config().msl * 2 + sim::milliseconds(10));
  EXPECT_TRUE(released);
  EXPECT_EQ(ta->connection_count(), 0u);
}

TEST_F(TcpFixture, SimultaneousCloseBothLinger) {
  auto [c, s] = establish();
  ASSERT_TRUE(ta->close(c).ok());
  ASSERT_TRUE(tb->close(s).ok());
  sim.run_for(sim::milliseconds(200));
  // Both actively closed: each holds TIME_WAIT state.
  EXPECT_EQ(ta->count_in_state(State::time_wait), 1u);
  EXPECT_EQ(tb->count_in_state(State::time_wait), 1u);
}

TEST_F(TcpFixture, AbortSendsRstAndReleasesImmediately) {
  auto [c, s] = establish();
  std::optional<util::Errc> b_close;
  tb->set_close_handler(s, [&](util::Errc e) { b_close = e; });
  ta->abort(c);
  sim.run_for(sim::milliseconds(50));
  EXPECT_EQ(ta->connection_count(), 0u);
  EXPECT_EQ(tb->connection_count(), 0u);
  ASSERT_TRUE(b_close.has_value());
  EXPECT_EQ(*b_close, util::Errc::connection_reset);
}

TEST_F(TcpFixture, DataQueuedBeforeCloseIsDeliveredThenFin) {
  auto [c, s] = establish();
  std::string got;
  std::optional<util::Errc> closed;
  tb->set_receive_handler(s, [&](util::BytesView d) { got += util::to_text(d); });
  tb->set_close_handler(s, [&](util::Errc e) {
    closed = e;
    EXPECT_EQ(got, "last words");  // data precedes the close report
  });
  ASSERT_TRUE(ta->send(c, util::to_buffer(std::string_view("last words"))).ok());
  ASSERT_TRUE(ta->close(c).ok());
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(got, "last words");
}

TEST_F(TcpFixture, SendOnClosedConnectionFails) {
  auto [c, s] = establish();
  (void)s;
  ASSERT_TRUE(ta->close(c).ok());
  EXPECT_EQ(ta->send(c, util::to_buffer(std::string_view("x"))).error(),
            util::Errc::not_connected);
}

TEST_F(TcpFixture, SendOnUnknownConnectionIsBadFd) {
  EXPECT_EQ(ta->send(424242, {}).error(), util::Errc::bad_fd);
}

TEST_F(TcpFixture, ListenPortConflict) {
  ASSERT_TRUE(tb->listen(7, [](ConnId) {}).ok());
  EXPECT_EQ(tb->listen(7, [](ConnId) {}).error(), util::Errc::address_in_use);
  tb->stop_listening(7);
  EXPECT_TRUE(tb->listen(7, [](ConnId) {}).ok());
}

TEST_F(TcpFixture, ManyConcurrentConnectionsGetDistinctTuples) {
  int accepted = 0;
  ASSERT_TRUE(tb->listen(7, [&](ConnId) { ++accepted; }).ok());
  int connected = 0;
  for (int i = 0; i < 50; ++i) {
    auto c = ta->connect(b.address(), 7, [&](util::Result<ConnId> r) {
      if (r.ok()) ++connected;
    });
    ASSERT_TRUE(c.ok());
  }
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(connected, 50);
  EXPECT_EQ(accepted, 50);
  EXPECT_EQ(ta->count_in_state(State::established), 50u);
}

TEST_F(TcpFixture, ConnectTimesOutWithoutPeer) {
  // Black-hole the link: 100% loss.
  util::Rng rng(1);
  link.set_loss(1.0, &rng);
  std::optional<util::Errc> err;
  auto c = ta->connect(b.address(), 7,
                       [&](util::Result<ConnId> r) { err = r.error(); });
  ASSERT_TRUE(c.ok());
  sim.run_for(sim::seconds(60));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::timed_out);
  EXPECT_EQ(ta->connection_count(), 0u);
}

TEST_F(TcpFixture, PeerAddrAndLocalPortExposed) {
  auto [c, s] = establish();
  EXPECT_EQ(ta->peer_addr(c), b.address());
  EXPECT_EQ(tb->peer_addr(s), a.address());
  EXPECT_EQ(tb->local_port(s), 7);
}

TEST_F(TcpFixture, EphemeralPortSkipsListeningPort) {
  ASSERT_TRUE(ta->listen(10'000, [](ConnId) {}).ok());
  EXPECT_EQ(probe_ephemeral_port(*ta, b.address()), 10'001);
}

TEST_F(TcpFixture, EphemeralPortWrapSkipsTimeWaitAndListeningPorts) {
  auto [c, s] = establish();
  ASSERT_EQ(ta->local_port(c), 10'000);
  ASSERT_TRUE(ta->listen(10'001, [](ConnId) {}).ok());
  ASSERT_TRUE(ta->close(c).ok());
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(tb->close(s).ok());
  sim.run_for(sim::milliseconds(100));
  ASSERT_EQ(ta->state(c), State::time_wait);

  // Wrap the allocator past 65535: 10000 (TIME_WAIT) and 10001 (listener)
  // are still held, so the first port handed out is 10002.
  advance_ephemeral_cursor(*ta, b.address(), 10'000);
  ASSERT_EQ(ta->state(c), State::time_wait);
  EXPECT_EQ(probe_ephemeral_port(*ta, b.address()), 10'002);

  // Once TIME_WAIT ends, the wrapped allocator hands 10000 out again.
  sim.run_for(ta->config().msl * 2);
  ASSERT_EQ(ta->connection_count(), 0u);
  advance_ephemeral_cursor(*ta, b.address(), 10'000);
  EXPECT_EQ(probe_ephemeral_port(*ta, b.address()), 10'000);
}

TEST_F(TcpFixture, EphemeralPortSharedByTwoTuplesIsFreedOnlyWhenBothGo) {
  // Two connections accepted on b's port 10000 share that local port.
  std::vector<ConnId> accepted;
  ASSERT_TRUE(tb->listen(10'000, [&](ConnId id) { accepted.push_back(id); }).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ta->connect(b.address(), 10'000, [](util::Result<ConnId>) {}).ok());
  }
  sim.run_for(sim::milliseconds(50));
  ASSERT_EQ(accepted.size(), 2u);
  tb->stop_listening(10'000);

  EXPECT_EQ(probe_ephemeral_port(*tb, a.address()), 10'001);

  tb->abort(accepted[0]);
  advance_ephemeral_cursor(*tb, a.address(), 10'000);
  EXPECT_EQ(probe_ephemeral_port(*tb, a.address()), 10'001);  // one tuple left

  tb->abort(accepted[1]);
  advance_ephemeral_cursor(*tb, a.address(), 10'000);
  EXPECT_EQ(probe_ephemeral_port(*tb, a.address()), 10'000);
}

// Segment wire-format unit tests.

TEST(Segment, RoundTrip) {
  Segment s;
  s.src_port = 10;
  s.dst_port = 20;
  s.seq = 0xAABBCCDD;
  s.ack = 0x11223344;
  s.flags = Flags{.syn = true, .ack = true};
  s.window = 64;
  s.payload = util::to_buffer(std::string_view("data"));
  auto wire = serialize(s);
  auto back = parse_segment(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->seq, s.seq);
  EXPECT_EQ(back->ack, s.ack);
  EXPECT_EQ(back->flags, s.flags);
  EXPECT_EQ(back->payload, s.payload);
}

TEST(Segment, TruncatedHeaderRejected) {
  util::Buffer junk(5, 0);
  EXPECT_FALSE(parse_segment(junk).ok());
}

}  // namespace
}  // namespace xunet::tcp
