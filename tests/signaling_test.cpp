// signaling_test.cpp — wire messages, framing, cookies, stubs, and sighost
// behaviour observable through its five lists.
#include <gtest/gtest.h>

#include "core/apps.hpp"
#include "core/testbed.hpp"
#include "signaling/cookie.hpp"
#include "signaling/messages.hpp"
#include "signaling/stub_proto.hpp"
#include "userlib/userlib.hpp"
#include "util/rng.hpp"

namespace xunet::sig {
namespace {

// ---------------------------------------------------------------- messages

TEST(Messages, RoundTripAllFields) {
  Msg m;
  m.type = MsgType::connect_req;
  m.req_id = 0xCAFEBABE;
  m.cookie = 0x1234;
  m.vci = 99;
  m.port = 4000;
  m.service = "file-service";
  m.qos = "class=guaranteed,bw=1500000";
  m.dst = "mh.rt";
  m.comment = "a comment";
  m.error = 7;
  auto back = parse_msg(serialize(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, m.type);
  EXPECT_EQ(back->req_id, m.req_id);
  EXPECT_EQ(back->cookie, m.cookie);
  EXPECT_EQ(back->vci, m.vci);
  EXPECT_EQ(back->port, m.port);
  EXPECT_EQ(back->service, m.service);
  EXPECT_EQ(back->qos, m.qos);
  EXPECT_EQ(back->dst, m.dst);
  EXPECT_EQ(back->comment, m.comment);
  EXPECT_EQ(back->error, m.error);
}

class MessageTypeSweep : public ::testing::TestWithParam<MsgType> {};

TEST_P(MessageTypeSweep, EveryTypeRoundTrips) {
  Msg m;
  m.type = GetParam();
  m.req_id = 5;
  auto back = parse_msg(serialize(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, m.type);
  EXPECT_FALSE(to_string(m.type).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Types, MessageTypeSweep,
    ::testing::Values(MsgType::export_srv, MsgType::service_regs,
                      MsgType::incoming_conn, MsgType::accept_conn,
                      MsgType::reject_conn, MsgType::vci_for_conn,
                      MsgType::connect_req, MsgType::req_id,
                      MsgType::cancel_req, MsgType::conn_failed,
                      MsgType::peer_setup, MsgType::peer_accept,
                      MsgType::peer_reject, MsgType::peer_established,
                      MsgType::peer_setup_failed, MsgType::peer_teardown,
                      MsgType::peer_cancel));

TEST(Messages, MalformedRejected) {
  EXPECT_FALSE(parse_msg({}).ok());
  util::Buffer junk(3, 0xFF);
  EXPECT_FALSE(parse_msg(junk).ok());
  // Bad type tag.
  Msg m;
  auto wire = serialize(m);
  wire[0] = 0xEE;
  EXPECT_FALSE(parse_msg(wire).ok());
  // Trailing garbage.
  wire = serialize(m);
  wire.push_back(0);
  EXPECT_FALSE(parse_msg(wire).ok());
}

TEST(Framer, ReassemblesArbitraryChunking) {
  std::vector<Msg> got;
  MsgFramer f([&](const Msg& m) { got.push_back(m); });
  Msg m1, m2;
  m1.type = MsgType::export_srv;
  m1.service = "one";
  m2.type = MsgType::connect_req;
  m2.service = "two";
  // A message at exactly the framing limit, then a small one behind it.
  Msg big;
  big.type = MsgType::connect_req;
  big.comment.assign(kMaxMsgBytes - wire_size(0), 'c');
  ASSERT_EQ(wire_size(big), kMaxMsgBytes);
  util::Buffer stream = frame(m1);
  for (const Msg* m : {&big, &m2}) {
    util::Buffer fm = frame(*m);
    stream.insert(stream.end(), fm.begin(), fm.end());
  }
  // Feed one byte at a time.
  for (std::uint8_t b : stream) f.feed({&b, 1});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].service, "one");
  EXPECT_EQ(got[1].comment, big.comment);
  EXPECT_EQ(got[2].service, "two");
}

TEST(Framer, MalformedBodySurfacesErrorAndResyncs) {
  std::vector<Msg> got;
  std::vector<util::Errc> errs;
  MsgFramer f([&](const Msg& m) { got.push_back(m); },
              [&](util::Errc e) { errs.push_back(e); });
  util::Buffer bad = {0x00, 0x02, 0xEE, 0xEE};  // framed 2-byte garbage
  f.feed(bad);
  Msg ok;
  ok.type = MsgType::export_srv;
  f.feed(frame(ok));
  EXPECT_EQ(errs.size(), 1u);
  EXPECT_EQ(got.size(), 1u);
}

TEST(StubProto, FixedSizeRoundTrip) {
  StubMsg m;
  m.type = StubMsg::Type::up_indication;
  m.up_type = kern::AnandUpType::connect_indication;
  m.vci = 77;
  m.cookie = 0xABCD;
  m.machine = ip::make_ip(10, 0, 0, 5);
  auto wire = serialize(m);
  EXPECT_EQ(wire.size(), kStubMsgBytes);
  std::vector<StubMsg> got;
  StubFramer f([&](const StubMsg& mm) { got.push_back(mm); });
  f.feed({wire.data(), 4});
  EXPECT_TRUE(got.empty());
  f.feed({wire.data() + 4, wire.size() - 4});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].vci, 77);
  EXPECT_EQ(got[0].cookie, 0xABCD);
  EXPECT_EQ(got[0].machine, m.machine);
}

// ----------------------------------------------------------------- cookies

TEST(Cookies, MintedCookiesAreNonZeroAndDistinct) {
  CookieTable t(1);
  std::set<Cookie> seen;
  for (int i = 0; i < 1000; ++i) {
    Cookie c = *t.mint();
    EXPECT_NE(c, 0);
    EXPECT_TRUE(seen.insert(c).second);
  }
}

// Every one of the 65,535 cookies can be outstanding at once; then mint()
// fails instead of drawing forever, and a discard makes room again.
TEST(Cookies, FullTableFailsInsteadOfHanging) {
  CookieTable t(9);
  std::vector<bool> seen(0x10000);
  for (int i = 0; i < 0xFFFF; ++i) {
    auto c = t.mint();
    ASSERT_TRUE(c.ok());
    ASSERT_NE(*c, 0);
    ASSERT_FALSE(seen[*c]);
    seen[*c] = true;
  }
  EXPECT_EQ(t.outstanding_count(), 0xFFFFu);
  EXPECT_EQ(t.mint().error(), util::Errc::no_buffer_space);
  t.discard(777);
  EXPECT_EQ(*t.mint(), 777);
}

TEST(Cookies, DiscardingACookieNotOutstandingChangesNothing) {
  CookieTable t(5), twin(5);
  const Cookie c = *t.mint();
  EXPECT_EQ(*twin.mint(), c);
  t.discard(static_cast<Cookie>(c + 1));
  t.discard(0);
  EXPECT_EQ(t.outstanding_count(), 1u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(*t.mint(), *twin.mint());
}

TEST(Cookies, DiscardEndsTheLifetime) {
  CookieTable t(3);
  const Cookie c = *t.mint();
  const Cookie d = *t.mint();
  EXPECT_EQ(t.outstanding_count(), 2u);
  t.discard(c);
  EXPECT_EQ(t.outstanding_count(), 1u);
  t.discard(c);  // already ended: nothing else is dropped
  t.discard(0);  // 0 is never minted
  EXPECT_EQ(t.outstanding_count(), 1u);
  t.discard(d);
  EXPECT_EQ(t.outstanding_count(), 0u);
}

// The cookies a seeded table mints, with discards interleaved, are pinned:
// a change of the table's storage must leave every cookie the same.
TEST(Cookies, SeededSequenceIsPinned) {
  CookieTable t(0x5163'4057);
  std::vector<Cookie> minted;
  for (int i = 0; i < 64; ++i) {
    auto c = t.mint();
    ASSERT_TRUE(c.ok());
    minted.push_back(*c);
    if (i % 3 == 2) t.discard(minted[static_cast<std::size_t>(i - 1)]);
  }
  const std::vector<Cookie> golden = {
      30670, 51051, 59871, 34105, 46886, 19238, 5978,  57407, 11871, 28245,
      3029,  13207, 52127, 44769, 15612, 34583, 63298, 8064,  7705,  35511,
      9332,  46715, 22408, 61040, 21672, 34365, 11949, 17821, 55909, 42828,
      9740,  51519, 5940,  58663, 1894,  17950, 64358, 4309,  35687, 64067,
      32116, 42754, 38919, 46566, 26044, 50257, 8975,  65363, 37537, 43934,
      15206, 64846, 18600, 29565, 61295, 21900, 38658, 35289, 1567,  36656,
      64768, 61445, 51332, 48428};
  EXPECT_EQ(minted, golden);
  EXPECT_EQ(t.outstanding_count(), 64u - 21u);
}

// ------------------------------------------------- sighost via the testbed

struct SighostFixture : ::testing::Test {
  std::unique_ptr<core::Testbed> tb;
  void SetUp() override {
    tb = core::TestbedConfig{}.build_deferred();
    ASSERT_TRUE(tb->bring_up().ok());
  }
  sig::Sighost& sh(std::size_t i) { return *tb->router(i).sighost; }
  /// The list-length gauge HealthMonitor reads, e.g. "wait_for_bind".
  std::int64_t list_gauge(std::size_t i, const std::string& list) {
    return tb->sim()
        .obs()
        .metrics()
        .gauge("sighost." + sh(i).address().name + ".list." + list)
        .value();
  }
};

TEST_F(SighostFixture, ServiceListTracksRegistrations) {
  core::CallServer s1(*tb->router(1).kernel,
                      tb->router(1).kernel->ip_node().address(), "svc-a", 4100);
  core::CallServer s2(*tb->router(1).kernel,
                      tb->router(1).kernel->ip_node().address(), "svc-b", 4101);
  s1.start([](util::Result<void>) {});
  s2.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(500));
  EXPECT_EQ(sh(1).service_list_size(), 2u);
  EXPECT_TRUE(sh(1).has_service("svc-a"));
  EXPECT_TRUE(sh(1).has_service("svc-b"));
  EXPECT_EQ(sh(1).stats().services_registered, 2u);
}

TEST_F(SighostFixture, ListsDrainAfterCompleteCall) {
  core::CallServer server(*tb->router(1).kernel,
                          tb->router(1).kernel->ip_node().address(), "echo",
                          4102);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  core::CallClient client(*tb->router(0).kernel,
                          tb->router(0).kernel->ip_node().address());
  std::optional<core::CallClient::Call> call;
  client.open("berkeley.rt", "echo", "",
              [&](util::Result<core::CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(call.has_value());

  // Established: one VCI mapping at each side, no pending requests.
  EXPECT_EQ(sh(0).outgoing_requests_size(), 0u);
  EXPECT_EQ(sh(1).incoming_requests_size(), 0u);
  EXPECT_EQ(sh(0).wait_for_bind_size(), 0u);
  EXPECT_EQ(sh(1).wait_for_bind_size(), 0u);
  EXPECT_EQ(sh(0).vci_mapping_size(), 1u);
  EXPECT_EQ(sh(1).vci_mapping_size(), 1u);
  // The gauges follow the lists, including the bind confirmation.
  EXPECT_EQ(list_gauge(0, "wait_for_bind"), 0);
  EXPECT_EQ(list_gauge(1, "wait_for_bind"), 0);

  client.close_call(*call);
  tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(sh(0).vci_mapping_size(), 0u);
  EXPECT_EQ(sh(1).vci_mapping_size(), 0u);
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

TEST_F(SighostFixture, RejectingServerProducesRejectedError) {
  core::CallServer server(*tb->router(1).kernel,
                          tb->router(1).kernel->ip_node().address(), "picky",
                          4103);
  server.set_auto_accept(false);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  core::CallClient client(*tb->router(0).kernel,
                          tb->router(0).kernel->ip_node().address());
  std::optional<util::Errc> err;
  client.open("berkeley.rt", "picky", "",
              [&](util::Result<core::CallClient::Call> r) { err = r.error(); });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::rejected);
  EXPECT_EQ(server.calls_rejected(), 1u);
  EXPECT_EQ(sh(1).stats().rejects_sent, 1u);
  EXPECT_EQ(sh(1).incoming_requests_size(), 0u);
  EXPECT_EQ(list_gauge(1, "incoming_requests"), 0);
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

TEST_F(SighostFixture, CancelWithdrawsOutstandingRequest) {
  // No server registered: the request would fail anyway, but cancel must
  // beat the reply if issued immediately (log cost delays PEER_SETUP).
  core::CallClient client(*tb->router(0).kernel,
                          tb->router(0).kernel->ip_node().address());
  std::optional<util::Errc> err;
  std::optional<Cookie> cookie;
  client.lib().open_connection(
      "berkeley.rt", "slow-svc", "", "",
      [&](util::Result<app::OpenResult> r) { err = r.error(); },
      [&](util::Result<Cookie> c) {
        if (!c.ok()) return;
        cookie = *c;
        client.lib().cancel_request(*c);
      });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(cookie.has_value());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::cancelled);
  EXPECT_EQ(sh(0).stats().cancels, 1u);
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

TEST_F(SighostFixture, CancelReachesOnlyItsOwnRequest) {
  // Five requests outstanding at once; CANCEL_REQ by cookie withdraws
  // exactly the two it names, the others fail on their own (no server).
  core::CallClient client(*tb->router(0).kernel,
                          tb->router(0).kernel->ip_node().address());
  std::vector<std::optional<util::Errc>> err(5);
  for (std::size_t i = 0; i < err.size(); ++i) {
    client.lib().open_connection(
        "berkeley.rt", "slow-svc", "", "",
        [&err, i](util::Result<app::OpenResult> r) { err[i] = r.error(); },
        [&client, i](util::Result<Cookie> c) {
          if (c.ok() && (i == 2 || i == 4)) client.lib().cancel_request(*c);
        });
  }
  tb->sim().run_for(sim::seconds(2));
  for (std::size_t i = 0; i < err.size(); ++i) {
    ASSERT_TRUE(err[i].has_value()) << i;
    EXPECT_EQ(*err[i], (i == 2 || i == 4) ? util::Errc::cancelled : util::Errc::not_found)
        << i;
  }
  EXPECT_EQ(sh(0).stats().cancels, 2u);
  EXPECT_EQ(sh(0).outgoing_requests_size(), 0u);
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

TEST_F(SighostFixture, ClientDeathMidRequestLeavesNothingBehind) {
  // The client dies after its REQ_ID arrives and before PEER_BOUND: sighost
  // withdraws the request, and the request's call.setup span ends with it.
  tb->sim().obs().set_tracing(true);
  core::CallServer server(*tb->router(1).kernel,
                          tb->router(1).kernel->ip_node().address(), "doomed",
                          4140);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  kern::Kernel& k0 = *tb->router(0).kernel;
  const kern::Pid pid = k0.spawn("doomed-client");
  app::UserLib lib(k0, pid, k0.ip_node().address());
  bool have_cookie = false;
  lib.open_connection("berkeley.rt", "doomed", "", "",
                      [](util::Result<app::OpenResult>) {},
                      [&](util::Result<Cookie> c) { have_cookie = c.ok(); });
  for (int i = 0; i < 100 && !have_cookie; ++i) {
    tb->sim().run_for(sim::milliseconds(1));
  }
  ASSERT_TRUE(have_cookie);
  ASSERT_EQ(sh(0).outgoing_requests_size(), 1u);
  ASSERT_TRUE(k0.kill_process(pid).ok());
  tb->sim().run_for(sim::seconds(5));

  EXPECT_EQ(sh(0).outgoing_requests_size(), 0u);
  EXPECT_EQ(sh(1).incoming_requests_size(), 0u);
  // HealthMonitor reads the list gauges, not the lists.
  EXPECT_EQ(tb->sim()
                .obs()
                .metrics()
                .gauge("sighost." + sh(0).address().name + ".list.outgoing_requests")
                .value(),
            0);
  std::map<obs::SpanId, int> open_setups;  // begins minus ends, per span
  for (const obs::TraceEvent& e : tb->sim().obs().trace().events()) {
    if (e.phase == obs::Phase::span_begin && e.name == "call.setup") {
      ++open_setups[e.span];
    } else if (e.phase == obs::Phase::span_end && open_setups.contains(e.span)) {
      --open_setups[e.span];
    }
  }
  ASSERT_EQ(open_setups.size(), 1u);
  for (const auto& [span, open] : open_setups) {
    EXPECT_EQ(open, 0) << "call.setup span " << span;
  }
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

TEST_F(SighostFixture, ConcurrentIncomingCallsDecidedOutOfOrder) {
  // Many calls wait at the callee at once, each on its own per-call server
  // connection.  The server decides them in a shuffled order, accepting
  // two in three and rejecting the rest: every ACCEPT_CONN / REJECT_CONN
  // must settle its own call and no other.
  constexpr std::size_t kCalls = 30;
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 128;  // one descriptor per establishing call
  tb = cfg.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  kern::Kernel& k0 = *tb->router(0).kernel;
  kern::Kernel& k1 = *tb->router(1).kernel;
  kern::Pid spid = k1.spawn("decider");
  app::UserLib server(k1, spid, k1.ip_node().address());
  std::vector<app::IncomingRequest> waiting;
  std::function<void()> await = [&] {
    server.await_service_request([&](util::Result<app::IncomingRequest> r) {
      if (!r) return;
      waiting.push_back(*r);
      await();
    });
  };
  server.export_service("decide", 4110, [](util::Result<void>) {});
  await();
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid cpid = k0.spawn("caller");
  app::UserLib client(k0, cpid, k0.ip_node().address());
  auto accepts = [](std::size_t i) { return i % 3 != 0; };
  std::vector<std::optional<util::Errc>> outcome(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    client.open_connection("berkeley.rt", "decide", std::to_string(i), "",
                           [&, i](util::Result<app::OpenResult> r) {
                             if (r.ok()) {
                               EXPECT_TRUE(client.connect_data_socket(*r).ok());
                             }
                             outcome[i] = r.ok() ? util::Errc::ok : r.error();
                           });
  }
  // Each setup pays the §9 maintenance-log cost in turn.
  for (int i = 0; i < 100 && waiting.size() < kCalls; ++i) {
    tb->sim().run_for(sim::milliseconds(100));
  }
  ASSERT_EQ(waiting.size(), kCalls);
  EXPECT_EQ(sh(1).incoming_requests_size(), kCalls);

  util::Rng rng(1994);
  for (std::size_t i = waiting.size(); i > 1; --i) {
    std::swap(waiting[i - 1], waiting[rng.below(i)]);
  }
  std::size_t bound = 0;
  for (const app::IncomingRequest& req : waiting) {
    const std::size_t i = std::stoul(req.comment);
    if (accepts(i)) {
      server.accept_connection(req, req.qos, [&](util::Result<app::OpenResult> r) {
        ASSERT_TRUE(r.ok());
        EXPECT_TRUE(server.bind_data_socket(*r).ok());
        ++bound;
      });
    } else {
      server.reject_connection(req);
    }
    tb->sim().run_for(sim::milliseconds(20));
  }
  for (int i = 0; i < 100 && std::count(outcome.begin(), outcome.end(), std::nullopt) > 0; ++i) {
    tb->sim().run_for(sim::milliseconds(100));
  }
  tb->sim().run_for(sim::seconds(1));

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(outcome[i].has_value()) << "call " << i;
    if (accepts(i)) {
      ++accepted;
      EXPECT_EQ(*outcome[i], util::Errc::ok) << "call " << i;
    } else {
      EXPECT_EQ(*outcome[i], util::Errc::rejected) << "call " << i;
    }
  }
  EXPECT_EQ(bound, accepted);
  EXPECT_EQ(sh(1).stats().rejects_sent, kCalls - accepted);
  EXPECT_EQ(sh(0).outgoing_requests_size(), 0u);
  EXPECT_EQ(sh(1).incoming_requests_size(), 0u);
  EXPECT_EQ(sh(0).vci_mapping_size(), accepted);
  EXPECT_EQ(sh(1).vci_mapping_size(), accepted);
}

TEST_F(SighostFixture, WrongCookieOnBindTearsCallDown) {
  // Drive the signaling flow manually so we can present a wrong cookie:
  // first a corrupted one, then 0, which is never a capability.
  auto& r0 = *tb->router(0).kernel;
  core::CallServer server(*tb->router(1).kernel,
                          tb->router(1).kernel->ip_node().address(), "echo",
                          4104);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid pid = r0.spawn("evil-client");
  app::UserLib lib(r0, pid, r0.ip_node().address());
  for (const bool zero : {false, true}) {
    std::optional<app::OpenResult> res;
    lib.open_connection("berkeley.rt", "echo", "", "",
                        [&](util::Result<app::OpenResult> r) {
                          ASSERT_TRUE(r.ok());
                          res = *r;
                        });
    tb->sim().run_for(sim::seconds(2));
    ASSERT_TRUE(res.has_value());

    // Authentication must fail and the socket must be marked unusable.
    auto fd = r0.xunet_socket(pid);
    ASSERT_TRUE(fd.ok());
    const auto wrong = static_cast<Cookie>(zero ? 0 : res->cookie ^ 0xFFFF);
    ASSERT_TRUE(r0.xunet_connect(pid, *fd, res->vci, wrong).ok());
    tb->sim().run_for(sim::seconds(2));
    EXPECT_EQ(sh(0).stats().auth_failures, zero ? 2u : 1u);
    EXPECT_FALSE(r0.xunet_usable(pid, *fd));
  }
  tb->sim().run_for(sim::seconds(20));  // server-side wait_for_bind expires
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

TEST_F(SighostFixture, WaitForBindTimeoutReclaimsTheCall) {
  core::CallServer server(*tb->router(1).kernel,
                          tb->router(1).kernel->ip_node().address(), "echo",
                          4105);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  // A client that requests a VCI but never connects to it (§7.2's "a
  // process might request a VCI, but not use it").
  auto& r0 = *tb->router(0).kernel;
  kern::Pid pid = r0.spawn("lazy-client");
  app::UserLib lib(r0, pid, r0.ip_node().address());
  std::optional<app::OpenResult> res;
  lib.open_connection("berkeley.rt", "echo", "", "",
                      [&](util::Result<app::OpenResult> r) { res = *r; });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(sh(0).wait_for_bind_size(), 1u);

  // Let the wait-for-bind timer expire (config default 10 s).
  tb->sim().run_for(sim::seconds(15));
  EXPECT_GE(sh(0).stats().bind_timeouts, 1u);
  EXPECT_EQ(sh(0).wait_for_bind_size(), 0u);
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

TEST_F(SighostFixture, TraceHookSeesTheFigure3And4Sequences) {
  std::vector<std::string> events;
  sh(0).set_trace([&](std::string_view dir, std::string_view who, const Msg& m) {
    events.push_back(std::string(dir) + " " + std::string(who) + " " +
                     std::string(to_string(m.type)));
  });
  core::CallServer server(*tb->router(1).kernel,
                          tb->router(1).kernel->ip_node().address(), "echo",
                          4106);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  core::CallClient client(*tb->router(0).kernel,
                          tb->router(0).kernel->ip_node().address());
  client.open("berkeley.rt", "echo", "",
              [](util::Result<core::CallClient::Call>) {});
  tb->sim().run_for(sim::seconds(2));

  auto contains = [&](const std::string& needle) {
    for (const auto& e : events) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("CONNECT_REQ"));
  EXPECT_TRUE(contains("REQ_ID"));
  EXPECT_TRUE(contains("PEER_SETUP"));
  EXPECT_TRUE(contains("PEER_ACCEPT"));
  EXPECT_TRUE(contains("VCI_FOR_CONN"));
}

}  // namespace
}  // namespace xunet::sig
