// userlib_test.cpp — the user library's RPC plumbing, the anand stubs, and
// the kernel's buffered-event semantics that back them.
#include <gtest/gtest.h>

#include "core/apps.hpp"
#include "core/testbed.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;
using core::TestbedConfig;

struct LibFixture : ::testing::Test {
  std::unique_ptr<Testbed> tb;
  void SetUp() override {
    tb = TestbedConfig{}.build_deferred();
    ASSERT_TRUE(tb->bring_up().ok());
  }
  kern::Kernel& r0() { return *tb->router(0).kernel; }
  kern::Kernel& r1() { return *tb->router(1).kernel; }
};

TEST_F(LibFixture, MultipleOutstandingOpensCorrelateByReqId) {
  CallServer server(r1(), r1().ip_node().address(), "many", 4900);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid pid = r0().spawn("multi-open");
  app::UserLib lib(r0(), pid, r0().ip_node().address());
  // Fire 8 opens back to back before any completes; all must resolve.
  int done = 0;
  std::set<atm::Vci> vcis;
  for (int i = 0; i < 8; ++i) {
    lib.open_connection("berkeley.rt", "many", "", "",
                        [&](util::Result<app::OpenResult> r) {
                          ASSERT_TRUE(r.ok());
                          vcis.insert(r->vci);
                          ++done;
                          (void)lib.connect_data_socket(*r);
                        });
  }
  tb->sim().run_for(sim::seconds(10));
  EXPECT_EQ(done, 8);
  EXPECT_EQ(vcis.size(), 8u);  // all distinct calls
}

TEST_F(LibFixture, MultipleServicesFromOneProcess) {
  kern::Pid pid = r1().spawn("multi-svc");
  app::UserLib lib(r1(), pid, r1().ip_node().address());
  int regs = 0;
  for (int i = 0; i < 5; ++i) {
    lib.export_service("multi" + std::to_string(i), 4910,
                       [&](util::Result<void> r) {
                         if (r.ok()) ++regs;
                       });
  }
  tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(regs, 5);
  EXPECT_EQ(tb->router(1).sighost->service_list_size(), 5u);
}

TEST_F(LibFixture, ReRegistrationReplacesTheEntry) {
  kern::Pid p1 = r1().spawn("old-server");
  app::UserLib old_lib(r1(), p1, r1().ip_node().address());
  old_lib.export_service("moving", 4911, [](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  // A new process takes over the service on a different port.
  kern::Pid p2 = r1().spawn("new-server");
  app::UserLib new_lib(r1(), p2, r1().ip_node().address());
  new_lib.export_service("moving", 4912, [](util::Result<void>) {});
  std::optional<app::IncomingRequest> got;
  new_lib.await_service_request(
      [&](util::Result<app::IncomingRequest> r) { got = *r; });
  tb->sim().run_for(sim::milliseconds(300));
  EXPECT_EQ(tb->router(1).sighost->service_list_size(), 1u);

  CallClient client(r0(), r0().ip_node().address());
  client.open("berkeley.rt", "moving", "",
              [](util::Result<CallClient::Call>) {});
  tb->sim().run_for(sim::seconds(2));
  // The call was forwarded to the NEW registrant.
  EXPECT_TRUE(got.has_value());
}

TEST_F(LibFixture, WithdrawServiceRemovesIt) {
  kern::Pid pid = r1().spawn("withdrawer");
  app::UserLib lib(r1(), pid, r1().ip_node().address());
  bool reg = false, unreg = false;
  lib.export_service("temp-svc", 4915, [&](util::Result<void> r) { reg = r.ok(); });
  tb->sim().run_for(sim::milliseconds(300));
  ASSERT_TRUE(reg);
  ASSERT_TRUE(tb->router(1).sighost->has_service("temp-svc"));

  lib.unexport_service("temp-svc", [&](util::Result<void> r) { unreg = r.ok(); });
  tb->sim().run_for(sim::milliseconds(300));
  EXPECT_TRUE(unreg);
  EXPECT_FALSE(tb->router(1).sighost->has_service("temp-svc"));

  // New calls to the withdrawn service fail with not_found.
  CallClient client(r0(), r0().ip_node().address());
  std::optional<util::Errc> err;
  client.open("berkeley.rt", "temp-svc", "",
              [&](util::Result<CallClient::Call> r) { err = r.error(); });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::not_found);
}

TEST_F(LibFixture, WithdrawByAnotherMachineIsRefused) {
  // Only the registering machine may withdraw (same trust boundary as
  // registration).
  kern::Pid pid = r1().spawn("owner");
  app::UserLib owner(r1(), pid, r1().ip_node().address());
  owner.export_service("guarded", 4916, [](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid thief_pid = r0().spawn("thief");
  app::UserLib thief(r0(), thief_pid, r1().ip_node().address());
  thief.unexport_service("guarded", [](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(500));
  EXPECT_TRUE(tb->router(1).sighost->has_service("guarded"));
}

TEST_F(LibFixture, ExportWithBadArgumentsFails) {
  kern::Pid pid = r1().spawn("bad-export");
  app::UserLib lib(r1(), pid, r1().ip_node().address());
  std::optional<util::Errc> err;
  lib.export_service("", 0, [&](util::Result<void> r) { err = r.error(); });
  tb->sim().run_for(sim::seconds(1));
  // The library rejects port 0 locally (tcp_listen) or sighost declines.
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(*err, util::Errc::ok);
}

TEST_F(LibFixture, OpenToEmptyDestinationFails) {
  kern::Pid pid = r0().spawn("bad-open");
  app::UserLib lib(r0(), pid, r0().ip_node().address());
  std::optional<util::Errc> err;
  lib.open_connection("", "svc", "", "",
                      [&](util::Result<app::OpenResult> r) { err = r.error(); });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::no_route);
}

TEST_F(LibFixture, OversizedOpenFailsAndTheChannelStaysInSync) {
  CallServer server(r1(), r1().ip_node().address(), "sync", 4920);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid pid = r0().spawn("big-comment");
  app::UserLib lib(r0(), pid, r0().ip_node().address());
  // A 70,000-byte comment cannot fit one CONNECT_REQ: its u16 length
  // prefix would wrap, and sighost's framer would then misread the valid
  // request sent right behind it on the same channel.
  std::optional<util::Errc> big;
  std::optional<util::Errc> big_cookie;
  lib.open_connection("berkeley.rt", "sync", std::string(70'000, 'c'), "",
                      [&](util::Result<app::OpenResult> r) { big = r.error(); },
                      [&](util::Result<sig::Cookie> c) { big_cookie = c.error(); });
  std::optional<util::Result<app::OpenResult>> next;
  lib.open_connection("berkeley.rt", "sync", "", "",
                      [&](util::Result<app::OpenResult> r) { next = r; });
  std::optional<util::Errc> big_export;
  lib.export_service(std::string(70'000, 's'), 4921,
                     [&](util::Result<void> r) { big_export = r.error(); });
  tb->sim().run_for(sim::seconds(5));
  EXPECT_EQ(big, util::Errc::message_too_long);
  EXPECT_EQ(big_cookie, util::Errc::message_too_long);
  EXPECT_EQ(big_export, util::Errc::message_too_long);
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(next->ok()) << util::to_string(next->error());
}

TEST_F(LibFixture, OverLongIncomingConnIsRefused) {
  // The server is on mh.rt, the client on berkeley.rt.  The comment fills
  // the CONNECT_REQ (destination "mh.rt") to the byte, so the callee's
  // INCOMING_CONN, which carries the longer originator name instead,
  // would be 6 bytes over the framing limit.
  const std::string service = "long";
  CallServer server(r0(), r0().ip_node().address(), service, 4930);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid pid = r1().spawn("long-comment");
  app::UserLib lib(r1(), pid, r1().ip_node().address());
  const std::string dst = r0().atm_address().name;
  const std::string comment(
      sig::kMaxMsgBytes - sig::wire_size(dst.size() + service.size()), 'c');
  ASSERT_EQ(sig::wire_size(r1().atm_address().name.size() + service.size() +
                           comment.size()),
            sig::kMaxMsgBytes + 6);
  std::optional<util::Errc> big;
  lib.open_connection(dst, service, comment, "",
                      [&](util::Result<app::OpenResult> r) { big = r.error(); });
  // Past sighost's 30 s request timeout: a lost request ends as timed_out.
  tb->sim().run_for(sim::seconds(35));
  EXPECT_EQ(big, util::Errc::message_too_long);

  std::optional<util::Result<app::OpenResult>> next;
  lib.open_connection(dst, service, "", "",
                      [&](util::Result<app::OpenResult> r) { next = r; });
  tb->sim().run_for(sim::seconds(5));
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(next->ok()) << util::to_string(next->error());
}

TEST_F(LibFixture, CancelFromAnotherConnectionIsIgnored) {
  // A cookie names a request only on the connection that issued it: another
  // process on the same router presenting it cancels nothing.
  CallServer server(r1(), r1().ip_node().address(), "guarded-call", 4931);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  app::UserLib owner(r0(), r0().spawn("owner"), r0().ip_node().address());
  app::UserLib intruder(r0(), r0().spawn("intruder"), r0().ip_node().address());
  // Bring the intruder's signaling channel up: cancel_request needs one.
  intruder.open_connection("berkeley.rt", "no-such-service", "", "",
                           [](util::Result<app::OpenResult>) {});
  tb->sim().run_for(sim::seconds(1));

  std::optional<util::Errc> cancel_sent;
  std::optional<util::Result<app::OpenResult>> opened;
  owner.open_connection(
      "berkeley.rt", "guarded-call", "", "",
      [&](util::Result<app::OpenResult> r) { opened = r; },
      [&](util::Result<sig::Cookie> c) {
        ASSERT_TRUE(c.ok());
        intruder.cancel_request(
            *c, [&](util::Result<void> r) { cancel_sent = r.error(); });
      });
  tb->sim().run_for(sim::seconds(5));
  EXPECT_EQ(cancel_sent, util::Errc::ok);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->ok()) << util::to_string(opened->error());
  EXPECT_EQ(tb->router(0).sighost->stats().cancels, 0u);
}

TEST_F(LibFixture, CookieCallbacksStayMatchedAcrossAChannelReset) {
  // A CONNECT_REQ that dies with the signaling channel answers its own
  // on_req_id with connection_reset, so the next open's cookie reaches the
  // next open's callback.
  app::UserLib lib(r0(), r0().spawn("resetting"), r0().ip_node().address());
  lib.open_connection("berkeley.rt", "no-such-service", "", "",
                      [](util::Result<app::OpenResult>) {});
  tb->sim().run_for(sim::seconds(1));  // the channel is up

  using Outcomes = std::vector<std::string_view>;  // "ok" stands for a cookie
  Outcomes a_ids, b_ids;
  std::optional<util::Errc> a_done;
  lib.open_connection(
      "berkeley.rt", "no-such-service", "", "",
      [&](util::Result<app::OpenResult> r) { a_done = r.error(); },
      [&](util::Result<sig::Cookie> c) {
        a_ids.push_back(util::to_string(c.error()));
      });
  // A's CONNECT_REQ has left; sighost 0 dies before its REQ_ID returns.
  tb->crash_sighost(0);
  tb->sim().run_for(sim::milliseconds(200));
  ASSERT_TRUE(tb->restart_sighost(0).ok());
  tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(a_done, util::Errc::connection_reset);

  lib.open_connection(
      "berkeley.rt", "no-such-service", "", "",
      [](util::Result<app::OpenResult>) {},
      [&](util::Result<sig::Cookie> c) {
        b_ids.push_back(util::to_string(c.error()));
      });
  tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(a_ids, Outcomes{util::to_string(util::Errc::connection_reset)});
  EXPECT_EQ(b_ids, Outcomes{util::to_string(util::Errc::ok)});
}

TEST_F(LibFixture, AwaitQueuesWhenRequestsArriveFirst) {
  kern::Pid pid = r1().spawn("lazy-await");
  app::UserLib lib(r1(), pid, r1().ip_node().address());
  lib.export_service("queued", 4913, [](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  // Three calls arrive before the server ever awaits.
  CallClient client(r0(), r0().ip_node().address());
  for (int i = 0; i < 3; ++i) {
    client.open("berkeley.rt", "queued", "",
                [](util::Result<CallClient::Call>) {});
  }
  tb->sim().run_for(sim::seconds(2));

  // Now the server awaits three times and gets all three queued requests.
  int got = 0;
  for (int i = 0; i < 3; ++i) {
    lib.await_service_request([&](util::Result<app::IncomingRequest> r) {
      if (r.ok()) {
        ++got;
        lib.reject_connection(*r);
      }
    });
  }
  tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(got, 3);
}

TEST_F(LibFixture, DoubleAwaitIsRejected) {
  kern::Pid pid = r1().spawn("double-await");
  app::UserLib lib(r1(), pid, r1().ip_node().address());
  lib.await_service_request([](util::Result<app::IncomingRequest>) {});
  std::optional<util::Errc> err;
  lib.await_service_request(
      [&](util::Result<app::IncomingRequest> r) { err = r.error(); });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::would_block);
}

TEST_F(LibFixture, PerCallFailureWithoutReasonReadsAsRejected) {
  // CONN_FAILED with reason 0 names no failure.  On a per-call connection
  // the accept callback must still get a failure, the same one the
  // signaling channel reports: rejected.
  app::UserLib server(r1(), r1().spawn("zero-reason"), r1().ip_node().address());
  std::optional<app::IncomingRequest> req;
  server.export_service("zero", 4932, [](util::Result<void>) {});
  server.await_service_request([&](util::Result<app::IncomingRequest> r) {
    if (r.ok()) req = *r;
  });
  tb->sim().run_for(sim::milliseconds(300));

  // A test process plays sighost on the server's notify port.
  const kern::Pid fake = r1().spawn("fake-sighost");
  auto fd = r1().tcp_connect(fake, r1().ip_node().address(), 4932,
                             [](util::Result<int>) {});
  ASSERT_TRUE(fd.ok());
  tb->sim().run_for(sim::milliseconds(100));
  sig::Msg incoming;
  incoming.type = sig::MsgType::incoming_conn;
  incoming.cookie = 0x1234;
  incoming.service = "zero";
  incoming.dst = r0().atm_address().name;
  ASSERT_TRUE(r1().tcp_send(fake, *fd, sig::frame(incoming)).ok());
  tb->sim().run_for(sim::milliseconds(100));
  ASSERT_TRUE(req.has_value());

  std::optional<util::Errc> accepted;
  server.accept_connection(*req, "", [&](util::Result<app::OpenResult> r) {
    accepted = r.ok() ? util::Errc::ok : r.error();
  });
  sig::Msg failed;
  failed.type = sig::MsgType::conn_failed;  // error stays 0
  ASSERT_TRUE(r1().tcp_send(fake, *fd, sig::frame(failed)).ok());
  tb->sim().run_for(sim::milliseconds(100));
  EXPECT_EQ(accepted, util::Errc::rejected);
}

// --------------------------------------------------- kernel event buffering

TEST_F(LibFixture, XunetSocketBuffersFramesUntilReaderRegisters) {
  CallServer server(r1(), r1().ip_node().address(), "buffered", 4914);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(r0(), r0().ip_node().address());
  std::optional<CallClient::Call> call;
  client.open("berkeley.rt", "buffered", "",
              [&](util::Result<CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(call.has_value());

  // A second receiving socket bound by hand, with frames arriving before
  // the read handler exists.
  // (The CallServer auto-registered; use its own socket state to verify the
  // end-to-end path instead: frames already counted.)
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send(*call, util::Buffer(10, 1)).ok());
  }
  tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(server.frames_received(), 5u);
}

TEST(KernelBuffering, RxQueueOverflowDropsLikeADatagramSocket) {
  sim::Simulator sim;
  kern::Kernel k(sim, "m", kern::Kernel::Role::host, ip::make_ip(9, 9, 9, 9),
                 atm::AtmAddress{"m"});
  kern::Pid pid = k.spawn("slow-reader");
  auto fd = k.xunet_socket(pid);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.xunet_bind(pid, *fd, 70, 1).ok());
  // Inject 100 frames through the Orc driver with no reader registered:
  // the socket buffer holds 64, the rest drop.
  for (int i = 0; i < 100; ++i) {
    k.orc().input(70, kern::MbufChain::from_bytes(util::Buffer(8, 0x2), 128));
  }
  EXPECT_EQ(k.xunet_frames_dropped(), 100u - 64u);
  // Registering the reader now drains the 64 buffered frames.
  int got = 0;
  ASSERT_TRUE(k.xunet_on_receive(pid, *fd, [&](util::BytesView) { ++got; }).ok());
  sim.run();
  EXPECT_EQ(got, 64);
}

TEST(KernelBuffering, TcpDataBeforeHandlerIsDelivered) {
  sim::Simulator sim;
  kern::Kernel ka(sim, "a", kern::Kernel::Role::host, ip::make_ip(1, 1, 1, 1),
                  atm::AtmAddress{"a"});
  kern::Kernel kb(sim, "b", kern::Kernel::Role::host, ip::make_ip(2, 2, 2, 2),
                  atm::AtmAddress{"b"});
  ip::IpLink link(sim, ip::kFddiBps, sim::microseconds(50), ip::kFddiMtu);
  link.attach(ka.ip_node(), kb.ip_node());
  ka.ip_node().set_default_route(link);
  kb.ip_node().set_default_route(link);

  kern::Pid sp = kb.spawn("server");
  kern::Pid cp = ka.spawn("client");
  std::optional<int> afd, cfd;
  ASSERT_TRUE(kb.tcp_listen(sp, 80, [&](int fd) { afd = fd; }).ok());
  (void)ka.tcp_connect(cp, kb.ip_node().address(), 80,
                       [&](util::Result<int> r) { cfd = *r; });
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(afd && cfd);

  // Client sends before the server registers any receive handler.
  ASSERT_TRUE(ka.tcp_send(cp, *cfd, util::to_buffer(std::string_view("early"))).ok());
  sim.run_for(sim::milliseconds(200));
  std::string got;
  ASSERT_TRUE(kb.tcp_on_receive(sp, *afd, [&](util::BytesView d) {
                  got += util::to_text(d);
                }).ok());
  sim.run_for(sim::milliseconds(100));
  EXPECT_EQ(got, "early");
}

TEST(KernelBuffering, TcpCloseBeforeHandlerIsDelivered) {
  sim::Simulator sim;
  kern::Kernel ka(sim, "a", kern::Kernel::Role::host, ip::make_ip(1, 1, 1, 1),
                  atm::AtmAddress{"a"});
  kern::Kernel kb(sim, "b", kern::Kernel::Role::host, ip::make_ip(2, 2, 2, 2),
                  atm::AtmAddress{"b"});
  ip::IpLink link(sim, ip::kFddiBps, sim::microseconds(50), ip::kFddiMtu);
  link.attach(ka.ip_node(), kb.ip_node());
  ka.ip_node().set_default_route(link);
  kb.ip_node().set_default_route(link);

  kern::Pid sp = kb.spawn("server");
  kern::Pid cp = ka.spawn("client");
  std::optional<int> afd, cfd;
  ASSERT_TRUE(kb.tcp_listen(sp, 80, [&](int fd) { afd = fd; }).ok());
  (void)ka.tcp_connect(cp, kb.ip_node().address(), 80,
                       [&](util::Result<int> r) { cfd = *r; });
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(afd && cfd);

  // The client process dies (RST) before the server registered tcp_on_close.
  ASSERT_TRUE(ka.kill_process(cp).ok());
  sim.run_for(sim::milliseconds(200));
  std::optional<util::Errc> reason;
  ASSERT_TRUE(kb.tcp_on_close(sp, *afd, [&](util::Errc e) { reason = e; }).ok());
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, util::Errc::connection_reset);
  // The descriptor is still close()able and frees cleanly.
  EXPECT_TRUE(kb.close(sp, *afd).ok());
  EXPECT_EQ(kb.fd_in_use(sp), 1u);  // just the listener
}

// ------------------------------------------------------------- anand stubs

TEST(AnandStubs, HostIndicationsReachTheRouterSighost) {
  // Covered end-to-end by integration tests; here, verify the specific
  // relay path counters: a host bind indication must create a VCI_BIND at
  // the router even when sighost state for it is stale.
  auto tb = TestbedConfig{}.hosts(2).build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& h0 = tb->host(0);
  kern::Pid pid = h0.kernel->spawn("odd-binder");
  auto fd = h0.kernel->xunet_socket(pid);
  ASSERT_TRUE(fd.ok());
  // Bind to an arbitrary VCI with a garbage cookie: the indication flows
  // host kernel -> anand client -> anand server, which installs VCI_BIND
  // before relaying to sighost.  No call exists for the VCI, so the sighost
  // answers the stale indication with a downward disconnect: the VCI_BIND
  // is shut again and the host's socket is marked unusable, instead of
  // being left bound to a dead VCI forever.
  ASSERT_TRUE(h0.kernel->xunet_bind(pid, *fd, 99, 0xDEAD).ok());
  tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(tb->router(0).anand_server->forwarded_vci_count(), 0u);
  // No call existed, so nothing counts as a teardown.
  EXPECT_EQ(tb->router(0).sighost->stats().calls_torn_down, 0u);
  // The downward disconnect reached the host kernel: the socket is dead.
  EXPECT_FALSE(h0.kernel->xunet_send(pid, *fd, util::Buffer{1, 2, 3}).ok());
}

TEST(AnandStubs, DownwardDisconnectReachesTheRightHost) {
  auto tb = TestbedConfig{}.hosts(2).build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& h1 = tb->host(1);
  CallServer server(*h1.kernel, h1.home->kernel->ip_node().address(), "dsvc",
                    4920);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*tb->host(0).kernel,
                    tb->host(0).home->kernel->ip_node().address());
  std::optional<CallClient::Call> call;
  client.open("berkeley.rt", "dsvc", "",
              [&](util::Result<CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(3));
  ASSERT_TRUE(call.has_value());
  ASSERT_EQ(server.open_sockets(), 1u);

  // Client host dies: the teardown's downward disconnect must cross two
  // relay hops (sighost -> anand server -> anand client at the far host).
  client.kill();
  tb->sim().run_for(sim::seconds(5));
  EXPECT_EQ(server.open_sockets(), 0u);  // server saw the disconnect, closed
  EXPECT_TRUE(tb->audit().clean()) << tb->audit().describe();
}

}  // namespace
}  // namespace xunet
