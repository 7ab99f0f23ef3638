// kern_test.cpp — the simulated kernel: mbufs, instruction accounting, the
// /dev/anand pseudo-device, descriptor tables, PF_XUNET sockets and the
// process-termination hooks.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "kern/kernel.hpp"
#include "util/alloc_hook.hpp"

namespace xunet::kern {
namespace {

// -------------------------------------------------------------------- mbuf

TEST(Mbuf, FromBytesShapesChain) {
  util::Buffer data(300, 0x5A);
  MbufChain c = MbufChain::from_bytes(data, 128);
  EXPECT_EQ(c.mbuf_count(), 3u);  // 128 + 128 + 44
  EXPECT_EQ(c.total_bytes(), 300u);
  EXPECT_EQ(util::to_buffer(c.bytes()), data);
}

TEST(Mbuf, EmptyDataStillOneMbuf) {
  MbufChain c = MbufChain::from_bytes({}, 128);
  EXPECT_EQ(c.mbuf_count(), 1u);
  EXPECT_EQ(c.total_bytes(), 0u);
}

TEST(Mbuf, ShapedChainExactControl) {
  MbufChain c = MbufChain::shaped(7, 100);
  EXPECT_EQ(c.mbuf_count(), 7u);
  EXPECT_EQ(c.total_bytes(), 700u);
}

// ----------------------------------------------------------- InstrCounter

TEST(Instr, MicroOpSumsMatchThePaper) {
  // The calibration invariant behind Table 1: per-layer micro-op sums equal
  // the published per-layer counts.
  EXPECT_EQ(kAtmRecvDemux + kAtmRecvValidate + kAtmRecvSeqCheck +
                kAtmRecvVciExtract + kAtmRecvHandoff,
            36u);
  EXPECT_EQ(kAtmSendHdrAlloc + kAtmSendFields + kAtmSendSeqUpdate +
                kAtmSendRoute + kAtmSendEnqueue,
            58u);
  EXPECT_EQ(kPfxRecvPcbLookup + kPfxRecvSockChecks + kPfxRecvSbAppend +
                kPfxRecvWakeup,
            99u);
  EXPECT_EQ(kSwitchValidate + kSwitchSeqCheck + kSwitchVciLookup +
                kSwitchHandoff,
            39u);
  EXPECT_EQ(kIpSend, 61u);
  EXPECT_EQ(kIpRecv, 57u);
  EXPECT_EQ(kOrcRecvDispatch, 2u);
  EXPECT_EQ(kPerMbufWalk, 8u);
}

TEST(Instr, CounterAccumulatesPerComponentAndDirection) {
  InstrCounter c;
  c.charge(InstrComponent::ip_layer, InstrDir::send, 61);
  c.charge(InstrComponent::ip_layer, InstrDir::receive, 57);
  c.charge(InstrComponent::pf_xunet, InstrDir::receive, 99);
  EXPECT_EQ(c.total(InstrComponent::ip_layer, InstrDir::send), 61u);
  EXPECT_EQ(c.path_total(InstrDir::receive), 57u + 99u);
  // Router switching excluded from host path totals (reported separately).
  c.charge(InstrComponent::router_switch, InstrDir::receive, 39);
  EXPECT_EQ(c.path_total(InstrDir::receive), 57u + 99u);
  c.reset();
  EXPECT_EQ(c.path_total(InstrDir::receive), 0u);
}

// ------------------------------------------------------------- AnandDevice

TEST(Anand, BoundedBufferDropsWhenFull) {
  AnandDevice dev(3);
  for (int i = 0; i < 5; ++i) {
    dev.post(AnandUpMsg{AnandUpType::bind_indication,
                        static_cast<atm::Vci>(100 + i), 0, 1});
  }
  EXPECT_EQ(dev.queued(), 3u);
  EXPECT_EQ(dev.posted(), 3u);
  EXPECT_EQ(dev.dropped(), 2u);  // the §10 lost-bind-indication failure
}

TEST(Anand, ReadDrainsInFifoOrder) {
  AnandDevice dev(10);
  dev.post(AnandUpMsg{AnandUpType::bind_indication, 1, 0, 0});
  dev.post(AnandUpMsg{AnandUpType::connect_indication, 2, 0, 0});
  auto m1 = dev.read();
  auto m2 = dev.read();
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(m1->vci, 1);
  EXPECT_EQ(m2->vci, 2);
  EXPECT_EQ(dev.read().error(), util::Errc::would_block);
}

TEST(Anand, ReadableFiresOnEmptyToNonEmptyEdge) {
  AnandDevice dev(10);
  int wakeups = 0;
  dev.set_readable_handler([&] { ++wakeups; });
  dev.post(AnandUpMsg{});
  dev.post(AnandUpMsg{});  // still non-empty: no second wakeup
  EXPECT_EQ(wakeups, 1);
  (void)dev.read();
  (void)dev.read();
  dev.post(AnandUpMsg{});
  EXPECT_EQ(wakeups, 2);
}

TEST(Anand, DownwardWriteReachesKernelHandler) {
  AnandDevice dev(10);
  std::optional<AnandDownMsg> got;
  dev.set_down_handler([&](const AnandDownMsg& m) { got = m; });
  dev.write(AnandDownMsg{AnandDownType::disconnect_socket, 44});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->vci, 44);
}

// ------------------------------------------------------------------ Kernel

struct KernelFixture : ::testing::Test {
  sim::Simulator sim;
  KernelConfig cfg;
  std::unique_ptr<Kernel> k;

  void SetUp() override {
    cfg.fd_table_size = 5;
    k = std::make_unique<Kernel>(sim, "m", Kernel::Role::host,
                                 ip::make_ip(9, 9, 9, 9),
                                 atm::AtmAddress{"m"}, cfg);
  }
};

TEST_F(KernelFixture, ProcessLifecycle) {
  Pid p = k->spawn("app");
  EXPECT_TRUE(k->alive(p));
  EXPECT_EQ(k->live_process_count(), 1u);
  ASSERT_TRUE(k->exit_process(p).ok());
  EXPECT_FALSE(k->alive(p));
  EXPECT_EQ(k->exit_process(p).error(), util::Errc::not_found);
}

TEST_F(KernelFixture, FdTableExhaustionIsEmfile) {
  Pid p = k->spawn("app");
  std::vector<int> fds;
  for (std::size_t i = 0; i < cfg.fd_table_size; ++i) {
    auto fd = k->xunet_socket(p);
    ASSERT_TRUE(fd.ok());
    fds.push_back(*fd);
  }
  EXPECT_EQ(k->xunet_socket(p).error(), util::Errc::too_many_files);
  // Closing one frees a slot.
  ASSERT_TRUE(k->close(p, fds[0]).ok());
  EXPECT_TRUE(k->xunet_socket(p).ok());
}

TEST_F(KernelFixture, XunetBindPostsIndication) {
  Pid p = k->spawn("app");
  auto fd = k->xunet_socket(p);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k->xunet_bind(p, *fd, 70, 0xBEEF).ok());
  EXPECT_EQ(k->anand().queued(), 1u);
  auto m = k->anand().read();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->type, AnandUpType::bind_indication);
  EXPECT_EQ(m->vci, 70);
  EXPECT_EQ(m->cookie, 0xBEEF);
  EXPECT_EQ(m->pid, p);
}

TEST_F(KernelFixture, QueuedFrameReachesTheHandlerItWasQueuedTo) {
  // A frame whose delivery is already scheduled goes to the handler that
  // was installed when it was queued, even if xunet_on_receive replaces
  // that handler before the delivery runs.  This holds for frames drained
  // from the socket buffer and for frames that found a reader waiting.
  Pid p = k->spawn("app");
  auto fd = k->xunet_socket(p);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k->xunet_bind(p, *fd, 70, 1).ok());
  auto frame = [&](std::uint8_t tag) {
    k->orc().input(70, MbufChain::from_bytes(util::Buffer(8, tag), 128));
  };
  std::vector<std::pair<char, int>> got;
  auto handler = [&got](char name) {
    return [&got, name](util::BytesView d) { got.emplace_back(name, d[0]); };
  };
  frame(1);  // no reader yet: sbappend()ed
  frame(2);
  ASSERT_TRUE(k->xunet_on_receive(p, *fd, handler('a')).ok());  // drains 1, 2 to a
  frame(3);                                                       // queued to a
  ASSERT_TRUE(k->xunet_on_receive(p, *fd, handler('b')).ok());
  frame(4);  // queued to b
  EXPECT_TRUE(got.empty());
  sim.run();
  EXPECT_EQ(got, (std::vector<std::pair<char, int>>{{'a', 1}, {'a', 2}, {'a', 3}, {'b', 4}}));
}

TEST_F(KernelFixture, XunetSocketStateMachine) {
  Pid p = k->spawn("app");
  auto fd = k->xunet_socket(p);
  ASSERT_TRUE(fd.ok());
  // Send before connect fails.
  EXPECT_EQ(k->xunet_send(p, *fd, util::Buffer{}).error(), util::Errc::not_connected);
  ASSERT_TRUE(k->xunet_connect(p, *fd, 70, 1).ok());
  // Double connect fails.
  EXPECT_EQ(k->xunet_connect(p, *fd, 71, 1).error(),
            util::Errc::already_connected);
  EXPECT_TRUE(k->xunet_usable(p, *fd));
}

TEST_F(KernelFixture, DuplicateBindToSameVciRejected) {
  Pid p = k->spawn("app");
  auto f1 = k->xunet_socket(p);
  auto f2 = k->xunet_socket(p);
  ASSERT_TRUE(k->xunet_bind(p, *f1, 70, 1).ok());
  EXPECT_EQ(k->xunet_bind(p, *f2, 70, 2).error(), util::Errc::address_in_use);
}

TEST_F(KernelFixture, DisconnectMarksSocketUnusable) {
  Pid p = k->spawn("app");
  auto fd = k->xunet_socket(p);
  ASSERT_TRUE(k->xunet_connect(p, *fd, 70, 1).ok());
  bool notified = false;
  ASSERT_TRUE(k->xunet_on_disconnect(p, *fd, [&] { notified = true; }).ok());
  k->mark_vci_disconnected(70);
  sim.run();
  EXPECT_TRUE(notified);
  EXPECT_FALSE(k->xunet_usable(p, *fd));
  EXPECT_EQ(k->xunet_send(p, *fd, util::Buffer{}).error(), util::Errc::connection_reset);
}

TEST_F(KernelFixture, DisconnectCallbacksFireInSocketCreationOrder) {
  // Regression pin for the DET-UNORD-ITER finding xunet_lint surfaced here:
  // mark_vci_disconnected used to walk the unordered socket table directly
  // while scheduling on_disconnect callbacks, so hash order decided the
  // event order.  It now schedules over a sorted handle snapshot, and
  // handles are allocated sequentially — so callbacks must fire in socket
  // creation order.  16 sockets make an accidental hash-order match
  // vanishingly unlikely.
  constexpr int kSocks = 16;
  std::vector<int> order;
  for (int i = 0; i < kSocks; ++i) {
    Pid p = k->spawn("app" + std::to_string(i));
    auto fd = k->xunet_socket(p);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(k->xunet_connect(p, *fd, 70, 1).ok());
    ASSERT_TRUE(
        k->xunet_on_disconnect(p, *fd, [&order, i] { order.push_back(i); })
            .ok());
  }
  k->mark_vci_disconnected(70);
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kSocks));
  for (int i = 0; i < kSocks; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(KernelFixture, VciTeardownDisconnectsOnlyThatVcisSockets) {
  // The VCI index: a teardown reaches the bound and the connected socket
  // on its VCI, in creation order, and no socket on another VCI.
  std::vector<std::string> order;
  auto open = [&](const std::string& name, atm::Vci vci, bool bind) {
    Pid p = k->spawn(name);
    auto fd = k->xunet_socket(p);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((bind ? k->xunet_bind(p, *fd, vci, 1) : k->xunet_connect(p, *fd, vci, 1)).ok());
    EXPECT_TRUE(k->xunet_on_disconnect(p, *fd, [&order, name] { order.push_back(name); }).ok());
    return std::pair{p, *fd};
  };
  auto [pa, fa] = open("bound70", 70, true);
  auto [pb, fb] = open("other71", 71, true);
  auto [pc, fc] = open("connected70", 70, false);
  auto [pd, fd] = open("connected72", 72, false);
  k->mark_vci_disconnected(70);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"bound70", "connected70"}));
  EXPECT_FALSE(k->xunet_usable(pa, fa));
  EXPECT_FALSE(k->xunet_usable(pc, fc));
  EXPECT_TRUE(k->xunet_usable(pb, fb));
  EXPECT_TRUE(k->xunet_usable(pd, fd));
  // VCI 70 is free for a new call while the dead sockets linger; 71 is
  // still taken until its socket closes.
  Pid q = k->spawn("rebind");
  auto f70 = k->xunet_socket(q);
  EXPECT_TRUE(k->xunet_bind(q, *f70, 70, 2).ok());
  auto f71 = k->xunet_socket(q);
  EXPECT_EQ(k->xunet_bind(q, *f71, 71, 2).error(), util::Errc::address_in_use);
  ASSERT_TRUE(k->close(pb, fb).ok());
  EXPECT_TRUE(k->xunet_bind(q, *f71, 71, 2).ok());
  k->mark_vci_disconnected(72);
  sim.run();
  EXPECT_EQ(order.back(), "connected72");
  EXPECT_TRUE(k->xunet_usable(q, *f70));
}

TEST_F(KernelFixture, CloseOfActiveSocketPostsTermination) {
  Pid p = k->spawn("app");
  auto fd = k->xunet_socket(p);
  ASSERT_TRUE(k->xunet_connect(p, *fd, 70, 0xAA).ok());
  (void)k->anand().read();  // drop the connect indication
  ASSERT_TRUE(k->close(p, *fd).ok());
  auto m = k->anand().read();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->type, AnandUpType::process_terminated);
  EXPECT_EQ(m->vci, 70);
}

TEST_F(KernelFixture, ProcessTerminationPostsForEveryActiveVci) {
  Pid p = k->spawn("app");
  auto f1 = k->xunet_socket(p);
  auto f2 = k->xunet_socket(p);
  auto f3 = k->xunet_socket(p);  // never bound: no termination message
  ASSERT_TRUE(k->xunet_bind(p, *f1, 70, 1).ok());
  ASSERT_TRUE(k->xunet_connect(p, *f2, 71, 2).ok());
  (void)f3;
  (void)k->anand().read();
  (void)k->anand().read();
  ASSERT_TRUE(k->kill_process(p).ok());
  std::set<atm::Vci> vcis;
  for (;;) {
    auto m = k->anand().read();
    if (!m.ok()) break;
    EXPECT_EQ(m->type, AnandUpType::process_terminated);
    vcis.insert(m->vci);
  }
  EXPECT_EQ(vcis, (std::set<atm::Vci>{70, 71}));
  EXPECT_EQ(k->xunet_socket_count(), 0u);
}

TEST_F(KernelFixture, FullAnandBufferLosesIndications) {
  k->anand().set_capacity(2);
  Pid p = k->spawn("app");
  for (int i = 0; i < 4; ++i) {
    auto fd = k->xunet_socket(p);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(k->xunet_bind(p, *fd, static_cast<atm::Vci>(80 + i), 1).ok());
  }
  EXPECT_EQ(k->anand().dropped(), 2u);  // binds still succeeded locally
}

TEST_F(KernelFixture, ProcessTerminationSurvivesFullAnandBuffer) {
  // Bind/connect indication loss is repaired by the sighost's wait_for_bind
  // watchdog; a lost process_terminated has no such backstop — the sighost
  // would hold the call (and the network its VC) forever.  The kernel must
  // therefore retry the post until the daemon drains buffer space.
  // (xunet_model relies on this: its product machine models
  // process_terminated delivery as reliable.)
  k->anand().set_capacity(2);
  Pid p = k->spawn("app");
  auto bound = k->xunet_socket(p);
  ASSERT_TRUE(k->xunet_bind(p, *bound, 70, 1).ok());
  // The bind indication plus one filler occupy the whole buffer.
  auto filler = k->xunet_socket(p);
  ASSERT_TRUE(k->xunet_bind(p, *filler, 71, 2).ok());
  EXPECT_EQ(k->anand().queued(), 2u);
  // Closing the bound socket cannot post process_terminated yet.
  ASSERT_TRUE(k->close(p, *bound).ok());
  sim.run_for(cfg.context_switch * 3);
  EXPECT_EQ(k->anand().queued(), 2u);  // still full, nothing lost to it
  // The daemon drains one slot; the retry must deliver the termination.
  (void)k->anand().read();
  sim.run_for(cfg.context_switch * 3);
  bool saw_term = false;
  for (;;) {
    auto m = k->anand().read();
    if (!m.ok()) break;
    if (m->type == AnandUpType::process_terminated && m->vci == 70) {
      saw_term = true;
    }
  }
  EXPECT_TRUE(saw_term);
  EXPECT_EQ(k->anand().dropped(), 0u);
}

TEST_F(KernelFixture, AnandSingleHolder) {
  Pid p1 = k->spawn("daemon1");
  Pid p2 = k->spawn("daemon2");
  auto f1 = k->open_anand(p1);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(k->open_anand(p2).error(), util::Errc::address_in_use);
  ASSERT_TRUE(k->close(p1, *f1).ok());
  EXPECT_TRUE(k->open_anand(p2).ok());
}

TEST_F(KernelFixture, SyscallsFromDeadProcessFail) {
  Pid p = k->spawn("app");
  auto fd = k->xunet_socket(p);
  ASSERT_TRUE(k->kill_process(p).ok());
  EXPECT_EQ(k->xunet_socket(p).error(), util::Errc::not_found);
  EXPECT_EQ(k->xunet_send(p, *fd, util::Buffer{}).error(), util::Errc::not_found);
}

TEST_F(KernelFixture, ControlSyscallsRequireRouterRole) {
  Pid p = k->spawn("app");
  auto fd = k->proto_atm_socket(p);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k->proto_atm_vci_bind(p, *fd, 70, ip::make_ip(1, 1, 1, 1)).error(),
            util::Errc::invalid_argument);
  // set_router works on hosts (that is its role).
  EXPECT_TRUE(k->proto_atm_set_router(p, *fd, ip::make_ip(1, 1, 1, 1)).ok());
  EXPECT_EQ(*k->proto_atm().router_address(), ip::make_ip(1, 1, 1, 1));
}

// -------------------------------------------- TCP socket + fd interaction

struct TwoKernelFixture : ::testing::Test {
  sim::Simulator sim;
  KernelConfig cfg;
  std::unique_ptr<Kernel> ka, kb;
  std::unique_ptr<ip::IpLink> link;

  void SetUp() override {
    cfg.fd_table_size = 4;
    ka = std::make_unique<Kernel>(sim, "a", Kernel::Role::host,
                                  ip::make_ip(1, 1, 1, 1),
                                  atm::AtmAddress{"a"}, cfg);
    kb = std::make_unique<Kernel>(sim, "b", Kernel::Role::host,
                                  ip::make_ip(2, 2, 2, 2),
                                  atm::AtmAddress{"b"}, cfg);
    link = std::make_unique<ip::IpLink>(sim, ip::kFddiBps,
                                        sim::microseconds(50), ip::kFddiMtu);
    link->attach(ka->ip_node(), kb->ip_node());
    ka->ip_node().set_default_route(*link);
    kb->ip_node().set_default_route(*link);
  }
};

TEST_F(TwoKernelFixture, TcpConnectAcceptSendReceive) {
  Pid server = kb->spawn("server");
  Pid client = ka->spawn("client");
  std::optional<int> accepted_fd;
  ASSERT_TRUE(kb->tcp_listen(server, 80, [&](int fd) { accepted_fd = fd; }).ok());
  std::optional<int> cfd;
  auto r = ka->tcp_connect(client, kb->ip_node().address(), 80,
                           [&](util::Result<int> rr) {
                             ASSERT_TRUE(rr.ok());
                             cfd = *rr;
                           });
  ASSERT_TRUE(r.ok());
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(accepted_fd.has_value());
  ASSERT_TRUE(cfd.has_value());

  std::string got;
  ASSERT_TRUE(kb->tcp_on_receive(server, *accepted_fd, [&](util::BytesView d) {
                  got += util::to_text(d);
                }).ok());
  ASSERT_TRUE(ka->tcp_send(client, *cfd, util::to_buffer(std::string_view("rpc"))).ok());
  sim.run_for(sim::milliseconds(100));
  EXPECT_EQ(got, "rpc");
}

TEST_F(TwoKernelFixture, IdleConnectionAndBoundSocketHoldNoQueueStorage) {
  // A held call keeps an idle TCP connection and a bound PF_XUNET socket
  // per end; neither may carry queue storage before data is queued.  On
  // warm tables, opening one more connection (both ends, handshake
  // included) and binding one socket costs the records, index nodes,
  // handlers and segments alone.  An eagerly built std::deque adds two
  // allocations (its map and first node) per TCP end and per socket.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "alloc hook not linked into this binary";
  }
  Pid server = kb->spawn("server");
  Pid client = ka->spawn("client");
  int accepted = 0;
  ASSERT_TRUE(kb->tcp_listen(server, 80, [&](int) { ++accepted; }).ok());
  auto open_idle = [&] {
    ASSERT_TRUE(ka->tcp_connect(client, kb->ip_node().address(), 80,
                                [](util::Result<int> r) { ASSERT_TRUE(r.ok()); })
                    .ok());
    sim.run_for(sim::milliseconds(100));
  };
  open_idle();  // warm: fd tables, hash buckets and the event pool grow
  const std::uint64_t before = util::alloc_count();
  open_idle();
  auto fd = ka->xunet_socket(client);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(ka->xunet_bind(client, *fd, 70, 1).ok());
  const std::uint64_t allocs = util::alloc_count() - before;
  EXPECT_EQ(accepted, 2);
  EXPECT_LE(allocs, 38u);
}

TEST_F(TwoKernelFixture, ClosedTcpFdLingersInTimeWaitFor2Msl) {
  Pid server = kb->spawn("server");
  Pid client = ka->spawn("client");
  std::optional<int> afd, cfd;
  ASSERT_TRUE(kb->tcp_listen(server, 80, [&](int fd) { afd = fd; }).ok());
  (void)ka->tcp_connect(client, kb->ip_node().address(), 80,
                        [&](util::Result<int> r) { cfd = *r; });
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(afd && cfd);

  std::size_t before = kb->fd_in_use(server);
  // Server actively closes its accepted fd (like the per-call signaling
  // conns): the slot must stay occupied through TIME_WAIT.
  ASSERT_TRUE(kb->close(server, *afd).ok());
  sim.run_for(sim::milliseconds(200));
  ASSERT_TRUE(ka->close(client, *cfd).ok());  // passive side closes too
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(kb->fd_in_use(server), before);  // still pinned!
  EXPECT_EQ(kb->fds_in_time_wait(), 1u);

  sim.run_for(kb->tcp().config().msl * 2 + sim::seconds(1));
  EXPECT_EQ(kb->fd_in_use(server), before - 1);  // released after 2 MSL
  EXPECT_EQ(kb->fds_in_time_wait(), 0u);
}

TEST_F(TwoKernelFixture, TimeWaitReAcksARetransmittedFinAfterReleasingItsBuffers) {
  Pid server = kb->spawn("server");
  Pid client = ka->spawn("client");
  std::optional<int> afd, cfd;
  ASSERT_TRUE(kb->tcp_listen(server, 80, [&](int fd) { afd = fd; }).ok());
  (void)ka->tcp_connect(client, kb->ip_node().address(), 80,
                        [&](util::Result<int> r) { cfd = *r; });
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(afd && cfd);
  // Data both ways first, so each side has used its send buffer and
  // receive upcall.
  std::string at_server;
  ASSERT_TRUE(kb->tcp_on_receive(server, *afd, [&](util::BytesView d) {
                  at_server += util::to_text(d);
                }).ok());
  ASSERT_TRUE(ka->tcp_send(client, *cfd, util::to_buffer(std::string_view("hi"))).ok());
  ASSERT_TRUE(kb->tcp_send(server, *afd, util::to_buffer(std::string_view("yo"))).ok());
  sim.run_for(sim::milliseconds(100));
  EXPECT_EQ(at_server, "hi");

  const std::size_t before = kb->fd_in_use(server);
  ASSERT_TRUE(kb->close(server, *afd).ok());  // active close
  sim.run_for(sim::milliseconds(200));
  // The client's FIN leaves one context switch after its close(); the
  // server's ACK of it is lost, so the client retransmits the FIN to a
  // connection that is already in TIME_WAIT.
  ASSERT_TRUE(ka->close(client, *cfd).ok());
  sim.run_for(cfg.context_switch);
  link->set_down(true);
  sim.run_for(sim::milliseconds(1));
  link->set_down(false);
  EXPECT_EQ(kb->fds_in_time_wait(), 1u);
  EXPECT_EQ(ka->tcp().connection_count(), 1u);  // LAST_ACK, FIN unacked

  sim.run_for(sim::seconds(1));
  EXPECT_GT(ka->tcp().retransmits(), 0u);
  EXPECT_EQ(ka->tcp().connection_count(), 0u);  // the re-ACK closed it
  EXPECT_EQ(kb->fd_in_use(server), before);     // still pinned
  EXPECT_EQ(kb->fds_in_time_wait(), 1u);

  sim.run_for(kb->tcp().config().msl * 2);
  EXPECT_EQ(kb->fd_in_use(server), before - 1);  // released after 2 MSL
  EXPECT_EQ(kb->fds_in_time_wait(), 0u);
}

TEST_F(TwoKernelFixture, AcceptBeyondFdTableIsRefused) {
  Pid server = kb->spawn("server");
  int accepted = 0;
  ASSERT_TRUE(kb->tcp_listen(server, 80, [&](int) { ++accepted; }).ok());
  // fd table size 4; the listener occupies 1, so 3 accepts fit.
  Pid client = ka->spawn("client");
  int ok = 0, failed = 0;
  for (int i = 0; i < 6; ++i) {
    (void)ka->tcp_connect(client, kb->ip_node().address(), 80,
                          [&](util::Result<int> r) {
                            if (r.ok()) {
                              ++ok;
                            } else {
                              ++failed;
                            }
                          });
  }
  sim.run_for(sim::seconds(5));
  EXPECT_EQ(accepted, 3);
  // Note: the client-side fd table (4) also caps concurrent connects; the
  // refused connections surface as resets or refusals at the client.
  EXPECT_LE(ok, 4);
}

TEST_F(TwoKernelFixture, ProcessDeathAbortsConnectionsAndFreesFds) {
  Pid server = kb->spawn("server");
  Pid client = ka->spawn("client");
  std::optional<int> afd, cfd;
  std::optional<util::Errc> server_saw;
  ASSERT_TRUE(kb->tcp_listen(server, 80, [&](int fd) {
                  afd = fd;
                  (void)kb->tcp_on_close(server, fd,
                                         [&](util::Errc e) { server_saw = e; });
                }).ok());
  (void)ka->tcp_connect(client, kb->ip_node().address(), 80,
                        [&](util::Result<int> r) { cfd = *r; });
  sim.run_for(sim::milliseconds(100));
  ASSERT_TRUE(afd && cfd);

  ASSERT_TRUE(ka->kill_process(client).ok());
  sim.run_for(sim::milliseconds(100));
  EXPECT_EQ(ka->tcp().connection_count(), 0u);  // no TIME_WAIT after abort
  ASSERT_TRUE(server_saw.has_value());
  EXPECT_EQ(*server_saw, util::Errc::connection_reset);
}

}  // namespace
}  // namespace xunet::kern
