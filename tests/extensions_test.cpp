// extensions_test.cpp — the optional/extension features layered on the
// paper's system: the encapsulation header checksum (§7.4: "could be added
// ... if needed"), link reordering against the sequence-number guarantee,
// duplex channels composed from simplex calls (§3's return-connection
// pattern), and the network-management view of sighost state (§5.1).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/apps.hpp"
#include "core/duplex.hpp"
#include "core/testbed.hpp"
#include "userlib/userlib.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;
using core::TestbedConfig;

// ------------------------------------------------ encapsulation checksum

struct ChecksumRig {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<CallServer> server;
  std::unique_ptr<CallClient> client;
  std::optional<CallClient::Call> call;

  explicit ChecksumRig(bool checksum) {
    core::TestbedConfig cfg;
    cfg.kernel.encap_checksum = checksum;
    tb = cfg.hosts(2).build_deferred();
    EXPECT_TRUE(tb->bring_up().ok());
    auto& h1 = tb->host(1);
    server = std::make_unique<CallServer>(
        *h1.kernel, h1.home->kernel->ip_node().address(), "csum", 4600);
    server->start([](util::Result<void>) {});
    tb->sim().run_for(sim::milliseconds(300));
    client = std::make_unique<CallClient>(
        *tb->host(0).kernel, tb->host(0).home->kernel->ip_node().address());
    client->open("berkeley.rt", "csum", "",
                 [&](util::Result<CallClient::Call> r) {
                   if (r.ok()) call = *r;
                 });
    tb->sim().run_for(sim::seconds(2));
    EXPECT_TRUE(call.has_value());
  }
};

TEST(EncapChecksum, CleanPathUnaffected) {
  ChecksumRig rig(/*checksum=*/true);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rig.client->send(*rig.call, util::Buffer(500, 0x7A)).ok());
  }
  rig.tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(rig.server->frames_received(), 20u);
  EXPECT_EQ(rig.tb->router(0).kernel->proto_atm().checksum_drops(), 0u);
}

TEST(EncapChecksum, WithoutChecksumCorruptionIsDeliveredSilently) {
  // The paper's default: no checksum, "our IP links are over reliable FDDI
  // links".  On a corrupting link the payload arrives damaged but nothing
  // in the encapsulation path notices.
  ChecksumRig rig(/*checksum=*/false);
  util::Rng rng(42);
  rig.tb->host(0).link->set_corrupt(1.0, &rng);  // corrupt every frame
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.client->send(*rig.call, util::Buffer(500, 0x7A)).ok());
  }
  rig.tb->sim().run_for(sim::seconds(2));
  // Some frames may die of IP-header corruption or mangled encapsulation
  // framing (a flipped bit in the "unchecked" marker even reads as a bogus
  // checksum), but at least one corrupted payload slips through silently —
  // the hazard the checksum extension exists to close.
  EXPECT_GT(rig.server->frames_received(), 0u);
}

TEST(EncapChecksum, WithChecksumCorruptionIsDroppedAndCounted) {
  ChecksumRig rig(/*checksum=*/true);
  util::Rng rng(42);
  rig.tb->host(0).link->set_corrupt(1.0, &rng);
  std::uint64_t before = rig.server->frames_received();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.client->send(*rig.call, util::Buffer(500, 0x7A)).ok());
  }
  rig.tb->sim().run_for(sim::seconds(2));
  // Every corrupted arrival is caught: either by the IP header checksum or
  // by the encapsulation checksum; none is delivered.
  EXPECT_EQ(rig.server->frames_received(), before);
  EXPECT_GT(rig.tb->router(0).kernel->proto_atm().checksum_drops(), 0u);
}

// ----------------------------------------------------- reordering detection

TEST(Reordering, SequenceNumbersDetectReorderedEncapsulation) {
  // §5.4: "All the encapsulation header needs to do is to detect out of
  // order frames, which we do using a sequence number field."  A reordering
  // access link exercises exactly that.
  auto tb = TestbedConfig{}.hosts(2).build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& h1 = tb->host(1);
  CallServer server(*h1.kernel, h1.home->kernel->ip_node().address(), "reord",
                    4601);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*tb->host(0).kernel,
                    tb->host(0).home->kernel->ip_node().address());
  std::optional<CallClient::Call> call;
  client.open("berkeley.rt", "reord", "",
              [&](util::Result<CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(call.has_value());

  util::Rng rng(7);
  // Delay ~30% of frames by up to 2 ms: later frames overtake them.
  tb->host(0).link->set_reorder(0.3, sim::milliseconds(2), &rng);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.send(*call, util::Buffer(100, 0x1)).ok());
  }
  tb->sim().run_for(sim::seconds(5));
  EXPECT_GT(tb->host(0).link->frames_reordered(), 0u);
  // The router's decapsulation point detected (and discarded) the
  // out-of-order arrivals; everything delivered was in sequence.
  auto& pa = tb->router(0).kernel->proto_atm();
  EXPECT_GT(pa.out_of_order(), 0u);
  EXPECT_EQ(server.frames_received() + pa.out_of_order(),
            pa.out_of_order() + server.frames_received());  // tautology guard
  EXPECT_LE(server.frames_received(), 100u);
  EXPECT_EQ(server.bytes_received(), server.frames_received() * 100u);
}

TEST(Reordering, TcpDeliversInOrderDespiteReordering) {
  sim::Simulator sim;
  ip::IpNode a(sim, "a", ip::make_ip(1, 1, 1, 1));
  ip::IpNode b(sim, "b", ip::make_ip(2, 2, 2, 2));
  ip::IpLink link(sim, ip::kFddiBps, sim::microseconds(100), ip::kFddiMtu);
  link.attach(a, b);
  a.set_default_route(link);
  b.set_default_route(link);
  tcp::TcpLayer ta(a), tb_(b);
  util::Rng rng(3);
  link.set_reorder(0.2, sim::milliseconds(1), &rng);

  tcp::ConnId sconn = 0, cconn = 0;
  ASSERT_TRUE(tb_.listen(9, [&](tcp::ConnId c) { sconn = c; }).ok());
  (void)ta.connect(b.address(), 9, [&](util::Result<tcp::ConnId> r) {
    cconn = *r;
  });
  sim.run_for(sim::seconds(1));
  ASSERT_NE(cconn, 0u);

  util::Buffer sent(60'000);
  util::Rng drng(11);
  for (auto& x : sent) x = static_cast<std::uint8_t>(drng.next());
  util::Buffer got;
  tb_.set_receive_handler(sconn, [&](util::BytesView d) {
    got.insert(got.end(), d.begin(), d.end());
  });
  ASSERT_TRUE(ta.send(cconn, sent).ok());
  sim.run_for(sim::seconds(60));
  EXPECT_EQ(got, sent);  // GBN + in-order receiver: bytes exact and ordered
}

// ------------------------------------------------------------ duplex calls

TEST(Duplex, ChannelCarriesDataBothWays) {
  auto tb = TestbedConfig{}.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& r0 = *tb->router(0).kernel;
  auto& r1 = *tb->router(1).kernel;

  core::DuplexServer server(r1, r1.ip_node().address(), "chat", 4610);
  std::optional<core::DuplexEnd> server_end;
  std::string server_got;
  server.start([](util::Result<void>) {},
               [&](core::DuplexEnd end) {
                 server_end = end;
                 (void)server.on_receive(end, [&](util::BytesView d) {
                   server_got += util::to_text(d);
                   (void)server.send(*server_end,
                                     util::to_buffer(std::string_view("pong")));
                 });
               });
  tb->sim().run_for(sim::milliseconds(300));

  core::DuplexClient client(r0, r0.ip_node().address(), 4611);
  std::optional<core::DuplexEnd> client_end;
  std::string client_got;
  client.open("berkeley.rt", "chat", "class=predicted,bw=1000000",
              [&](util::Result<core::DuplexEnd> r) {
                ASSERT_TRUE(r.ok()) << to_string(r.error());
                client_end = *r;
                (void)client.on_receive(*client_end, [&](util::BytesView d) {
                  client_got += util::to_text(d);
                });
                (void)client.send(*client_end,
                                  util::to_buffer(std::string_view("ping")));
              });
  tb->sim().run_for(sim::seconds(5));
  ASSERT_TRUE(client_end.has_value());
  ASSERT_TRUE(server_end.has_value());
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
  EXPECT_EQ(server.channels_opened(), 1u);
  // Two simplex calls exist (plus the 2 signaling PVCs).
  EXPECT_EQ(tb->network().active_vc_count(), 2u + 2u);

  // Closing both directions reclaims everything.
  client.close(*client_end);
  tb->sim().run_for(sim::seconds(3));
  EXPECT_LE(tb->network().active_vc_count(), 2u + 1u);  // reverse may lag
  tb->sim().run_for(sim::seconds(15));
  // Server's reverse socket was disconnected; its call dies with the
  // server's close or wait-for-bind/teardown propagation.
}

TEST(Duplex, EachDirectionNegotiatesIndependently) {
  auto tb = TestbedConfig{}.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& r0 = *tb->router(0).kernel;
  auto& r1 = *tb->router(1).kernel;
  core::DuplexServer server(r1, r1.ip_node().address(), "asym", 4612);
  server.set_qos_limit(atm::Qos{atm::ServiceClass::predicted, 3'000'000});
  server.start([](util::Result<void>) {}, [](core::DuplexEnd) {});
  tb->sim().run_for(sim::milliseconds(300));

  core::DuplexClient client(r0, r0.ip_node().address(), 4613);
  std::optional<core::DuplexEnd> end;
  client.open("berkeley.rt", "asym", "class=guaranteed,bw=9000000",
              [&](util::Result<core::DuplexEnd> r) {
                ASSERT_TRUE(r.ok());
                end = *r;
              });
  tb->sim().run_for(sim::seconds(5));
  ASSERT_TRUE(end.has_value());
  // Forward: trimmed by the server's limit.
  auto fwd = atm::parse_qos(end->qos_forward);
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(fwd->bandwidth_bps, 3'000'000u);
  EXPECT_EQ(fwd->service_class, atm::ServiceClass::predicted);
  // Reverse: offered at the server's granted level, accepted by the client.
  auto rev = atm::parse_qos(end->qos_reverse);
  ASSERT_TRUE(rev.ok());
  EXPECT_LE(rev->bandwidth_bps, 3'000'000u);
}

TEST(Duplex, NonDuplexCallToDuplexServerIsRejected) {
  auto tb = TestbedConfig{}.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& r1 = *tb->router(1).kernel;
  core::DuplexServer server(r1, r1.ip_node().address(), "strict", 4614);
  server.start([](util::Result<void>) {}, [](core::DuplexEnd) {});
  tb->sim().run_for(sim::milliseconds(300));

  CallClient plain(*tb->router(0).kernel,
                   tb->router(0).kernel->ip_node().address());
  std::optional<util::Errc> err;
  plain.open("berkeley.rt", "strict", "",
             [&](util::Result<CallClient::Call> r) { err = r.error(); });
  tb->sim().run_for(sim::seconds(3));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, util::Errc::rejected);
}

// ----------------------------------------------------- management report

TEST(Management, ReportShowsServicesAndLiveCalls) {
  auto tb = TestbedConfig{}.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& r1 = tb->router(1);
  CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "mgmt-svc",
                    4620);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*tb->router(0).kernel,
                    tb->router(0).kernel->ip_node().address());
  std::optional<CallClient::Call> call;
  client.open("berkeley.rt", "mgmt-svc", "class=guaranteed,bw=777",
              [&](util::Result<CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(call.has_value());

  std::string r1_report = r1.sighost->management_report();
  EXPECT_NE(r1_report.find("mgmt-svc"), std::string::npos);
  EXPECT_NE(r1_report.find("VCI_mapping (1)"), std::string::npos);
  EXPECT_NE(r1_report.find("confirmed"), std::string::npos);
  EXPECT_NE(r1_report.find("established=1"), std::string::npos);

  std::string r0_report = tb->router(0).sighost->management_report();
  EXPECT_NE(r0_report.find("(originator)"), std::string::npos);
  EXPECT_NE(r0_report.find("bw=777"), std::string::npos);
}

/// A call's name and granted QoS reach text in two places: the management
/// report and the audit snapshot's call keys.  Both are pinned byte for
/// byte across originator and callee entries, an empty, a structured and
/// an unparseable QoS, an unconfirmed entry, request ids on both sides of
/// a digit boundary (string order puts #10 before #5), and the unclaimed
/// entries a restarted sighost audits back.
std::string golden_surfaces() {
  auto tb = TestbedConfig{}.build_deferred();
  EXPECT_TRUE(tb->bring_up().ok());
  auto& r0 = *tb->router(0).kernel;
  auto& r1 = *tb->router(1).kernel;
  // A raw server: it grants each call the QoS text it asked for, binds the
  // first three, leaves the fourth unbound and the rest undecided.
  kern::Pid spid = r1.spawn("golden-server");
  app::UserLib server(r1, spid, r1.ip_node().address());
  int served = 0;
  std::vector<app::IncomingRequest> undecided;
  std::function<void()> serve = [&] {
    server.await_service_request([&](util::Result<app::IncomingRequest> r) {
      if (!r) return;
      const app::IncomingRequest req = *r;
      if (++served <= 4) {
        const bool bind = served <= 3;
        server.accept_connection(
            req, req.qos, [&server, bind](util::Result<app::OpenResult> o) {
              if (o && bind) (void)server.bind_data_socket(*o);
            });
      } else {
        undecided.push_back(req);
      }
      serve();
    });
  };
  server.export_service("golden", 4640, [](util::Result<void>) {});
  serve();
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid cpid = r0.spawn("golden-client");
  app::UserLib client(r0, cpid, r0.ip_node().address());
  const char* qos[] = {"", "class=guaranteed,bw=777", "bw=lots;;=", "",
                       "", "", "", "", "", "", ""};
  for (const char* q : qos) {
    client.open_connection("berkeley.rt", "golden", "", q,
                           [&client](util::Result<app::OpenResult> o) {
                             if (o) (void)client.connect_data_socket(*o);
                           });
    tb->sim().run_for(sim::seconds(1));
  }

  auto keys = [](const sig::Sighost& sh) {
    const sig::Sighost::ListSnapshot s = sh.audit_snapshot();
    std::string out = "  outgoing:";
    for (const std::string& k : s.outgoing_calls) out += " " + k;
    out += "\n  incoming:";
    for (const std::string& k : s.incoming_calls) out += " " + k;
    out += "\n  vci_mapping:";
    for (const auto& e : s.vci_mapping) {
      out += " " + std::to_string(e.vci) + "=" + e.call_key;
    }
    return out + "\n";
  };
  std::string text;
  for (std::size_t i = 0; i < 2; ++i) {
    text += tb->router(i).sighost->management_report();
    text += keys(*tb->router(i).sighost);
  }
  tb->crash_sighost(1);
  tb->sim().run_for(sim::milliseconds(100));
  EXPECT_TRUE(tb->restart_sighost(1).ok());
  text += "restarted:\n" + tb->router(1).sighost->management_report() +
          keys(*tb->router(1).sighost);
  tb->sim().run_for(sim::seconds(6));
  text += "resynced:\n" + tb->router(1).sighost->management_report() +
          keys(*tb->router(1).sighost);
  return text;
}

TEST(Management, ReportAndCallKeysAreByteExact) {
  const std::string golden = R"(sighost@mh.rt
  service_list (0):
  outgoing_requests: 7
  incoming_requests: 0
  wait_for_bind: 1
  VCI_mapping (4):
    vci=1024 call=mh.rt#1 (originator) confirmed qos=<>
    vci=1025 call=mh.rt#2 (originator) confirmed qos=<class=guaranteed,bw=777>
    vci=1026 call=mh.rt#3 (originator) confirmed qos=<bw=lots;;=>
    vci=1027 call=mh.rt#4 (originator) unconfirmed qos=<>
  stats: established=4 torn_down=0 rejects=0 auth_failures=0 bind_timeouts=0
  reliability: retransmits=0 dup_suppressed=0 abandoned=0 sheds=0 resyncs=0 recovered=0 orphans=0
  outgoing: mh.rt#5 mh.rt#6 mh.rt#7 mh.rt#8 mh.rt#9 mh.rt#10 mh.rt#11
  incoming:
  vci_mapping: 1024=mh.rt#1 1025=mh.rt#2 1026=mh.rt#3 1027=mh.rt#4
sighost@berkeley.rt
  service_list (1):
    golden -> 10.0.1.1:4640
  outgoing_requests: 0
  incoming_requests: 7
  wait_for_bind: 1
  VCI_mapping (4):
    vci=1024 call=mh.rt#1 (callee) confirmed qos=<>
    vci=1025 call=mh.rt#2 (callee) confirmed qos=<class=guaranteed,bw=777>
    vci=1026 call=mh.rt#3 (callee) confirmed qos=<bw=lots;;=>
    vci=1027 call=mh.rt#4 (callee) unconfirmed qos=<>
  stats: established=4 torn_down=0 rejects=0 auth_failures=0 bind_timeouts=0
  reliability: retransmits=0 dup_suppressed=0 abandoned=0 sheds=0 resyncs=0 recovered=0 orphans=0
  outgoing:
  incoming: mh.rt#10 mh.rt#11 mh.rt#5 mh.rt#6 mh.rt#7 mh.rt#8 mh.rt#9
  vci_mapping: 1024=mh.rt#1 1025=mh.rt#2 1026=mh.rt#3 1027=mh.rt#4
restarted:
sighost@berkeley.rt
  service_list (0):
  outgoing_requests: 0
  incoming_requests: 0
  wait_for_bind: 0
  VCI_mapping (3):
    vci=1024 call= (callee) confirmed qos=<>
    vci=1025 call= (callee) confirmed qos=<>
    vci=1026 call= (callee) confirmed qos=<>
  stats: established=0 torn_down=0 rejects=0 auth_failures=0 bind_timeouts=0
  reliability: retransmits=0 dup_suppressed=0 abandoned=0 sheds=0 resyncs=0 recovered=0 orphans=0
  outgoing:
  incoming:
  vci_mapping: 1024= 1025= 1026=
resynced:
sighost@berkeley.rt
  service_list (0):
  outgoing_requests: 0
  incoming_requests: 0
  wait_for_bind: 0
  VCI_mapping (3):
    vci=1024 call=mh.rt#1 (callee) confirmed qos=<>
    vci=1025 call=mh.rt#2 (callee) confirmed qos=<class=guaranteed,bw=777>
    vci=1026 call=mh.rt#3 (callee) confirmed qos=<bw=lots;;=>
  stats: established=0 torn_down=0 rejects=0 auth_failures=0 bind_timeouts=0
  reliability: retransmits=0 dup_suppressed=0 abandoned=0 sheds=0 resyncs=0 recovered=3 orphans=0
  outgoing:
  incoming:
  vci_mapping: 1024=mh.rt#1 1025=mh.rt#2 1026=mh.rt#3
)";
  EXPECT_EQ(golden_surfaces(), golden);
}

// ------------------------------------------- origin address in INCOMING_CONN

TEST(Origin, IncomingRequestCarriesOriginSighost) {
  auto tb = TestbedConfig{}.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& r1 = *tb->router(1).kernel;
  kern::Pid spid = r1.spawn("origin-check");
  app::UserLib server(r1, spid, r1.ip_node().address());
  std::optional<app::IncomingRequest> got;
  server.export_service("origin-svc", 4630, [](util::Result<void>) {});
  server.await_service_request(
      [&](util::Result<app::IncomingRequest> r) { got = *r; });
  tb->sim().run_for(sim::milliseconds(300));

  CallClient client(*tb->router(0).kernel,
                    tb->router(0).kernel->ip_node().address());
  client.open("berkeley.rt", "origin-svc", "",
              [](util::Result<CallClient::Call>) {});
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->origin, "mh.rt");
}

}  // namespace
}  // namespace xunet
