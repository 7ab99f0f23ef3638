// recovery_test.cpp — the robustness tentpole end to end: reliable
// signaling delivery over a lossy PVC (retransmission, duplicate
// suppression), bounded-queue overload shedding, and sighost crash-restart
// recovery (kernel/network audit + peer resync), all driven by the seeded
// FaultPlan so every scenario reproduces exactly from its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "chaos/runner.hpp"
#include "core/apps.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "userlib/userlib.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;

struct Rig {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<CallServer> server;
  std::unique_ptr<CallClient> client;

  explicit Rig(core::TestbedConfig cfg = {}) {
    // Descriptor scaling is §10's problem, not this file's: completed
    // per-call conns sit in TIME_WAIT for 2xMSL and would exhaust the
    // default 20-entry table under a many-call workload.
    cfg.kernel.fd_table_size = 512;
    tb = cfg.routers(2).pvc_mesh().build();
    auto& r1 = tb->router(1);
    server = std::make_unique<CallServer>(
        *r1.kernel, r1.kernel->ip_node().address(), "svc", 6200);
    server->start([](util::Result<void>) {});
    client = std::make_unique<CallClient>(
        *tb->router(0).kernel, tb->router(0).kernel->ip_node().address());
    tb->sim().run_for(sim::milliseconds(300));
  }
};

// --------------------------------------------------- reliable delivery

TEST(ReliableDelivery, RetransmissionSurvivesHeavySignalingLoss) {
  core::TestbedConfig cfg;
  cfg.sighost.request_timeout = sim::seconds(20);
  Rig rig(cfg);
  fault::FaultPlan plan(*rig.tb, 42);
  plan.drop_signaling(0.30);
  plan.arm();

  int ok = 0, failed = 0;
  for (int i = 0; i < 10; ++i) {
    rig.tb->sim().schedule(sim::milliseconds(200) * i, [&] {
      rig.client->open("berkeley.rt", "svc", "",
                       [&](util::Result<CallClient::Call> r) {
                         r.ok() ? ++ok : ++failed;
                       });
    });
  }
  rig.tb->sim().run_for(sim::seconds(40));
  EXPECT_EQ(ok + failed, 10);
  // 30% loss cannot stop delivery: retransmission must carry every call.
  EXPECT_EQ(ok, 10) << "failed=" << failed;
  EXPECT_GT(plan.stats().dropped, 0u);
  const auto& s0 = rig.tb->router(0).sighost->stats();
  const auto& s1 = rig.tb->router(1).sighost->stats();
  EXPECT_GT(s0.retransmits + s1.retransmits, 0u);
}

TEST(ReliableDelivery, DuplicatedMessagesEstablishEachCallOnce) {
  Rig rig;
  fault::FaultPlan plan(*rig.tb, 7);
  plan.duplicate_signaling(0.8);
  plan.arm();

  int ok = 0, failed = 0;
  for (int i = 0; i < 8; ++i) {
    rig.tb->sim().schedule(sim::milliseconds(150) * i, [&] {
      rig.client->open("berkeley.rt", "svc", "",
                       [&](util::Result<CallClient::Call> r) {
                         r.ok() ? ++ok : ++failed;
                       });
    });
  }
  rig.tb->sim().run_for(sim::seconds(15));
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(failed, 0);
  const auto& s0 = rig.tb->router(0).sighost->stats();
  const auto& s1 = rig.tb->router(1).sighost->stats();
  EXPECT_GT(s0.dup_suppressed + s1.dup_suppressed, 0u);
  // Exactly one VC per call beyond the signaling PVCs.
  EXPECT_EQ(rig.tb->audit().network_vcs, 8u);
  EXPECT_EQ(rig.server->calls_accepted(), 8u);
}

TEST(ReliableDelivery, CorruptedFramesAreCountedAndRetransmitted) {
  Rig rig;
  fault::FaultPlan plan(*rig.tb, 11);
  plan.corrupt_signaling(0.25);
  plan.arm();

  int ok = 0;
  for (int i = 0; i < 6; ++i) {
    rig.tb->sim().schedule(sim::milliseconds(200) * i, [&] {
      rig.client->open("berkeley.rt", "svc", "",
                       [&](util::Result<CallClient::Call> r) {
                         if (r.ok()) ++ok;
                       });
    });
  }
  rig.tb->sim().run_for(sim::seconds(30));
  EXPECT_EQ(ok, 6);
  const auto& s0 = rig.tb->router(0).sighost->stats();
  const auto& s1 = rig.tb->router(1).sighost->stats();
  EXPECT_GT(s0.peer_parse_errors + s1.peer_parse_errors, 0u);
  EXPECT_GT(plan.stats().corrupted, 0u);
}

// A retransmit resends the frame kept from the first transmission.  Every
// ack of mh.rt's PEER_SETUP is lost, so it goes out until the retry budget
// is spent: once as sent, then duplicated, then corrupted, then as sent
// again.  Every copy berkeley.rt's interface receives is the original
// frame, byte for byte, except the one corrupted copy, which is the
// original with one bit flipped.
TEST(ReliableDelivery, RetransmittedFramesAreTheOriginalFrame) {
  Rig rig;
  sig::Sighost& a = *rig.tb->router(0).sighost;
  sig::Sighost& b = *rig.tb->router(1).sighost;
  kern::Kernel& kb = *rig.tb->router(1).kernel;
  std::vector<util::Buffer> arrived;
  kb.hobbit()->set_frame_handler([&](atm::Vci vci, kern::MbufChain chain) {
    arrived.push_back(util::to_buffer(chain.bytes()));
    kb.orc().input(vci, std::move(chain));
  });
  util::Buffer original;
  std::uint32_t setup_seq = 0;
  int sends = 0;
  a.set_wire_fault([&](const std::string&, const std::string&, const sig::Msg& m) {
    sig::WireVerdict v;
    if (m.type != sig::MsgType::peer_setup) return v;
    if (++sends == 1) {
      original = sig::serialize(m);
      setup_seq = m.seq;
    }
    if (sends == 2) v.fault = sig::WireFault::duplicate;
    if (sends == 3) v.fault = sig::WireFault::corrupt;
    return v;
  });
  b.set_wire_fault([&](const std::string&, const std::string&, const sig::Msg& m) {
    sig::WireVerdict v;
    if (m.type == sig::MsgType::peer_ack && m.seq == setup_seq) {
      v.fault = sig::WireFault::drop;
    }
    return v;
  });
  int ok = 0;
  rig.client->open("berkeley.rt", "svc", "",
                   [&](util::Result<CallClient::Call> r) { ok += r.ok(); });
  rig.tb->sim().run_for(sim::seconds(30));
  EXPECT_EQ(ok, 1);
  ASSERT_GE(sends, 4);
  EXPECT_EQ(a.stats().retransmits, static_cast<std::uint64_t>(sends - 1));

  int same = 0, one_bit = 0;
  for (const util::Buffer& f : arrived) {
    if (f.size() != original.size()) continue;
    int bits = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      bits += std::popcount(static_cast<unsigned>(f[i] ^ original[i]));
    }
    same += bits == 0;
    one_bit += bits == 1;
  }
  EXPECT_EQ(same, sends);  // one copy lost to corruption, one gained by duplication
  EXPECT_EQ(one_bit, 1);
  EXPECT_EQ(b.stats().peer_parse_errors, 1u);
}

TEST(ReliableDelivery, DuplicateWindowSkipsANumberItsSenderAbandoned) {
  // Every transmission of mh.rt's first sequenced message is lost, so
  // berkeley.rt holds each later number above the gap until the sender's
  // whole retry budget (~16 s) has passed; then the floor skips it.
  core::TestbedConfig cfg;
  cfg.sighost.request_timeout = sim::seconds(5);
  Rig rig(cfg);
  sig::Sighost& a = *rig.tb->router(0).sighost;
  const sig::Sighost& b = *rig.tb->router(1).sighost;
  sig::WireFault fault = sig::WireFault::drop;
  a.set_wire_fault([&](const std::string&, const std::string&, const sig::Msg& m) {
    sig::WireVerdict v;
    if (m.type == sig::MsgType::peer_ack) return v;
    if (m.seq == 1 || fault == sig::WireFault::duplicate) v.fault = fault;
    return v;
  });
  int ok = 0, failed = 0;
  auto open = [&] {
    rig.client->open("berkeley.rt", "svc", "",
                     [&](util::Result<CallClient::Call> r) {
                       r.ok() ? ++ok : ++failed;
                     });
  };
  open();  // its PEER_SETUP never arrives: the request times out
  rig.tb->sim().run_for(sim::seconds(6));
  EXPECT_EQ(failed, 1);
  std::size_t peak = 0;
  for (int i = 0; i < 12; ++i) {
    open();
    rig.tb->sim().run_for(sim::seconds(2));
    peak = std::max(peak, b.recv_backlog("mh.rt"));
  }
  EXPECT_EQ(ok, 12);
  EXPECT_GE(peak, 10u);
  EXPECT_EQ(b.recv_backlog("mh.rt"), 0u);

  // Past the gap, duplicates are still suppressed and calls still
  // establish exactly once.
  fault = sig::WireFault::duplicate;
  const std::uint64_t dups = b.stats().dup_suppressed;
  open();
  rig.tb->sim().run_for(sim::seconds(2));
  EXPECT_EQ(ok, 13);
  EXPECT_EQ(failed, 1);
  EXPECT_GT(b.stats().dup_suppressed, dups);
  EXPECT_EQ(b.recv_backlog("mh.rt"), 0u);
  EXPECT_EQ(rig.server->calls_accepted(), 13u);
}

TEST(ReliableDelivery, ReorderedSignalingStillEstablishes) {
  Rig rig;
  fault::FaultPlan plan(*rig.tb, 23);
  plan.reorder_signaling(0.4, sim::milliseconds(30), sim::milliseconds(40));
  plan.arm();

  int ok = 0, failed = 0;
  for (int i = 0; i < 8; ++i) {
    rig.tb->sim().schedule(sim::milliseconds(120) * i, [&] {
      rig.client->open("berkeley.rt", "svc", "",
                       [&](util::Result<CallClient::Call> r) {
                         r.ok() ? ++ok : ++failed;
                       });
    });
  }
  rig.tb->sim().run_for(sim::seconds(15));
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(failed, 0);
  EXPECT_GT(plan.stats().delayed, 0u);
}

// --------------------------------------------------- overload shedding

TEST(OverloadShedding, ExcessConnectRequestsAreRejectedBusy) {
  core::TestbedConfig cfg;
  cfg.sighost.max_outgoing_requests = 4;
  cfg.sighost.request_timeout = sim::seconds(5);
  Rig rig(cfg);
  // Partition the trunk so requests pile up in outgoing_requests instead
  // of resolving; the 5th..10th CONNECT_REQ must be shed immediately.
  auto* s1 = rig.tb->network().switch_by_name("s1");
  auto* s2 = rig.tb->network().switch_by_name("s2");
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  rig.tb->network().set_trunk_down(*s1, *s2, true);

  std::vector<util::Errc> errors;
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    rig.client->open("berkeley.rt", "svc", "",
                     [&](util::Result<CallClient::Call> r) {
                       if (r.ok()) {
                         ++ok;
                       } else {
                         errors.push_back(r.error());
                       }
                     });
  }
  rig.tb->sim().run_for(sim::seconds(2));
  // Six requests shed with the busy cause, long before any timeout.
  std::size_t busy = 0;
  for (util::Errc e : errors) {
    if (e == util::Errc::no_buffer_space) ++busy;
  }
  EXPECT_EQ(busy, 6u);
  EXPECT_EQ(rig.tb->router(0).sighost->stats().sheds, 6u);
  EXPECT_EQ(rig.tb->router(0).sighost->outgoing_requests_size(), 4u);

  // The four admitted requests fail cleanly by timeout; nothing leaks.
  rig.tb->sim().run_for(sim::seconds(10));
  EXPECT_EQ(ok, 0);
  EXPECT_EQ(errors.size(), 10u);
  EXPECT_TRUE(rig.tb->audit().clean()) << rig.tb->audit().describe();
}

// --------------------------------------------------- crash-restart recovery

TEST(CrashRecovery, EstablishedCallsSurviveCalleeSighostRestart) {
  Rig rig;
  std::vector<CallClient::Call> calls;
  for (int i = 0; i < 5; ++i) {
    rig.client->open("berkeley.rt", "svc", "",
                     [&](util::Result<CallClient::Call> r) {
                       ASSERT_TRUE(r.ok()) << to_string(r.error());
                       calls.push_back(*r);
                     });
    rig.tb->sim().run_for(sim::seconds(1));
  }
  ASSERT_EQ(calls.size(), 5u);

  rig.tb->crash_sighost(1);
  rig.tb->sim().run_for(sim::milliseconds(500));
  // Data keeps flowing while signaling is dead.
  ASSERT_TRUE(rig.client->send(calls[0], util::Buffer(200, 0xaa)).ok());
  rig.tb->sim().run_for(sim::milliseconds(500));
  EXPECT_EQ(rig.server->frames_received(), 1u);

  ASSERT_TRUE(rig.tb->restart_sighost(1).ok());
  rig.tb->sim().run_for(sim::seconds(10));
  const auto& st = rig.tb->router(1).sighost->stats();
  EXPECT_EQ(st.recovered_calls, 5u);   // every call audited and reclaimed
  EXPECT_EQ(st.orphans_torn_down, 0u); // nothing was dangling
  EXPECT_EQ(rig.tb->router(0).sighost->stats().resyncs, 1u);
  EXPECT_EQ(rig.tb->router(1).sighost->vci_mapping_size(), 5u);

  // Established calls still carry data...
  ASSERT_TRUE(rig.client->send(calls[2], util::Buffer(100, 0xbb)).ok());
  rig.tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(rig.server->frames_received(), 2u);
  // ...the server re-registered with the new sighost...
  EXPECT_GE(rig.server->re_registrations(), 1u);
  // ...and new calls establish again.
  bool new_ok = false;
  rig.client->open("berkeley.rt", "svc", "",
                   [&](util::Result<CallClient::Call> r) { new_ok = r.ok(); });
  rig.tb->sim().run_for(sim::seconds(5));
  EXPECT_TRUE(new_ok);

  // Teardown of a recovered call still works end to end.
  rig.client->close_call(calls[4]);
  rig.tb->sim().run_for(sim::seconds(5));
  EXPECT_EQ(rig.tb->router(1).sighost->vci_mapping_size(), 5u);  // 5 + new - closed
}

TEST(CrashRecovery, VciMappingOrderIsAscendingAndSurvivesResync) {
  // Pins the iteration-order contract behind handle_peer_resync: the
  // surviving peer reports shared calls by walking VCI_mapping, so the
  // PEER_RESYNC_INFO sequence (and replayed traces with it) is deterministic
  // only while vci_map_ iterates in ascending VCI order — i.e. stays an
  // ordered map.  A switch to a hash map turns both assertions flaky.
  Rig rig;
  std::vector<CallClient::Call> calls;
  for (int i = 0; i < 5; ++i) {
    rig.client->open("berkeley.rt", "svc", "",
                     [&](util::Result<CallClient::Call> r) {
                       ASSERT_TRUE(r.ok()) << to_string(r.error());
                       calls.push_back(*r);
                     });
    rig.tb->sim().run_for(sim::seconds(1));
  }
  ASSERT_EQ(calls.size(), 5u);

  auto strictly_ascending = [](const std::vector<atm::Vci>& v) {
    return std::adjacent_find(v.begin(), v.end(),
                              [](atm::Vci a, atm::Vci b) { return a >= b; }) ==
           v.end();
  };
  const auto caller_before = rig.tb->router(0).sighost->vci_mapping_vcis();
  const auto callee_before = rig.tb->router(1).sighost->vci_mapping_vcis();
  ASSERT_EQ(caller_before.size(), 5u);
  EXPECT_TRUE(strictly_ascending(caller_before));
  EXPECT_TRUE(strictly_ascending(callee_before));

  // Crash/restart the callee: its mapping is audited back from the kernel
  // and network and re-keyed by the caller's PEER_RESYNC_INFO report.  The
  // rebuilt mapping must be the same set of VCIs in the same order.
  rig.tb->crash_sighost(1);
  rig.tb->sim().run_for(sim::milliseconds(500));
  ASSERT_TRUE(rig.tb->restart_sighost(1).ok());
  rig.tb->sim().run_for(sim::seconds(10));
  EXPECT_EQ(rig.tb->router(1).sighost->vci_mapping_vcis(), callee_before);
  EXPECT_EQ(rig.tb->router(0).sighost->vci_mapping_vcis(), caller_before);
}

TEST(CrashRecovery, OrphanedVcsAreTornDownAfterRestart) {
  Rig rig;
  std::vector<CallClient::Call> calls;
  for (int i = 0; i < 3; ++i) {
    rig.client->open("berkeley.rt", "svc", "",
                     [&](util::Result<CallClient::Call> r) {
                       ASSERT_TRUE(r.ok());
                       calls.push_back(*r);
                     });
    rig.tb->sim().run_for(sim::seconds(1));
  }
  ASSERT_EQ(calls.size(), 3u);

  // Crash the callee sighost AND the server during the outage: the calls'
  // receiving sockets die with nobody to notice.
  rig.tb->crash_sighost(1);
  rig.server->kill();
  rig.tb->sim().run_for(sim::milliseconds(500));

  ASSERT_TRUE(rig.tb->restart_sighost(1).ok());
  // The audit finds VCs but no surviving sockets: nothing is recovered,
  // and the peer's RESYNC_INFOs draw PEER_TEARDOWNs that release the
  // originator's halves and the VCs themselves.
  rig.tb->sim().run_for(sim::seconds(10));
  EXPECT_EQ(rig.tb->router(1).sighost->stats().recovered_calls, 0u);
  EXPECT_EQ(rig.tb->router(1).sighost->vci_mapping_size(), 0u);
  EXPECT_EQ(rig.tb->router(0).sighost->vci_mapping_size(), 0u);
  EXPECT_EQ(rig.tb->audit().network_vcs, 0u);
}

TEST(CrashRecovery, CrashBetweenRetransmitBackoffAttemptsOfInflightConnect) {
  Rig rig;
  fault::FaultPlan plan(*rig.tb, 5);
  // The callee never hears the CONNECT_REQ: every peer_setup out of mh.rt
  // is dropped, so the originating sighost sits in retransmission backoff
  // (attempts at ~250 ms, ~500 ms, ~1 s after the send) with an armed retx
  // timer the whole time.
  fault::WireRule r;
  r.node = "mh.rt";
  r.type = sig::MsgType::peer_setup;
  r.until = rig.tb->sim().now() + sim::milliseconds(1700);
  plan.add_rule(r);
  // The crash lands BETWEEN backoff attempts: the armed retransmit timer
  // must die with the instance (Timer destructors cancel; raw events hold
  // the liveness token) instead of firing into the dead sighost.
  plan.crash_sighost_at(sim::milliseconds(850), 0);
  plan.restart_sighost_at(sim::milliseconds(1500), 0);
  plan.arm();

  int fired = 0, ok = 0, failed = 0;
  std::optional<CallClient::Call> call;
  rig.tb->sim().schedule(sim::milliseconds(200), [&] {
    app::OpenOptions opts;
    // The crash resets the app channel mid-request; the deadline budget
    // re-dials the replacement sighost and re-issues the open.
    opts.deadline = sim::seconds(10);
    rig.client->open("berkeley.rt", "svc", "", opts,
                     [&](util::Result<CallClient::Call> res) {
                       ++fired;
                       if (res.ok()) {
                         ++ok;
                         call = *res;
                       } else {
                         ++failed;
                       }
                     });
  });
  rig.tb->sim().run_for(sim::seconds(15));

  // Exactly-once resolution through the crash, and the call lands.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ok, 1) << "failed=" << failed;
  ASSERT_TRUE(call.has_value());
  rig.client->close_call(*call);
  rig.tb->sim().run_for(sim::seconds(2));
  auto rep = rig.tb->audit();
  EXPECT_TRUE(rep.clean()) << rep.describe();
}

// The network answers setup_vc after the modeled setup latency (2 ms per
// switch plus propagation).  An originator that crashes inside that window
// must never see the answer: it would run on the destroyed sighost.  The
// VC is already installed, so the restarted sighost's recovery finds it
// unclaimed and tears it down; its PEER_RESYNC ends the callee's request.
TEST(CrashRecovery, OriginatorCrashInsideVcSetupWindow) {
  Rig rig;
  atm::AtmNetwork& net = rig.tb->network();
  const std::uint64_t setups = net.setups_attempted();
  const std::size_t vcs = net.active_vc_count();
  int fired = 0;
  rig.client->open("berkeley.rt", "svc", "",
                   [&](util::Result<CallClient::Call>) { ++fired; });
  // Step until PEER_ACCEPT has reached the originator and it asked the
  // network for the VC; the completion is then still pending.
  for (int i = 0; i < 100'000 && net.setups_attempted() == setups; ++i) {
    rig.tb->sim().run_for(sim::microseconds(10));
  }
  ASSERT_EQ(net.setups_attempted(), setups + 1);
  ASSERT_EQ(net.active_vc_count(), vcs + 1);
  rig.tb->crash_sighost(0);
  rig.tb->sim().run_for(sim::milliseconds(20));  // past the completion
  ASSERT_TRUE(rig.tb->restart_sighost(0).ok());
  rig.tb->sim().run_for(rig.tb->config().sighost.resync_grace +
                        sim::seconds(1));

  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rig.tb->router(0).sighost->stats().orphans_torn_down, 1u);
  auto rep = rig.tb->audit();
  EXPECT_TRUE(rep.clean()) << rep.describe();
}

// A restarted sighost forgets every request it had in flight with a peer,
// in both directions.  Its PEER_RESYNC must end them at the survivor within
// the resync grace, not after request_timeout: the survivor's incoming
// request from the old incarnation (its server is told connection_reset)
// and its own outgoing request toward the restarted host (its client gets
// CONN_FAILED).
TEST(CrashRecovery, ResyncEndsRequestsTheRestartedPeerForgot) {
  Rig rig;
  auto& r0 = rig.tb->router(0);
  auto& r1 = rig.tb->router(1);
  CallServer back(*r0.kernel, r0.kernel->ip_node().address(), "back", 6201);
  back.start([](util::Result<void>) {});
  CallClient client1(*r1.kernel, r1.kernel->ip_node().address());
  rig.tb->sim().run_for(sim::milliseconds(300));

  // berkeley.rt's call toward mh.rt stays an outgoing request: mh.rt's
  // accept never leaves it.
  fault::FaultPlan plan(*rig.tb, 3);
  fault::WireRule r;
  r.node = "mh.rt";
  r.type = sig::MsgType::peer_accept;
  plan.add_rule(r);
  plan.arm();

  int fired0 = 0, fired1 = 0;
  util::Errc err1{};
  rig.client->open("berkeley.rt", "svc", "",
                   [&](util::Result<CallClient::Call>) { ++fired0; });
  client1.open("mh.rt", "back", "", [&](util::Result<CallClient::Call> res) {
    ++fired1;
    if (!res) err1 = res.error();
  });
  // Step until berkeley.rt holds mh.rt's call as an incoming request.
  for (int i = 0; i < 100'000 &&
                  r1.sighost->audit_snapshot().incoming_calls.empty();
       ++i) {
    rig.tb->sim().run_for(sim::microseconds(10));
  }
  const auto before = r1.sighost->audit_snapshot();
  ASSERT_EQ(before.incoming_calls.size(), 1u);
  ASSERT_EQ(before.outgoing_calls.size(), 1u);

  rig.tb->crash_sighost(0);
  rig.tb->sim().run_for(sim::milliseconds(20));
  ASSERT_TRUE(rig.tb->restart_sighost(0).ok());
  rig.tb->sim().run_for(rig.tb->config().sighost.resync_grace +
                        sim::seconds(1));

  EXPECT_EQ(fired0, 1);
  EXPECT_EQ(fired1, 1);
  EXPECT_EQ(err1, util::Errc::connection_reset);
  auto rep = rig.tb->audit();
  EXPECT_TRUE(rep.clean()) << rep.describe();
}

// The survivor ends a restarted peer's forgotten requests in call-key
// order, which is string order: "mh.rt#10" and "mh.rt#11" come between
// "mh.rt#1" and "mh.rt#2".  The servers' CONN_FAILEDs go out in that order.
TEST(CrashRecovery, ResyncEndsForgottenRequestsInCallKeyOrder) {
  auto tb = core::TestbedConfig{}.build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& r0 = *tb->router(0).kernel;
  auto& r1 = *tb->router(1).kernel;
  kern::Pid spid = r1.spawn("undecided-server");
  app::UserLib server(r1, spid, r1.ip_node().address());
  std::vector<app::IncomingRequest> held;
  std::function<void()> serve = [&] {
    server.await_service_request([&](util::Result<app::IncomingRequest> r) {
      if (!r) return;
      held.push_back(*r);
      serve();
    });
  };
  server.export_service("undecided", 6202, [](util::Result<void>) {});
  serve();
  tb->sim().run_for(sim::milliseconds(300));

  kern::Pid cpid = r0.spawn("caller");
  app::UserLib client(r0, cpid, r0.ip_node().address());
  for (int i = 0; i < 11; ++i) {
    client.open_connection("berkeley.rt", "undecided", "", "",
                           [](util::Result<app::OpenResult>) {});
  }
  tb->sim().run_for(sim::seconds(2));
  ASSERT_EQ(held.size(), 11u);
  ASSERT_EQ(tb->router(1).sighost->incoming_requests_size(), 11u);

  std::vector<sig::ReqId> failed;
  tb->router(1).sighost->set_trace(
      [&](std::string_view dir, std::string_view, const sig::Msg& m) {
        if (dir == "->app" && m.type == sig::MsgType::conn_failed) {
          failed.push_back(m.req_id);
        }
      });
  tb->crash_sighost(0);
  tb->sim().run_for(sim::milliseconds(20));
  ASSERT_TRUE(tb->restart_sighost(0).ok());
  tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(failed, (std::vector<sig::ReqId>{1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(tb->router(1).sighost->incoming_requests_size(), 0u);
}

// The survivor of a peer's restart keeps numbering past the old channel,
// so losing its PEER_RESYNC_ACK costs nothing.  mh.rt restarts; its first
// PEER_RESYNC is lost, and before the retry berkeley.rt sends it an
// old-channel PEER_TEARDOWN (seq 3), which the restarted side records.
// Every PEER_RESYNC_ACK is lost.  A survivor that restarted its numbering
// at 1 would send the teardown of the next call as seq 3 again, and mh.rt
// would suppress it as a duplicate and keep that call's record.
TEST(CrashRecovery, LostResyncAckLeavesNoNumberToReuse) {
  Rig rig;
  int resyncs = 0;
  rig.tb->set_wire_fault([&](const std::string& self, const std::string&,
                             const sig::Msg& m) {
    sig::WireVerdict v;
    if ((self == "mh.rt" && m.type == sig::MsgType::peer_resync && ++resyncs == 1) ||
        (self == "berkeley.rt" && m.type == sig::MsgType::peer_resync_ack)) {
      v.fault = sig::WireFault::drop;
    }
    return v;
  });
  int ok = 0;
  auto on_open = [&](util::Result<CallClient::Call> r) { ok += r.ok(); };
  rig.client->open("berkeley.rt", "svc", "", on_open);
  rig.tb->sim().run_for(sim::seconds(1));
  ASSERT_EQ(ok, 1);

  rig.tb->crash_sighost(0);
  rig.tb->sim().run_for(sim::milliseconds(20));
  ASSERT_TRUE(rig.tb->restart_sighost(0).ok());
  rig.server->kill();  // berkeley.rt tears the call down on the old channel
  rig.tb->sim().run_for(sim::seconds(1));
  EXPECT_GE(resyncs, 2);

  auto& r1 = rig.tb->router(1);
  CallServer second(*r1.kernel, r1.kernel->ip_node().address(), "svc2", 6201);
  second.start([](util::Result<void>) {});
  rig.tb->sim().run_for(sim::milliseconds(300));
  rig.client->open("berkeley.rt", "svc2", "", on_open);
  rig.tb->sim().run_for(sim::seconds(1));
  ASSERT_EQ(ok, 2);
  second.kill();  // this teardown must reach mh.rt
  rig.tb->sim().run_for(rig.tb->config().sighost.resync_grace + sim::seconds(1));

  auto rep = rig.tb->audit();
  EXPECT_TRUE(rep.clean()) << rep.describe();
  EXPECT_TRUE(rig.tb->router(0).sighost->audit_snapshot().vci_mapping.empty());
}

// A restarted sighost resets its channel state when it first sends
// PEER_RESYNC, but the peer keeps numbering its messages on the old channel
// until that resync reaches it.  Here the resync is held up (trunk cut, then
// a lost ack), so old-channel sequence numbers land in the restarted side's
// duplicate window.  A peer that reused those numbers after the resync had a
// later PEER_TEARDOWN or PEER_ESTABLISHED suppressed as a "duplicate",
// leaving a call record or a VC behind.  Each schedule below is a shrunk
// chaos_run repro (--crashes 2) of that leak.
TEST(CrashRecovery, ResyncNeverReusesSequenceNumbersOfTheAbandonedChannel) {
  using chaos::ChaosEvent;
  using chaos::ChaosEventKind;
  const auto event = [](ChaosEventKind kind, std::int64_t at_ms,
                        std::int64_t duration_ms, int node) {
    ChaosEvent e;
    e.kind = kind;
    e.at = sim::milliseconds(at_ms);
    e.duration = sim::milliseconds(duration_ms);
    e.node = node;
    return e;
  };
  struct Repro {
    chaos::ChaosCase c;
    std::vector<ChaosEvent> events;
  };
  std::vector<Repro> repros;
  {
    // Seed 50: berkeley.rt kept call mh.rt#14 after its VC was gone.
    Repro r;
    r.c.routers = 2;
    r.c.calls = 6;
    r.c.seed = 50;
    ChaosEvent drop = event(ChaosEventKind::wire_rule, 3357, 1481, 0);
    drop.fault = sig::WireFault::drop;
    drop.probability = 0.423;
    r.events = {drop, event(ChaosEventKind::crash_restart, 1248, 1269, 1),
                event(ChaosEventKind::trunk_cut, 30, 3755, 0)};
    repros.push_back(r);
  }
  {
    // Seed 156, three routers: site2.rt kept call mh.rt#21.
    Repro r;
    r.c.routers = 3;
    r.c.calls = 8;
    r.c.seed = 156;
    r.events = {event(ChaosEventKind::crash_restart, 1791, 2540, 2),
                event(ChaosEventKind::trunk_cut, 15, 5023, 1)};
    repros.push_back(r);
  }
  {
    // Seed 62, two shards: berkeley.rt kept call mh.rt#8.
    Repro r;
    r.c.routers = 2;
    r.c.shards = 2;
    r.c.calls = 6;
    r.c.seed = 62;
    r.events = {event(ChaosEventKind::crash_restart, 279, 4775, 1),
                event(ChaosEventKind::trunk_cut, 386, 5065, 0)};
    repros.push_back(r);
  }
  {
    // Seed 116, two shards: a network VC outlived its call at berkeley.rt.
    Repro r;
    r.c.routers = 2;
    r.c.shards = 2;
    r.c.calls = 6;
    r.c.seed = 116;
    ChaosEvent dup = event(ChaosEventKind::wire_rule, 2426, 951, 1);
    dup.fault = sig::WireFault::duplicate;
    dup.probability = 0.294;
    ChaosEvent cells = event(ChaosEventKind::cell_impair, 1923, 3245, 0);
    cells.loss = 0.023;
    cells.corrupt = 0.009;
    r.events = {dup, event(ChaosEventKind::crash_restart, 756, 1664, 0),
                event(ChaosEventKind::crash_restart, 3372, 419, 1), cells};
    repros.push_back(r);
  }
  for (const Repro& r : repros) {
    const chaos::RunOutcome out = chaos::run_events(r.c, r.events);
    std::string found;
    for (const core::Violation& v : out.violations) {
      found += v.rule + ": " + v.detail + "\n";
    }
    EXPECT_TRUE(out.violations.empty()) << "seed " << r.c.seed << "\n" << found;
    EXPECT_EQ(out.workload.unresolved, 0u) << "seed " << r.c.seed;
    EXPECT_EQ(out.workload.multi_fired, 0u) << "seed " << r.c.seed;
  }
}

// ----------------------------------------------- the acceptance scenario

struct ScenarioResult {
  int ok = 0;
  int failed = 0;
  std::vector<int> fires;           ///< callback count per call (must be 1)
  std::set<atm::Vci> client_vcis;   ///< distinct data VCIs among successes
  std::uint64_t frames = 0;         ///< data frames through the restart
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t recovered = 0;
  std::uint64_t dropped = 0;        ///< plan-injected drops
  std::size_t leaked_vcs = 0;

  [[nodiscard]] bool operator==(const ScenarioResult&) const = default;
};

ScenarioResult run_scenario(std::uint64_t seed) {
  core::TestbedConfig cfg;
  cfg.sighost.request_timeout = sim::seconds(5);
  Rig rig(cfg);

  fault::FaultPlan plan(*rig.tb, seed);
  plan.drop_signaling(0.20);
  plan.crash_sighost_at(sim::seconds(2), 1);
  plan.restart_sighost_at(sim::milliseconds(2600), 1);
  plan.arm();

  ScenarioResult res;
  res.fires.assign(50, 0);

  // One early call streams data across the restart.
  std::optional<CallClient::Call> stream;
  rig.client->open("berkeley.rt", "svc", "",
                   [&](util::Result<CallClient::Call> r) {
                     if (r.ok()) stream = *r;
                   });
  for (int t = 0; t < 60; ++t) {
    rig.tb->sim().schedule(sim::milliseconds(1000 + 100 * t), [&] {
      if (stream.has_value()) {
        (void)rig.client->send(*stream, util::Buffer(128, 0x5a));
      }
    });
  }

  // 50 staggered calls spanning the crash window.
  for (int i = 0; i < 50; ++i) {
    rig.tb->sim().schedule(sim::milliseconds(300 + 100 * i), [&, i] {
      rig.client->open("berkeley.rt", "svc", "",
                       [&, i](util::Result<CallClient::Call> r) {
                         ++res.fires[static_cast<std::size_t>(i)];
                         if (r.ok()) {
                           ++res.ok;
                           res.client_vcis.insert(r->info.vci);
                         } else {
                           ++res.failed;
                         }
                       });
    });
  }

  rig.tb->sim().run_for(sim::seconds(40));
  res.frames = rig.server->frames_received();
  const auto& s0 = rig.tb->router(0).sighost->stats();
  const auto& s1 = rig.tb->router(1).sighost->stats();
  res.retransmits = s0.retransmits + s1.retransmits;
  res.dup_suppressed = s0.dup_suppressed + s1.dup_suppressed;
  res.recovered = s1.recovered_calls;
  res.dropped = plan.stats().dropped;
  // Every successful call (plus the stream call) holds exactly one VC;
  // failed calls hold nothing.
  res.leaked_vcs = rig.tb->audit().network_vcs -
                   static_cast<std::size_t>(res.ok + (stream ? 1 : 0));
  return res;
}

TEST(FaultPlanScenario, FiftyCallsThroughLossAndRestartExactlyOnce) {
  ScenarioResult res = run_scenario(0xfeedface);

  // Every call resolved exactly once: established or failed cleanly,
  // never hung, never double-completed.
  for (std::size_t i = 0; i < res.fires.size(); ++i) {
    EXPECT_EQ(res.fires[i], 1) << "call " << i;
  }
  EXPECT_EQ(res.ok + res.failed, 50);
  // Retransmission must carry a solid majority through 20% loss + restart.
  EXPECT_GE(res.ok, 40) << "failed=" << res.failed;
  // No duplicate VCs: one distinct VCI per success, no extras in the net.
  EXPECT_EQ(res.client_vcis.size(), static_cast<std::size_t>(res.ok));
  EXPECT_EQ(res.leaked_vcs, 0u);
  // The early call streamed through the crash window: every frame arrived.
  EXPECT_EQ(res.frames, 60u);
  // The machinery actually engaged.
  EXPECT_GT(res.dropped, 0u);
  EXPECT_GT(res.retransmits, 0u);
  EXPECT_GE(res.recovered, 1u);
}

TEST(FaultPlanScenario, SameSeedRunsAreBitwiseIdentical) {
  ScenarioResult a = run_scenario(0xfeedface);
  ScenarioResult b = run_scenario(0xfeedface);
  EXPECT_EQ(a, b);
  ScenarioResult c = run_scenario(0x0dd5eed);
  // A different seed exercises a different trajectory (loss pattern), even
  // if headline counts may coincide.
  EXPECT_EQ(c.ok + c.failed, 50);
}

}  // namespace
}  // namespace xunet
