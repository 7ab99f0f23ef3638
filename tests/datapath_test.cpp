// datapath_test.cpp — end-to-end data-plane properties: the DS3 bottleneck,
// integrity under load, device-layer units (Hobbit/Orc), and full-run
// determinism.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/apps.hpp"
#include "core/testbed.hpp"
#include "kern/hobbit.hpp"
#include "kern/orc.hpp"
#include "util/alloc_hook.hpp"
#include "util/crc32.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;

// -------------------------------------------------------------- Orc driver

TEST(Orc, DispatchPrefersPerVciHandlerOverDefault) {
  kern::InstrCounter instr;
  kern::OrcDriver orc(instr);
  std::vector<std::pair<atm::Vci, char>> calls;
  orc.set_default_handler([&](atm::Vci v, const kern::MbufChain&) {
    calls.emplace_back(v, 'd');
  });
  orc.set_vci_handler(40, [&](atm::Vci v, const kern::MbufChain&) {
    calls.emplace_back(v, 'f');  // forwarding handler (VCI_BIND)
  });
  kern::MbufChain chain = kern::MbufChain::shaped(1, 8);
  orc.input(40, chain);
  orc.input(41, chain);
  orc.clear_vci_handler(40);
  orc.input(40, chain);
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0], (std::pair<atm::Vci, char>{40, 'f'}));
  EXPECT_EQ(calls[1], (std::pair<atm::Vci, char>{41, 'd'}));
  EXPECT_EQ(calls[2], (std::pair<atm::Vci, char>{40, 'd'}));
}

TEST(Orc, DiscardSuppressesDeliveryAndCounts) {
  kern::InstrCounter instr;
  kern::OrcDriver orc(instr);
  int delivered = 0;
  orc.set_default_handler([&](atm::Vci, const kern::MbufChain&) { ++delivered; });
  orc.set_discard(50, true);
  kern::MbufChain chain = kern::MbufChain::shaped(1, 8);
  orc.input(50, chain);
  orc.input(51, chain);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(orc.frames_discarded(), 1u);
  orc.set_discard(50, false);
  orc.input(50, chain);
  EXPECT_EQ(delivered, 2);
}

TEST(Orc, OutputWithoutTargetFails) {
  kern::InstrCounter instr;
  kern::OrcDriver orc(instr);
  EXPECT_EQ(orc.output(1, kern::MbufChain{}).error(),
            util::Errc::not_connected);
}

// ------------------------------------------------------------------ Hobbit

TEST(Hobbit, SegmentsAndReassemblesThroughALoopbackWire) {
  sim::Simulator sim;
  kern::HobbitInterface tx(atm::AtmAddress{"tx"}, 128);
  kern::HobbitInterface rx(atm::AtmAddress{"rx"}, 128);
  atm::CellLink wire(sim, atm::kDs3Bps, sim::microseconds(10), rx);
  tx.connect_uplink(wire);
  std::optional<std::pair<atm::Vci, util::Buffer>> got;
  rx.set_frame_handler([&](atm::Vci v, kern::MbufChain chain) {
    got = {v, std::move(chain).take()};
  });
  util::Buffer payload(500, 0x42);
  ASSERT_TRUE(tx.send(77, kern::MbufChain::from_bytes(payload, 128)).ok());
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 77);
  EXPECT_EQ(got->second, payload);
  EXPECT_EQ(tx.frames_sent(), 1u);
  EXPECT_EQ(rx.frames_received(), 1u);
}

TEST(Hobbit, SendWithoutUplinkFails) {
  kern::HobbitInterface h(atm::AtmAddress{"x"}, 128);
  EXPECT_EQ(h.send(1, kern::MbufChain{}).error(), util::Errc::not_connected);
  EXPECT_FALSE(h.connected());
}

TEST(Hobbit, LossyWireSurfacesAal5Errors) {
  sim::Simulator sim;
  util::Rng rng(5);
  kern::HobbitInterface tx(atm::AtmAddress{"tx"}, 128);
  kern::HobbitInterface rx(atm::AtmAddress{"rx"}, 128);
  atm::CellLink wire(sim, atm::kDs3Bps, sim::SimDuration{}, rx);
  wire.set_loss(0.05, &rng);
  tx.connect_uplink(wire);
  int frames = 0;
  rx.set_frame_handler([&](atm::Vci, kern::MbufChain) { ++frames; });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tx.send(9, kern::MbufChain::from_bytes(util::Buffer(900, 1), 128)).ok());
  }
  sim.run();
  EXPECT_LT(frames, 50);
  EXPECT_GT(rx.aal5_errors(), 0u);
}

TEST(Hobbit, FramePathAllocatesAtMostTwoBuffersPerFrame) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "alloc hook not linked into this binary";
  }
  // One buffer for the send-side chain, one for the reassembled frame: the
  // chain is segmented in place and the frame is adopted, never copied.
  sim::Simulator sim;
  kern::HobbitInterface tx(atm::AtmAddress{"tx"}, 128);
  kern::HobbitInterface rx(atm::AtmAddress{"rx"}, 128);
  atm::CellLink wire(sim, atm::kDs3Bps, sim::microseconds(10), rx);
  tx.connect_uplink(wire);
  util::Buffer payload(9180);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  int frames = 0;
  int intact = 0;
  rx.set_frame_handler([&](atm::Vci, kern::MbufChain chain) {
    ++frames;
    const util::BytesView got = chain.bytes();
    if (std::equal(got.begin(), got.end(), payload.begin(), payload.end())) ++intact;
  });
  auto send_one = [&] {
    ASSERT_TRUE(tx.send(77, kern::MbufChain::from_bytes(payload, 128)).ok());
    sim.run();
  };
  // Warm-up: fills the event pool, cell scratch and link queue, and runs
  // simulated time once around the event calendar so every slot's bucket
  // has its capacity.
  constexpr int kWarmup = 200;
  for (int i = 0; i < kWarmup; ++i) send_one();
  // A frame now costs a few events, too few to visit every calendar slot
  // during the warm-up; touch each slot's bucket directly.
  for (std::int64_t i = 0; i < 4096; ++i) sim.schedule(sim::nanoseconds(1024 * i), [] {});
  sim.run();
  constexpr int kFrames = 1000;
  const std::uint64_t before = util::alloc_count();
  for (int i = 0; i < kFrames; ++i) send_one();
  const std::uint64_t allocs = util::alloc_count() - before;
  EXPECT_EQ(frames, kWarmup + kFrames);
  EXPECT_EQ(intact, kWarmup + kFrames);
  EXPECT_LE(allocs, 2u * kFrames) << "allocations per frame: "
                                  << static_cast<double>(allocs) / kFrames;
}

// ------------------------------------------------------- WAN data plane

TEST(DataPlane, Ds3TrunkIsTheBottleneck) {
  // Router-to-router bulk transfer: the 45 Mb/s DS3 path (plus AAL5
  // cell-tax: 48 payload bytes per 53-byte cell) bounds throughput.
  auto tb = core::TestbedConfig{}.pvc_mesh().build();
  auto& r1 = tb->router(1);
  CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "bulk", 4930);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*tb->router(0).kernel,
                    tb->router(0).kernel->ip_node().address());
  std::optional<CallClient::Call> call;
  client.open("berkeley.rt", "bulk", "",
              [&](util::Result<CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(call.has_value());

  const int frames = 100;
  const std::size_t payload = 8192;
  sim::SimTime t0 = tb->sim().now();
  for (int i = 0; i < frames; ++i) {
    ASSERT_TRUE(client.send(*call, util::Buffer(payload, 0x11)).ok());
  }
  while (server.frames_received() < static_cast<std::uint64_t>(frames)) {
    tb->sim().run_for(sim::milliseconds(5));
  }
  double secs = (tb->sim().now() - t0).sec();
  double goodput = frames * payload * 8.0 / secs / 1e6;
  // Theoretical max: 45 Mb/s × 48/53 ≈ 40.8 Mb/s of AAL payload.
  EXPECT_GT(goodput, 30.0);
  EXPECT_LT(goodput, 41.0);
}

TEST(DataPlane, IntegrityUnderSustainedLoad) {
  // Every frame delivered end to end must be byte-identical: checksummed
  // payloads over 500 frames of varying size.
  auto tb = core::TestbedConfig{}.hosts(2).pvc_mesh().build();
  auto& h1 = tb->host(1);
  kern::Pid spid = h1.kernel->spawn("integrity-server");
  app::UserLib server(*h1.kernel, spid, h1.home->kernel->ip_node().address());
  std::uint64_t received = 0, bad = 0;
  server.export_service("integrity", 4931, [](util::Result<void>) {});
  server.await_service_request([&](util::Result<app::IncomingRequest> r) {
    ASSERT_TRUE(r.ok());
    server.accept_connection(*r, r->qos, [&](util::Result<app::OpenResult> res) {
      ASSERT_TRUE(res.ok());
      auto fd = server.bind_data_socket(*res);
      ASSERT_TRUE(fd.ok());
      (void)h1.kernel->xunet_on_receive(spid, *fd, [&](util::BytesView d) {
        // Frame layout: u32 crc of the rest | body.
        util::Reader rd(d);
        auto crc = rd.u32();
        ++received;
        if (!crc.ok() || util::crc32(rd.rest()) != *crc) ++bad;
      });
    });
  });
  tb->sim().run_for(sim::milliseconds(500));

  CallClient client(*tb->host(0).kernel,
                    tb->host(0).home->kernel->ip_node().address());
  std::optional<CallClient::Call> call;
  client.open("berkeley.rt", "integrity", "",
              [&](util::Result<CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(call.has_value());

  util::Rng rng(77);
  const int frames = 500;
  for (int i = 0; i < frames; ++i) {
    util::Buffer body(1 + rng.below(4000));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
    util::Writer w;
    w.u32(util::crc32(body));
    w.bytes(body);
    ASSERT_TRUE(client.send(*call, w.view()).ok());
  }
  tb->sim().run_for(sim::seconds(20));
  EXPECT_EQ(received, static_cast<std::uint64_t>(frames));
  EXPECT_EQ(bad, 0u);
}

// -------------------------------------------------------------- determinism

/// Run the standard scenario and fingerprint every observable counter.
std::string run_fingerprint() {
  auto tb = core::TestbedConfig{}.hosts(2).pvc_mesh().build();
  auto& h1 = tb->host(1);
  CallServer server(*h1.kernel, h1.home->kernel->ip_node().address(), "fp",
                    4940);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*tb->host(0).kernel,
                    tb->host(0).home->kernel->ip_node().address());
  std::optional<CallClient::Call> call;
  client.open("berkeley.rt", "fp", "class=predicted,bw=777000",
              [&](util::Result<CallClient::Call> r) { call = *r; });
  tb->sim().run_for(sim::seconds(2));
  if (!call) return "open-failed";
  for (int i = 0; i < 25; ++i) {
    (void)client.send(*call, util::Buffer(100 + 37 * static_cast<std::size_t>(i), 0x5));
  }
  tb->sim().run_for(sim::seconds(2));
  client.close_call(*call);
  tb->sim().run_for(sim::seconds(2));

  std::string fp;
  fp += std::to_string(tb->sim().now().ns()) + "|";
  fp += std::to_string(server.frames_received()) + "|";
  fp += std::to_string(server.bytes_received()) + "|";
  fp += std::to_string(tb->network().active_vc_count()) + "|";
  for (int i = 0; i < 2; ++i) {
    const auto& st = tb->router(static_cast<std::size_t>(i)).sighost->stats();
    fp += std::to_string(st.calls_established) + "," +
          std::to_string(st.calls_torn_down) + ";";
    fp += std::to_string(
              tb->router(static_cast<std::size_t>(i)).kernel->tcp().segments_sent()) +
          ";";
  }
  fp += std::to_string(call->info.vci) + "|" + call->info.qos;
  return fp;
}

TEST(Determinism, IdenticalRunsProduceIdenticalFingerprints) {
  std::string a = run_fingerprint();
  std::string b = run_fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("failed"), std::string::npos) << a;
}

}  // namespace
}  // namespace xunet
