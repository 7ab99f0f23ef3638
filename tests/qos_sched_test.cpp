// qos_sched_test.cpp — the QoS-enforcement conformance suite (the
// ref [17]/[18] future-work direction, enforced): GCRA policing boundary
// behaviour, per-VC weighted-fair scheduling within class bands, strict
// priority across bands, frame-aware EPD/PPD discard, the ABR rate-feedback
// loop, per-cause discard accounting, and byte-identical same-seed replay
// of every scheduling decision.  The end-to-end tests at the top drive the
// full signaling + kernel + switch stack; the raw-switch rigs below pin the
// traffic-management substrate cell by cell.
#include <gtest/gtest.h>

#include <numeric>

#include "atm/abr.hpp"
#include "atm/aal5.hpp"
#include "atm/gcra.hpp"
#include "atm/link.hpp"
#include "atm/switch.hpp"
#include "core/apps.hpp"
#include "core/testbed.hpp"
#include "digest.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;

/// Topology with a shared bottleneck: routers src-a.rt and src-b.rt both on
/// switch s1; sink.rt on s2; the single s1→s2 DS3 trunk carries both flows.
struct CongestionRig {
  std::unique_ptr<Testbed> tb;
  atm::AtmSwitch* s1 = nullptr;
  std::unique_ptr<CallServer> sink_g, sink_b;
  std::unique_ptr<CallClient> ca, cb;
  std::optional<CallClient::Call> call_g, call_b;

  CongestionRig() {
    core::TestbedConfig cfg;
    cfg.kernel.fd_table_size = 100;
    tb = std::make_unique<Testbed>(cfg);
    s1 = &tb->add_switch("s1");
    auto& s2 = tb->add_switch("s2");
    tb->connect_switches(*s1, s2);
    tb->add_router("src-a.rt", ip::make_ip(10, 1, 0, 1), *s1);
    tb->add_router("src-b.rt", ip::make_ip(10, 2, 0, 1), *s1);
    tb->add_router("sink.rt", ip::make_ip(10, 3, 0, 1), s2);
    EXPECT_TRUE(tb->bring_up().ok());

    auto& sink = tb->router(2);
    sink_g = std::make_unique<CallServer>(
        *sink.kernel, sink.kernel->ip_node().address(), "sink-g", 6000);
    sink_b = std::make_unique<CallServer>(
        *sink.kernel, sink.kernel->ip_node().address(), "sink-b", 6001);
    sink_g->set_qos_limit(atm::Qos{atm::ServiceClass::guaranteed, 45'000'000});
    sink_g->start([](util::Result<void>) {});
    sink_b->start([](util::Result<void>) {});
    tb->sim().run_for(sim::milliseconds(500));

    ca = std::make_unique<CallClient>(*tb->router(0).kernel,
                                      tb->router(0).kernel->ip_node().address());
    cb = std::make_unique<CallClient>(*tb->router(1).kernel,
                                      tb->router(1).kernel->ip_node().address());
    ca->open("sink.rt", "sink-g", "class=guaranteed,bw=20000000",
             [&](util::Result<CallClient::Call> r) {
               ASSERT_TRUE(r.ok());
               call_g = *r;
             });
    cb->open("sink.rt", "sink-b", "class=best_effort,bw=0",
             [&](util::Result<CallClient::Call> r) {
               ASSERT_TRUE(r.ok());
               call_b = *r;
             });
    tb->sim().run_for(sim::seconds(3));
    EXPECT_TRUE(call_g.has_value());
    EXPECT_TRUE(call_b.has_value());
  }

  /// Drive both flows for one simulated second at the given frame rates
  /// (frames of `size` bytes, spread evenly).
  void blast(int frames_g, int frames_b, std::size_t size) {
    for (int i = 0; i < std::max(frames_g, frames_b); ++i) {
      if (i < frames_g) {
        tb->sim().schedule(
            sim::seconds_f(double(i) / frames_g),
            [this, size] { (void)ca->send(*call_g, util::Buffer(size, 0x60)); });
      }
      if (i < frames_b) {
        tb->sim().schedule(
            sim::seconds_f(double(i) / frames_b),
            [this, size] { (void)cb->send(*call_b, util::Buffer(size, 0x0B)); });
      }
    }
    tb->sim().run_for(sim::seconds(3));
  }
};

TEST(QosScheduling, GuaranteedTrafficSurvivesCongestion) {
  CongestionRig rig;
  // Offered: guaranteed 20 Mb/s + best effort 40 Mb/s into a 45 Mb/s trunk
  // (with the 53/48 cell tax the trunk carries ~40.8 Mb/s of payload).
  const std::size_t size = 8000;
  const int g_frames = 312;  // ≈20 Mb/s
  const int b_frames = 625;  // ≈40 Mb/s
  rig.blast(g_frames, b_frames, size);

  double g_rate = rig.sink_g->bytes_received() * 8.0 / 1e6;
  double b_rate = rig.sink_b->bytes_received() * 8.0 / 1e6;
  // The guaranteed flow gets essentially everything it sent...
  EXPECT_GT(rig.sink_g->frames_received(), g_frames * 95 / 100);
  // ...while best effort bears all the loss.
  EXPECT_LT(rig.sink_b->frames_received(), static_cast<std::uint64_t>(b_frames));
  EXPECT_GT(g_rate, 19.0);
  EXPECT_LT(b_rate, 25.0);
  // The drops happened at the congested trunk port, best-effort class only.
  std::uint64_t be_drops = 0, g_drops = 0;
  for (int p = 0; p < rig.s1->port_count(); ++p) {
    be_drops += rig.s1->cells_dropped(p, atm::ServiceClass::best_effort);
    g_drops += rig.s1->cells_dropped(p, atm::ServiceClass::guaranteed);
  }
  EXPECT_GT(be_drops, 0u);
  EXPECT_EQ(g_drops, 0u);
}

TEST(QosScheduling, UncongestedBestEffortIsUnharmed) {
  CongestionRig rig;
  // Offered well under the trunk rate: nobody drops.
  rig.blast(100, 100, 4000);  // ~3.2 Mb/s each
  EXPECT_EQ(rig.sink_g->frames_received(), 100u);
  EXPECT_EQ(rig.sink_b->frames_received(), 100u);
  std::uint64_t drops = 0;
  for (int p = 0; p < rig.s1->port_count(); ++p) {
    for (auto c : {atm::ServiceClass::best_effort, atm::ServiceClass::predicted,
                   atm::ServiceClass::guaranteed}) {
      drops += rig.s1->cells_dropped(p, c);
    }
  }
  EXPECT_EQ(drops, 0u);
}

TEST(QosScheduling, QueuesDrainAfterTheBurst) {
  CongestionRig rig;
  rig.blast(200, 400, 8000);
  rig.tb->sim().run_for(sim::seconds(5));
  for (int p = 0; p < rig.s1->port_count(); ++p) {
    EXPECT_EQ(rig.s1->queue_depth(p), 0u) << "port " << p;
  }
}

/// Traffic descriptors offered by the client survive signaling end to end:
/// the wire QoS string carries them through CONNECT_REQ → negotiate →
/// VCI_FOR_CONN, and sighost's granted-QoS parse arms the GCRA at the
/// switches — a flow bursting past its own PCR is policed at ingress.
TEST(QosScheduling, DescriptorsSurviveSignalingEndToEnd) {
  CongestionRig rig;
  std::optional<CallClient::Call> call;
  rig.ca->open("sink.rt", "sink-g",
               "class=cbr,bw=5000000,pcr=8000000,scr=5000000,mbs=32",
               [&](util::Result<CallClient::Call> r) {
                 ASSERT_TRUE(r.ok());
                 call = *r;
               });
  rig.tb->sim().run_for(sim::seconds(3));
  ASSERT_TRUE(call.has_value());
  // The granted string still carries the descriptors (the server's limit
  // leaves them untouched)...
  auto granted = atm::parse_qos(call->info.qos);
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(granted->pcr_bps, 8'000'000u);
  EXPECT_EQ(granted->scr_bps, 5'000'000u);
  EXPECT_EQ(granted->mbs_cells, 32u);
  // ...and the switches enforce them: an uncontested burst far above PCR
  // loses cells to the policer, nowhere else.
  for (int i = 0; i < 100; ++i) {
    (void)rig.ca->send(*call, util::Buffer(8000, 0xCB));
  }
  rig.tb->sim().run_for(sim::seconds(2));
  std::uint64_t policed = 0;
  for (int p = 0; p < rig.s1->port_count(); ++p) {
    policed += rig.s1->cells_discarded(p, atm::DiscardCause::policed);
  }
  EXPECT_GT(policed, 0u);
}

// ===================================================================
// GCRA conformance — table-driven boundary behaviour of the policer.
// ===================================================================

TEST(Gcra, VirtualSchedulingBoundaryTable) {
  // GCRA(T=1000, tau=500): each row is (arrival_ns, must_conform).
  // Covers: idle start, back-to-back at T, maximum earliness (exactly
  // TAT - tau), one ns too early, and idle-credit reset (TAT jumps to t_a).
  struct Row {
    std::int64_t t_ns;
    bool conform;
  };
  constexpr Row kRows[] = {
      {0, true},      // TAT 0 -> 1000
      {1000, true},   // exactly on time          TAT -> 2000
      {1500, true},   // earliest allowed (boundary) TAT -> 3000
      {2499, false},  // 1 ns too early; TAT untouched
      {2500, true},   // boundary again           TAT -> 4000
      {3499, false},  // too early
      {5000, true},   // late: TAT resets to max(t,TAT)+T = 6000
      {5500, true},   // boundary                 TAT -> 7000
      {6000, false},  // too early (6000 < 6500)
  };
  atm::Gcra g(1000, 500);
  for (const Row& r : kRows) {
    EXPECT_EQ(g.police(sim::SimTime{} + sim::nanoseconds(r.t_ns)), r.conform)
        << "arrival at " << r.t_ns << " ns";
  }
  EXPECT_EQ(g.tat_ns(), 7000);
}

TEST(Gcra, NonConformingCellDoesNotChargeTheBucket) {
  atm::Gcra g(1000, 0);
  ASSERT_TRUE(g.police(sim::SimTime{}));
  const std::int64_t tat_before = g.tat_ns();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(g.police(sim::SimTime{} + sim::nanoseconds(500)));
  }
  EXPECT_EQ(g.tat_ns(), tat_before) << "rejected cells must leave TAT alone";
  EXPECT_TRUE(g.police(sim::SimTime{} + sim::nanoseconds(1000)));
}

TEST(Gcra, ZeroIncrementMeansUnpoliced) {
  atm::Gcra off;
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(off.police(sim::SimTime{}));  // back-to-back, all pass
  }
  atm::Qos q;  // no descriptors
  EXPECT_FALSE(q.needs_policing());
  EXPECT_FALSE(atm::DualGcra(q).enabled());
}

TEST(DualGcra, MbsBurstAtPcrConformsAndNotOneCellMore) {
  // PCR = one cell per 1000 ns, SCR = one per 4000 ns, MBS = 5:
  // BT = (5-1) * (4000-1000) = 12000 ns.  With CDVT 0, exactly 5
  // back-to-back cells at PCR spacing conform; the 6th violates SCR.
  atm::Qos q;
  q.pcr_bps = atm::kCellBits * 1'000'000'000ull / 1000;
  q.scr_bps = atm::kCellBits * 1'000'000'000ull / 4000;
  q.mbs_cells = 5;
  ASSERT_TRUE(q.needs_policing());
  atm::DualGcra police(q, /*cdvt_ns=*/0);
  ASSERT_TRUE(police.enabled());
  for (int k = 0; k < 5; ++k) {
    EXPECT_TRUE(police.police(sim::SimTime{} + sim::nanoseconds(1000 * k)))
        << "burst cell " << k;
  }
  EXPECT_FALSE(police.police(sim::SimTime{} + sim::nanoseconds(5000)))
      << "cell MBS+1 must violate the SCR bucket";
  // A reject charges neither bucket: had it charged SCR, the earliest
  // conforming arrival would move past 8000 ns.
  EXPECT_FALSE(police.police(sim::SimTime{} + sim::nanoseconds(7999)));
  EXPECT_TRUE(police.police(sim::SimTime{} + sim::nanoseconds(8000)));
}

TEST(DualGcra, PcrBucketPolicesPeaksEvenUnderScr) {
  // SCR long-run rate is honoured but cells closer than 1/PCR still fail:
  // the dual bucket is an AND, not a max.
  atm::Qos q;
  q.pcr_bps = atm::kCellBits * 1'000'000'000ull / 1000;  // 1 per 1000 ns
  q.scr_bps = atm::kCellBits * 1'000'000'000ull / 2000;  // 1 per 2000 ns
  q.mbs_cells = 100;  // SCR slack is plentiful
  atm::DualGcra police(q, /*cdvt_ns=*/0);
  EXPECT_TRUE(police.police(sim::SimTime{}));
  EXPECT_FALSE(police.police(sim::SimTime{} + sim::nanoseconds(999)))
      << "closer than 1/PCR";
  EXPECT_TRUE(police.police(sim::SimTime{} + sim::nanoseconds(1000)));
}

// ===================================================================
// Raw-switch rig: one switch, N input ports, one bottleneck output.
// ===================================================================

/// Records every cell the output link delivers, with its arrival instant.
struct RecordSink final : atm::CellSink {
  explicit RecordSink(sim::Simulator& s) : sim(s) {}
  sim::Simulator& sim;
  std::vector<atm::Cell> cells;
  std::vector<std::int64_t> times_ns;
  void cell_arrival(const atm::Cell& c) override {
    cells.push_back(c);
    times_ns.push_back(sim.now().ns());
  }
  void cells_arrival(const atm::Cell* cs, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) cell_arrival(cs[i]);
  }
  [[nodiscard]] std::uint64_t delivered(atm::Vci vci) const {
    std::uint64_t n = 0;
    for (const atm::Cell& c : cells) n += (c.vci == vci && !c.rm) ? 1 : 0;
    return n;
  }
};

/// One switch with `inputs` input ports (each behind its own fast link, so
/// sources do not serialize against each other) and one output port at
/// `out_rate_bps` with a buffer of `queue_cells`.
struct SwitchRig {
  sim::Simulator sim;
  atm::AtmSwitch sw;
  RecordSink sink;
  std::vector<std::unique_ptr<atm::CellLink>> in;
  std::unique_ptr<atm::CellLink> out;
  int p_out;

  explicit SwitchRig(std::uint64_t out_rate_bps, std::size_t queue_cells,
                     int inputs = 1)
      : sw(sim, "uut", sim::microseconds(10), queue_cells),
        sink(sim) {
    for (int i = 0; i < inputs; ++i) {
      const int p = sw.add_port();
      in.push_back(std::make_unique<atm::CellLink>(
          sim, atm::kOc12Bps, sim::microseconds(5), sw.input(p)));
    }
    p_out = sw.add_port();
    out = std::make_unique<atm::CellLink>(sim, out_rate_bps,
                                          sim::microseconds(5), sink);
    sw.set_output(p_out, *out);
  }

  /// Route input port `i`'s `vci` to the bottleneck, keeping the VCI.
  void route(int i, atm::Vci vci, const atm::Qos& qos) {
    ASSERT_TRUE(sw.install_route(i, vci, p_out, vci, qos).ok());
  }

  /// Offer `n` cells on input `i`, one every `gap`, starting at `start`.
  void offer(int i, atm::Vci vci, int n, sim::SimDuration gap,
             sim::SimDuration start = {}) {
    atm::Cell cell;
    cell.vci = vci;
    for (int k = 0; k < n; ++k) {
      sim.schedule(start + gap * k, [this, i, cell] { in[size_t(i)]->send(cell); });
    }
  }

  [[nodiscard]] std::uint64_t discarded(atm::DiscardCause cause) const {
    std::uint64_t n = 0;
    for (int p = 0; p < sw.port_count(); ++p) n += sw.cells_discarded(p, cause);
    return n;
  }
  [[nodiscard]] std::uint64_t dropped_all_classes() const {
    std::uint64_t n = 0;
    for (int p = 0; p < sw.port_count(); ++p) {
      for (std::size_t c = 0; c < atm::kServiceClassCount; ++c) {
        n += sw.cells_dropped(p, static_cast<atm::ServiceClass>(c));
      }
    }
    return n;
  }
};

TEST(SwitchPolicing, GcraShedsAtIngressAndCountsExactly) {
  SwitchRig rig(atm::kDs3Bps, 2048);
  atm::Qos q;
  q.service_class = atm::ServiceClass::guaranteed;
  q.bandwidth_bps = 2'000'000;
  q.pcr_bps = 2'000'000;  // T_pcr = 212 us per cell
  rig.route(0, 100, q);
  // 500 cells at 10 us spacing: ~21x the peak rate.
  rig.offer(0, 100, 500, sim::microseconds(10));
  rig.sim.run();

  const std::uint64_t policed = rig.discarded(atm::DiscardCause::policed);
  EXPECT_GT(policed, 400u) << "most of a 21x burst must be non-conforming";
  EXPECT_EQ(policed + rig.sink.delivered(100), 500u)
      << "every cell is either policed or delivered";
  // Policing drops are charged at the ingress port, no other cause fires.
  EXPECT_GT(rig.sw.cells_discarded(0, atm::DiscardCause::policed), 0u);
  EXPECT_EQ(rig.discarded(atm::DiscardCause::overflow), 0u);
  EXPECT_EQ(rig.discarded(atm::DiscardCause::epd), 0u);
  EXPECT_EQ(rig.discarded(atm::DiscardCause::ppd), 0u);
  // Exactly one cause counter per drop: causes and classes must sum equal.
  EXPECT_EQ(rig.discarded(atm::DiscardCause::policed), rig.dropped_all_classes());
}

TEST(SwitchPolicing, ConformingTrafficPassesUntouched) {
  SwitchRig rig(atm::kDs3Bps, 2048);
  atm::Qos q;
  q.service_class = atm::ServiceClass::guaranteed;
  q.bandwidth_bps = 2'000'000;
  q.pcr_bps = 2'000'000;
  rig.route(0, 100, q);
  // Offered exactly at PCR spacing (212 us > T_pcr cushion: use 250 us).
  rig.offer(0, 100, 200, sim::microseconds(250));
  rig.sim.run();
  EXPECT_EQ(rig.sink.delivered(100), 200u);
  EXPECT_EQ(rig.dropped_all_classes(), 0u);
}

TEST(SwitchPolicing, RouteWithoutDescriptorsIsNeverPoliced) {
  SwitchRig rig(atm::kDs3Bps, 1u << 15);
  atm::Qos q;
  q.service_class = atm::ServiceClass::guaranteed;
  q.bandwidth_bps = 2'000'000;  // reservation but no PCR/SCR
  rig.route(0, 100, q);
  rig.offer(0, 100, 500, sim::microseconds(10));  // same 21x burst
  rig.sim.run();
  EXPECT_EQ(rig.sink.delivered(100), 500u);
  EXPECT_EQ(rig.discarded(atm::DiscardCause::policed), 0u);
}

// ===================================================================
// Weighted-fair queueing within a band, strict priority across bands.
// ===================================================================

/// Jain's fairness index over per-flow goodput: 1.0 = perfectly even.
double jain_index(const std::vector<std::uint64_t>& x) {
  double sum = 0, sum_sq = 0;
  for (std::uint64_t v : x) {
    sum += double(v);
    sum_sq += double(v) * double(v);
  }
  return sum * sum / (double(x.size()) * sum_sq);
}

TEST(WfqScheduling, EqualWeightFlowsShareTheBottleneckFairly) {
  // Three UBR flows, each offered ~2 Mb/s into a 3 Mb/s bottleneck: 2x
  // aggregate overload, identical weights.
  SwitchRig rig(3'000'000, 256, 3);
  for (int i = 0; i < 3; ++i) {
    rig.route(i, atm::Vci(100 + i), atm::Qos{});
    rig.offer(i, atm::Vci(100 + i), 4000, sim::microseconds(212));
  }
  rig.sim.run();
  std::vector<std::uint64_t> goodput;
  for (int i = 0; i < 3; ++i) goodput.push_back(rig.sink.delivered(atm::Vci(100 + i)));
  for (std::uint64_t g : goodput) EXPECT_GT(g, 0u);
  EXPECT_GE(jain_index(goodput), 0.98)
      << goodput[0] << " / " << goodput[1] << " / " << goodput[2];
}

TEST(WfqScheduling, ReservationWeightsSplitTwoToOne) {
  // Two guaranteed flows reserving 2 Mb/s and 1 Mb/s on a 3 Mb/s trunk,
  // both offered ~3 Mb/s: the scheduler must hold goodput at the 2:1
  // reserved ratio, not the 1:1 arrival ratio.
  SwitchRig rig(3'000'000, 256, 2);
  atm::Qos qa;
  qa.service_class = atm::ServiceClass::guaranteed;
  qa.bandwidth_bps = 2'000'000;
  atm::Qos qb = qa;
  qb.bandwidth_bps = 1'000'000;
  rig.route(0, 100, qa);
  rig.route(1, 101, qb);
  rig.offer(0, 100, 7000, sim::microseconds(141));
  rig.offer(1, 101, 7000, sim::microseconds(141));
  rig.sim.run();
  const double a = double(rig.sink.delivered(100));
  const double b = double(rig.sink.delivered(101));
  ASSERT_GT(b, 0.0);
  EXPECT_NEAR(a / b, 2.0, 0.1) << "a=" << a << " b=" << b;
}

TEST(WfqScheduling, StrictPriorityProtectsGuaranteedFromUbrFlood) {
  SwitchRig rig(3'000'000, 256, 2);
  atm::Qos g;
  g.service_class = atm::ServiceClass::guaranteed;
  g.bandwidth_bps = 1'000'000;
  rig.route(0, 100, g);
  rig.route(1, 200, atm::Qos{});
  // Guaranteed offered within its reservation; UBR offered at 2x the trunk.
  rig.offer(0, 100, 2000, sim::microseconds(424));    // ~1 Mb/s
  rig.offer(1, 200, 12000, sim::microseconds(70));    // ~6 Mb/s
  rig.sim.run();
  EXPECT_EQ(rig.sink.delivered(100), 2000u) << "guaranteed must not lose a cell";
  EXPECT_LT(rig.sink.delivered(200), 12000u) << "UBR must shed";
  std::uint64_t g_drops = 0;
  for (int p = 0; p < rig.sw.port_count(); ++p) {
    g_drops += rig.sw.cells_dropped(p, atm::ServiceClass::guaranteed);
  }
  EXPECT_EQ(g_drops, 0u);
}

TEST(WfqScheduling, PushOutEvictsLowerBandForReservedArrivals) {
  // Fill the buffer entirely with UBR, then arrive guaranteed: push-out
  // must evict UBR cells (counted under UBR/overflow), never drop the
  // reserved arrivals.
  SwitchRig rig(1'000'000, 64, 2);
  atm::Qos g;
  g.service_class = atm::ServiceClass::guaranteed;
  g.bandwidth_bps = 900'000;
  rig.route(0, 100, g);
  rig.route(1, 200, atm::Qos{});
  rig.offer(1, 200, 300, sim::microseconds(10));  // instant UBR pile-up
  rig.offer(0, 100, 100, sim::microseconds(470), sim::milliseconds(5));
  rig.sim.run();
  EXPECT_EQ(rig.sink.delivered(100), 100u);
  std::uint64_t ubr_drops = 0, g_drops = 0;
  for (int p = 0; p < rig.sw.port_count(); ++p) {
    ubr_drops += rig.sw.cells_dropped(p, atm::ServiceClass::best_effort);
    g_drops += rig.sw.cells_dropped(p, atm::ServiceClass::guaranteed);
  }
  EXPECT_GT(ubr_drops, 0u);
  EXPECT_EQ(g_drops, 0u);
  EXPECT_EQ(rig.discarded(atm::DiscardCause::overflow), ubr_drops);
}

TEST(WfqScheduling, TailDropPolicyDoesNotProtectReservations) {
  // Like the push-out test, but under tail_drop a *sustained* UBR flood
  // holds the buffer: every slot the drain frees is re-taken by a UBR
  // arrival (10 us apart) long before the next guaranteed cell (430 us
  // apart), so reserved arrivals meet a full queue and are dropped too.
  // Shedding really is a policy, not hardwired behaviour.
  SwitchRig rig(1'000'000, 64, 2);
  rig.sw.set_discard_policy(atm::DiscardPolicy::tail_drop);
  atm::Qos g;
  g.service_class = atm::ServiceClass::guaranteed;
  g.bandwidth_bps = 900'000;
  rig.route(0, 100, g);
  rig.route(1, 200, atm::Qos{});
  rig.offer(1, 200, 5000, sim::microseconds(10));  // flood spans 50 ms
  rig.offer(0, 100, 100, sim::microseconds(430), sim::milliseconds(5));
  rig.sim.run();
  EXPECT_LT(rig.sink.delivered(100), 100u);
  std::uint64_t g_drops = 0;
  for (int p = 0; p < rig.sw.port_count(); ++p) {
    g_drops += rig.sw.cells_dropped(p, atm::ServiceClass::guaranteed);
  }
  EXPECT_GT(g_drops, 0u);
  EXPECT_EQ(rig.discarded(atm::DiscardCause::overflow),
            rig.dropped_all_classes());
}

// ===================================================================
// Frame-aware discard: EPD drops whole frames, PPD amputates ruined ones.
// ===================================================================

TEST(FrameDiscard, EpdDropsWholeFramesNeverShredsThem) {
  // Queue of 64 cells, EPD threshold at 48: 10-cell frames from a single
  // VC can never overflow mid-frame (48 + 10 < 64), so every loss is a
  // whole frame refused at its first cell.  The receiver must see clean
  // sequence gaps only — zero CRC or length failures.
  SwitchRig rig(3'000'000, 64);
  rig.sw.set_discard_policy(atm::DiscardPolicy::epd_ppd);
  rig.route(0, 100, atm::Qos{});

  atm::Aal5Segmenter seg;
  const util::Buffer payload(472, 0xED);  // exactly 10 cells
  for (int f = 0; f < 400; ++f) {
    rig.sim.schedule(sim::microseconds(500) * f, [&rig, &seg, &payload] {
      auto cells = seg.segment(100, {payload.data(), payload.size()});
      ASSERT_TRUE(cells.ok());
      for (const atm::Cell& c : *cells) rig.in[0]->send(c);
    });
  }
  rig.sim.run();

  const std::uint64_t epd = rig.discarded(atm::DiscardCause::epd);
  EXPECT_GT(epd, 0u) << "2.8x overload must trigger EPD";
  EXPECT_EQ(epd % 10, 0u) << "EPD discards whole 10-cell frames";
  EXPECT_EQ(rig.discarded(atm::DiscardCause::overflow), 0u)
      << "the EPD headroom must absorb every accepted frame";
  EXPECT_EQ(rig.discarded(atm::DiscardCause::ppd), 0u);

  std::uint64_t delivered_frames = 0;
  atm::Aal5Reassembler reasm([&](atm::Aal5Frame f) {
    ++delivered_frames;
    EXPECT_EQ(f.payload.size(), 472u);
  });
  for (const atm::Cell& c : rig.sink.cells) reasm.cell_arrival(c);
  EXPECT_GT(delivered_frames, 0u);
  // An intact frame right after an EPD gap is consumed by the Xunet
  // sequence check (out_of_order) rather than delivered — that is the
  // receiver *detecting* the gap.  Every frame is therefore delivered
  // whole, counted as a clean gap, or dropped whole at the switch.
  const std::uint64_t gaps = reasm.error_count(atm::Aal5Error::out_of_order);
  EXPECT_EQ(delivered_frames + gaps + epd / 10, 400u)
      << "every frame is delivered whole or dropped whole";
  EXPECT_EQ(reasm.error_count(atm::Aal5Error::crc_mismatch), 0u);
  EXPECT_EQ(reasm.error_count(atm::Aal5Error::length_mismatch), 0u);
}

TEST(FrameDiscard, PpdAmputatesRuinedFramesAndResynchronizes) {
  // Two VCs of 30-cell frames can both start below the EPD threshold and
  // jointly overflow the 64-cell buffer mid-frame: partial packet discard
  // must amputate the rest of each ruined frame, and the delimiter
  // discipline must let later frames reassemble.
  SwitchRig rig(3'000'000, 64, 2);
  rig.sw.set_discard_policy(atm::DiscardPolicy::epd_ppd);
  rig.route(0, 100, atm::Qos{});
  rig.route(1, 101, atm::Qos{});

  atm::Aal5Segmenter seg_a, seg_b;
  const util::Buffer payload(1432, 0x9D);  // exactly 30 cells
  for (int f = 0; f < 150; ++f) {
    rig.sim.schedule(sim::microseconds(800) * f, [&rig, &seg_a, &payload] {
      auto cells = seg_a.segment(100, {payload.data(), payload.size()});
      ASSERT_TRUE(cells.ok());
      for (const atm::Cell& c : *cells) rig.in[0]->send(c);
    });
    rig.sim.schedule(sim::microseconds(800) * f, [&rig, &seg_b, &payload] {
      auto cells = seg_b.segment(101, {payload.data(), payload.size()});
      ASSERT_TRUE(cells.ok());
      for (const atm::Cell& c : *cells) rig.in[1]->send(c);
    });
  }
  rig.sim.run();

  EXPECT_GT(rig.discarded(atm::DiscardCause::ppd), 0u)
      << "mid-frame overflow must trigger PPD";
  EXPECT_GT(rig.discarded(atm::DiscardCause::overflow), 0u)
      << "PPD is triggered BY an overflow loss";
  const std::size_t storm_cells = rig.sink.cells.size();

  // During the storm the EOF delimiter of a ruined frame is itself lost to
  // overflow, so the receiver's partial never closes — the damage is only
  // *detectable* once a later delimiter arrives.  Flush each VC with three
  // clean, uncontended frames: the first closes the merged wreckage (CRC
  // mismatch), the second is intact but lands on the sequence gap
  // (out_of_order, resynchronizing the VC), the third must be delivered.
  for (int k = 0; k < 3; ++k) {
    rig.sim.schedule(sim::milliseconds(10) * (k + 1), [&rig, &seg_a, &payload] {
      auto cells = seg_a.segment(100, {payload.data(), payload.size()});
      ASSERT_TRUE(cells.ok());
      for (const atm::Cell& c : *cells) rig.in[0]->send(c);
    });
    rig.sim.schedule(sim::milliseconds(10) * (k + 1), [&rig, &seg_b, &payload] {
      auto cells = seg_b.segment(101, {payload.data(), payload.size()});
      ASSERT_TRUE(cells.ok());
      for (const atm::Cell& c : *cells) rig.in[1]->send(c);
    });
  }
  rig.sim.run();

  std::uint64_t delivered_frames = 0;
  atm::Aal5Reassembler reasm([&](atm::Aal5Frame f) {
    ++delivered_frames;
    // A delivered frame passed CRC: PPD never leaks a truncated frame as
    // valid.
    EXPECT_EQ(f.payload.size(), 1432u);
  });
  for (std::size_t i = 0; i < storm_cells; ++i) {
    reasm.cell_arrival(rig.sink.cells[i]);
  }
  const std::uint64_t during_storm = delivered_frames;
  for (std::size_t i = storm_cells; i < rig.sink.cells.size(); ++i) {
    reasm.cell_arrival(rig.sink.cells[i]);
  }
  EXPECT_GT(reasm.error_count(atm::Aal5Error::crc_mismatch), 0u)
      << "ruined frames are detected, not silently lost";
  EXPECT_GT(delivered_frames, during_storm)
      << "each VC must resynchronize and deliver the final clean frame";
}

TEST(FrameDiscard, EveryDropIncrementsExactlyOneCauseCounter) {
  // Mixed pathology run: policing + EPD/PPD + overflow all firing at once.
  // The per-cause counters partition the per-class totals exactly.
  SwitchRig rig(2'000'000, 64, 2);
  rig.sw.set_discard_policy(atm::DiscardPolicy::epd_ppd);
  atm::Qos policed;
  policed.service_class = atm::ServiceClass::predicted;
  policed.bandwidth_bps = 1'000'000;
  policed.pcr_bps = 1'000'000;
  rig.route(0, 100, policed);
  rig.route(1, 101, atm::Qos{});
  atm::Aal5Segmenter seg;
  const util::Buffer payload(1432, 0x77);
  for (int f = 0; f < 100; ++f) {
    rig.sim.schedule(sim::microseconds(600) * f, [&rig, &seg, &payload] {
      auto cells = seg.segment(101, {payload.data(), payload.size()});
      ASSERT_TRUE(cells.ok());
      for (const atm::Cell& c : *cells) rig.in[1]->send(c);
    });
  }
  rig.offer(0, 100, 2000, sim::microseconds(30));
  rig.sim.run();
  const std::uint64_t causes =
      rig.discarded(atm::DiscardCause::policed) +
      rig.discarded(atm::DiscardCause::epd) +
      rig.discarded(atm::DiscardCause::ppd) +
      rig.discarded(atm::DiscardCause::overflow);
  EXPECT_GT(rig.discarded(atm::DiscardCause::policed), 0u);
  EXPECT_GT(rig.discarded(atm::DiscardCause::epd), 0u);
  EXPECT_EQ(causes, rig.dropped_all_classes());
}

// ===================================================================
// ABR rate feedback through RM cells.
// ===================================================================

TEST(Abr, SwitchStampsFairShareIntoForwardRmCells) {
  SwitchRig rig(10'000'000, 2048, 2);
  atm::Qos abr;
  abr.service_class = atm::ServiceClass::abr;
  abr.bandwidth_bps = 2'000'000;  // MCR reservation
  rig.route(0, 100, abr);
  rig.route(1, 101, abr);
  ASSERT_EQ(rig.sw.abr_route_count(rig.p_out), 2u);
  // Fair share = (10 - 2*2) Mb/s unreserved, split over two ABR VCs = 3 Mb/s.
  atm::Cell rm;
  rm.vci = 100;
  rm.rm = true;
  rm.er_bps = 45'000'000;  // the source asks for everything
  rig.sim.schedule(sim::SimDuration{}, [&] { rig.in[0]->send(rm); });
  rig.sim.run();
  ASSERT_EQ(rig.sink.cells.size(), 1u);
  EXPECT_TRUE(rig.sink.cells[0].rm);
  EXPECT_EQ(rig.sink.cells[0].er_bps, 3'000'000u);
  EXPECT_FALSE(rig.sink.cells[0].ci) << "empty queue must not signal congestion";
}

TEST(Abr, CongestionBitSetWhenQueueCrossesQuarter) {
  SwitchRig rig(1'000'000, 256, 2);
  atm::Qos abr;
  abr.service_class = atm::ServiceClass::abr;
  abr.bandwidth_bps = 100'000;
  rig.route(0, 100, abr);
  rig.route(1, 200, atm::Qos{});
  // Pile >64 UBR cells into the 256-cell buffer, then pass an RM cell.
  rig.offer(1, 200, 200, sim::microseconds(5));
  atm::Cell rm;
  rm.vci = 100;
  rm.rm = true;
  rig.sim.schedule(sim::milliseconds(2), [&] { rig.in[0]->send(rm); });
  rig.sim.run();
  const atm::Cell* out_rm = nullptr;
  for (const atm::Cell& c : rig.sink.cells) {
    if (c.rm) out_rm = &c;
  }
  ASSERT_NE(out_rm, nullptr);
  EXPECT_TRUE(out_rm->ci);
}

TEST(Abr, RmCellsAreExemptFromPolicing) {
  SwitchRig rig(atm::kDs3Bps, 2048);
  atm::Qos q;
  q.service_class = atm::ServiceClass::abr;
  q.bandwidth_bps = 1'000'000;
  q.pcr_bps = 1'000'000;
  rig.route(0, 100, q);
  // 50 RM cells back-to-back: all must pass even though the data policer
  // would reject this spacing.
  for (int k = 0; k < 50; ++k) {
    rig.sim.schedule(sim::microseconds(k), [&rig] {
      atm::Cell rm;
      rm.vci = 100;
      rm.rm = true;
      rig.in[0]->send(rm);
    });
  }
  rig.sim.run();
  std::uint64_t rm_out = 0;
  for (const atm::Cell& c : rig.sink.cells) rm_out += c.rm ? 1 : 0;
  EXPECT_EQ(rm_out, 50u);
  EXPECT_EQ(rig.discarded(atm::DiscardCause::policed), 0u);
}

TEST(Abr, SourceConvergesToTheStampedExplicitRate) {
  // Closed loop: source -> switch (5 Mb/s bottleneck) -> destination
  // turnaround -> switch -> back to the source.  The source starts at
  // ICR = PCR/16 and must converge to exactly the fair share the
  // bottleneck stamps: (5 - 1) Mb/s unreserved / 1 ABR VC = 4 Mb/s.
  sim::Simulator sim;
  atm::AtmSwitch sw(sim, "loop", sim::microseconds(10), 2048);
  const int p_src_in = sw.add_port();
  const int p_dst_out = sw.add_port();
  const int p_dst_in = sw.add_port();
  const int p_src_out = sw.add_port();

  RecordSink dst_data(sim);
  struct RmDispatch final : atm::CellSink {
    std::function<void(const atm::Cell&)> fn;
    void cell_arrival(const atm::Cell& c) override { fn(c); }
  };

  atm::CellLink src_up(sim, atm::kDs3Bps, sim::microseconds(5), sw.input(p_src_in));
  RmDispatch dst_sink;
  atm::CellLink to_dst(sim, 5'000'000, sim::microseconds(5), dst_sink);
  sw.set_output(p_dst_out, to_dst);
  atm::CellLink dst_up(sim, atm::kDs3Bps, sim::microseconds(5), sw.input(p_dst_in));
  RmDispatch src_sink;
  atm::CellLink to_src(sim, atm::kDs3Bps, sim::microseconds(5), src_sink);
  sw.set_output(p_src_out, to_src);

  atm::Qos abr;
  abr.service_class = atm::ServiceClass::abr;
  abr.bandwidth_bps = 1'000'000;  // MCR
  ASSERT_TRUE(sw.install_route(p_src_in, 100, p_dst_out, 100, abr).ok());
  ASSERT_TRUE(sw.install_route(p_dst_in, 300, p_src_out, 300, atm::Qos{}).ok());

  atm::AbrParams params;
  params.pcr_bps = atm::kDs3Bps;
  params.mcr_bps = 1'000'000;
  atm::AbrSource src(sim, src_up, 100, params);
  atm::AbrTurnaround turnaround(dst_up, 300);
  dst_sink.fn = [&](const atm::Cell& c) {
    if (c.rm) {
      turnaround.on_rm(c);
    } else {
      dst_data.cell_arrival(c);
    }
  };
  src_sink.fn = [&](const atm::Cell& c) { src.on_backward_rm(c); };

  // Offer 10 Mb/s worth of data for half a second: twice what the loop
  // will allow through.
  atm::Cell data;
  data.vci = 100;
  for (int k = 0; k < 12'000; ++k) {
    sim.schedule(sim::nanoseconds(42'400) * k, [&src, data] { src.submit(data); });
  }
  sim.run_for(sim::seconds(1));

  EXPECT_GT(src.rm_sent(), 0u);
  EXPECT_GT(src.rm_received(), 0u);
  EXPECT_EQ(turnaround.turned_around(), src.rm_received());
  EXPECT_EQ(src.acr_bps(), 4'000'000u)
      << "ACR must pin to the stamped explicit rate";
  EXPECT_GT(dst_data.cells.size(), 0u);
  // Goodput stays at/below the allowed rate (4 Mb/s of cells over the time
  // actually spent transmitting), far below the 10 Mb/s offered.
  EXPECT_LT(dst_data.cells.size(), 10'000u);
}

// ===================================================================
// Determinism: the full scheduling/policing pipeline replays
// byte-identically across runs, pinned by a golden digest.
// ===================================================================

std::string scheduler_transcript() {
  SwitchRig rig(3'000'000, 128, 3);
  rig.sw.set_discard_policy(atm::DiscardPolicy::epd_ppd);
  atm::Qos g;
  g.service_class = atm::ServiceClass::guaranteed;
  g.bandwidth_bps = 1'000'000;
  g.pcr_bps = 2'000'000;
  atm::Qos p;
  p.service_class = atm::ServiceClass::predicted;
  p.bandwidth_bps = 500'000;
  rig.route(0, 100, g);
  rig.route(1, 101, p);
  rig.route(2, 102, atm::Qos{});
  rig.offer(0, 100, 1500, sim::microseconds(150));
  rig.offer(1, 101, 1500, sim::microseconds(170));
  rig.offer(2, 102, 3000, sim::microseconds(60));
  rig.sim.run();

  std::string t;
  t.reserve(rig.sink.cells.size() * 24);
  for (std::size_t i = 0; i < rig.sink.cells.size(); ++i) {
    t += std::to_string(rig.sink.times_ns[i]);
    t += ':';
    t += std::to_string(rig.sink.cells[i].vci);
    t += rig.sink.cells[i].end_of_frame ? "E;" : ";";
  }
  for (std::size_t c = 0; c < atm::kDiscardCauseCount; ++c) {
    t += '|';
    t += std::to_string(rig.discarded(static_cast<atm::DiscardCause>(c)));
  }
  t += '|' + std::to_string(rig.sw.cells_switched());
  return t;
}

/// Digest of the 22,139-byte transcript, recorded when a second,
/// independent event engine still cross-checked the dispatch order.
constexpr std::uint64_t kSchedulerTranscriptDigest = 0x61982529d5591033ull;

TEST(QosDeterminism, SchedulerReplayMatchesGoldenDigest) {
  const std::string t = scheduler_transcript();
  ASSERT_GT(t.size(), 1000u) << "transcript suspiciously small";
  EXPECT_EQ(golden::fnv1a64(t), kSchedulerTranscriptDigest)
      << std::hex << "digest 0x" << golden::fnv1a64(t) << std::dec << " over "
      << t.size() << " bytes";
}

TEST(QosDeterminism, SchedulerReplayIsByteIdenticalAcrossRuns) {
  EXPECT_EQ(scheduler_transcript(), scheduler_transcript());
}

}  // namespace
}  // namespace xunet
