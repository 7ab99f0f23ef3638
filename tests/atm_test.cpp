// atm_test.cpp — QoS, VCI allocation, cell links, switches, and the ATM
// network controller (routing, admission, PVCs, teardown).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "atm/network.hpp"
#include "atm/qos.hpp"
#include "util/alloc_hook.hpp"
#include "util/rng.hpp"

namespace xunet::atm {
namespace {

// --------------------------------------------------------------------- QoS

TEST(Qos, FormatAndParseRoundTrip) {
  Qos q{ServiceClass::guaranteed, 1'500'000};
  auto s = to_string(q);
  EXPECT_EQ(s, "class=guaranteed,bw=1500000");
  auto back = parse_qos(s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, q);
}

TEST(Qos, EmptyStringIsBestEffort) {
  auto q = parse_qos("");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->service_class, ServiceClass::best_effort);
  EXPECT_EQ(q->bandwidth_bps, 0u);
  EXPECT_FALSE(q->needs_reservation());
}

TEST(Qos, UnknownKeysIgnoredForExtensibility) {
  auto q = parse_qos("class=predicted,bw=100,delay=5ms");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->service_class, ServiceClass::predicted);
  EXPECT_EQ(q->bandwidth_bps, 100u);
}

TEST(Qos, MalformedStringsRejected) {
  EXPECT_FALSE(parse_qos("class").ok());
  EXPECT_FALSE(parse_qos("bw=abc").ok());
  EXPECT_FALSE(parse_qos("class=warp").ok());
  EXPECT_FALSE(parse_qos("bw=1x").ok());
}

// A Qos in Qos's own 40-byte layout, with the padding declared as fields.
// gtest names each case after the bytes of its parameter, padding included.
// Its internal copies of a plain Qos go field by field, so that padding held
// stale heap bytes and the case names changed from run to run.  Copies of this
// struct carry every byte, which keeps the names fixed.  `pad` lets a case
// keep the name it was first listed under.
struct QosBytes {
  ServiceClass service_class;
  std::array<unsigned char, 7> pad;
  std::uint64_t bandwidth_bps;
  std::uint64_t pcr_bps;
  std::uint64_t scr_bps;
  std::uint32_t mbs_cells;
  std::uint32_t tail_pad = 0;

  QosBytes(const Qos& q, std::array<unsigned char, 7> p = {})
      : service_class(q.service_class),
        pad(p),
        bandwidth_bps(q.bandwidth_bps),
        pcr_bps(q.pcr_bps),
        scr_bps(q.scr_bps),
        mbs_cells(q.mbs_cells) {}

  [[nodiscard]] Qos qos() const {
    return {service_class, bandwidth_bps, pcr_bps, scr_bps, mbs_cells};
  }
};
static_assert(sizeof(QosBytes) == sizeof(Qos));

struct NegotiateCase {
  QosBytes offered;
  QosBytes limit;
  QosBytes expect;
};

class QosNegotiate : public ::testing::TestWithParam<NegotiateCase> {};

TEST_P(QosNegotiate, ServerMayOnlyShrink) {
  const Qos offered = GetParam().offered.qos();
  const Qos limit = GetParam().limit.qos();
  Qos granted = negotiate(offered, limit);
  EXPECT_EQ(granted, GetParam().expect.qos());
  // The granted QoS never exceeds either side.
  EXPECT_LE(granted.bandwidth_bps, offered.bandwidth_bps);
  EXPECT_LE(granted.bandwidth_bps, limit.bandwidth_bps);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, QosNegotiate,
    ::testing::Values(
        NegotiateCase{Qos{ServiceClass::guaranteed, 100}, Qos{ServiceClass::guaranteed, 200}, Qos{ServiceClass::guaranteed, 100}},
        NegotiateCase{Qos{ServiceClass::guaranteed, 300}, Qos{ServiceClass::predicted, 200}, Qos{ServiceClass::predicted, 200}},
        NegotiateCase{QosBytes{Qos{ServiceClass::best_effort, 0}, {0xAD, 0x9E, 0x2A}},
                      Qos{ServiceClass::guaranteed, 200}, Qos{ServiceClass::best_effort, 0}},
        NegotiateCase{Qos{ServiceClass::predicted, 500}, Qos{ServiceClass::guaranteed, 100}, Qos{ServiceClass::predicted, 100}}));

// ----------------------------------------------------------- VciAllocator

TEST(VciAllocator, AllocatesDistinctSwitchedVcis) {
  VciAllocator a;
  auto v1 = a.allocate();
  auto v2 = a.allocate();
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_NE(*v1, *v2);
  EXPECT_GE(*v1, kFirstSwitchedVci);
}

TEST(VciAllocator, ReserveAndConflict) {
  VciAllocator a;
  EXPECT_TRUE(a.reserve(5).ok());
  EXPECT_EQ(a.reserve(5).error(), util::Errc::duplicate);
  EXPECT_EQ(a.reserve(0).error(), util::Errc::invalid_argument);
  a.release(5);
  EXPECT_TRUE(a.reserve(5).ok());
}

TEST(VciAllocator, ReleaseEnablesReuse) {
  VciAllocator a;
  auto v = a.allocate();
  ASSERT_TRUE(v.ok());
  a.release(*v);
  auto again = a.allocate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *v);
}

TEST(VciAllocator, ExhaustionReported) {
  VciAllocator a;
  // 32-bit counter: kMaxVci is the top of the 16-bit space, so a Vci loop
  // variable would wrap instead of terminating.
  for (std::uint32_t v = kFirstSwitchedVci; v <= kMaxVci; ++v) {
    ASSERT_TRUE(a.allocate().ok());
  }
  EXPECT_EQ(a.allocate().error(), util::Errc::no_resources);
}

TEST(VciAllocator, MatchesLowestFreeModelUnderMixedClassChurn) {
  // Brute-force model: a used-bitmap, and allocate() scans the residue
  // class upward from the switched floor for the first free VCI.
  std::vector<bool> used(std::size_t{kMaxVci} + 1, false);
  std::vector<Vci> live;
  std::size_t in_use = 0;
  auto model_allocate = [&](std::uint32_t mod, std::uint32_t rem) -> util::Result<Vci> {
    for (std::uint32_t v = kFirstSwitchedVci; v <= kMaxVci; ++v) {
      if (v % mod == rem && !used[v]) {
        used[v] = true;
        ++in_use;
        return static_cast<Vci>(v);
      }
    }
    return util::Errc::no_resources;
  };

  // Dense classes, shard-style halves and thirds, and two sparse classes
  // (8 and 4 members) that run dry and refill.
  const VciPartition classes[] = {{1, 0}, {2, 0}, {2, 1}, {3, 2}, {8192, 3}, {16000, 1500}};
  VciAllocator a;
  util::Rng rng(2024);
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 55) {
      const VciPartition c = classes[rng.below(std::size(classes))];
      auto got = a.allocate(c.mod, c.rem);
      auto want = model_allocate(c.mod, c.rem);
      ASSERT_EQ(got.ok(), want.ok()) << "step " << step;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << "step " << step << " class " << c.mod << "/" << c.rem;
        live.push_back(*got);
      }
    } else if (op < 90) {
      if (live.empty()) continue;
      const std::size_t i = rng.below(live.size());
      const Vci v = live[i];
      live[i] = live.back();
      live.pop_back();
      a.release(v);
      used[v] = false;
      --in_use;
    } else if (op < 95) {
      // Reserve anywhere, PVC range included; taken VCIs must be refused.
      const auto v = static_cast<Vci>(1 + rng.below(kMaxVci));
      auto got = a.reserve(v);
      ASSERT_EQ(got.ok(), !used[v]) << "step " << step << " vci " << v;
      if (got.ok()) {
        used[v] = true;
        ++in_use;
        live.push_back(v);
      }
    } else {
      // Releasing a VCI that is not in use is a no-op.
      const auto v = static_cast<Vci>(1 + rng.below(kMaxVci));
      if (used[v]) continue;
      a.release(v);
    }
    ASSERT_EQ(a.in_use(), in_use) << "step " << step;
  }
}

TEST(VciAllocator, ReservesTheTopVci) {
  VciAllocator a;
  EXPECT_TRUE(a.reserve(kMaxVci).ok());
  EXPECT_EQ(a.reserve(kMaxVci).error(), util::Errc::duplicate);
  EXPECT_EQ(a.in_use(), 1u);
  a.release(kMaxVci);
  EXPECT_EQ(a.in_use(), 0u);
  EXPECT_TRUE(a.reserve(kMaxVci).ok());
}

TEST(VciAllocator, ReleasingAnUnusedVciChangesNothing) {
  VciAllocator a;
  auto v = a.allocate();
  ASSERT_TRUE(v.ok());
  a.release(static_cast<Vci>(*v + 1));  // never handed out
  a.release(7);                         // never reserved
  EXPECT_EQ(a.in_use(), 1u);
  // The stray releases left no hole: the next VCI is the next in line.
  auto next = a.allocate();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, *v + 1);
}

TEST(VciAllocator, InUseCountsReservedAndAllocated) {
  VciAllocator a;
  ASSERT_TRUE(a.reserve(5).ok());
  ASSERT_TRUE(a.reserve(kFirstSwitchedVci).ok());
  auto even = a.allocate(2, 0);  // skips the reserved floor VCI
  auto odd = a.allocate(2, 1);
  auto any = a.allocate();
  ASSERT_TRUE(even.ok() && odd.ok() && any.ok());
  EXPECT_EQ(*even, kFirstSwitchedVci + 2);
  EXPECT_EQ(*odd, kFirstSwitchedVci + 1);
  EXPECT_EQ(*any, kFirstSwitchedVci + 3);
  EXPECT_EQ(a.in_use(), 5u);
  a.release(*odd);
  a.release(5);
  EXPECT_EQ(a.in_use(), 3u);
  // The freed odd VCI is the lowest free one for both classes it is in.
  EXPECT_EQ(*a.allocate(), kFirstSwitchedVci + 1);
  EXPECT_EQ(a.in_use(), 4u);
}

TEST(VciAllocator, ReleaseAllocateCycleAllocatesNothing) {
  if (!util::alloc_hook_installed()) GTEST_SKIP() << "alloc hook not linked";
  VciAllocator a;
  std::vector<Vci> live;
  for (int i = 0; i < 64; ++i) live.push_back(*a.allocate(2, 1));
  // Warm up: each class's hole heap reaches its working capacity.
  for (Vci v : live) a.release(v);
  for (Vci& v : live) v = *a.allocate(2, 1);
  const std::uint64_t before = util::alloc_count();
  for (int round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < live.size(); i += 3) {
      a.release(live[i]);
      live[i] = *a.allocate(2, 1);
    }
  }
  EXPECT_EQ(util::alloc_count() - before, 0u);
  EXPECT_EQ(a.in_use(), live.size());
}

// ---------------------------------------------------------------- CellLink

struct SinkCapture : CellSink {
  std::vector<Cell> cells;
  void cell_arrival(const Cell& c) override { cells.push_back(c); }
};

TEST(CellLink, DeliversAfterSerializationAndPropagation) {
  sim::Simulator sim;
  SinkCapture sink;
  CellLink link(sim, kDs3Bps, sim::microseconds(100), sink);
  Cell c;
  c.vci = 42;
  link.send(c);
  sim.run();
  ASSERT_EQ(sink.cells.size(), 1u);
  // 424 bits at 45 Mb/s ≈ 9.42 us + 100 us propagation.
  EXPECT_NEAR(sim.now().us(), 424.0 / 45.0 + 100.0, 0.1);
}

TEST(CellLink, BackToBackCellsQueueAtLineRate) {
  sim::Simulator sim;
  SinkCapture sink;
  CellLink link(sim, kDs3Bps, sim::SimDuration{}, sink);
  for (int i = 0; i < 10; ++i) link.send(Cell{});
  sim.run();
  EXPECT_EQ(sink.cells.size(), 10u);
  EXPECT_NEAR(sim.now().us(), 10 * 424.0 / 45.0, 0.2);
  EXPECT_EQ(link.cells_sent(), 10u);
}

TEST(CellLink, LossInjectionDropsCells) {
  sim::Simulator sim;
  SinkCapture sink;
  util::Rng rng(3);
  CellLink link(sim, kOc12Bps, sim::SimDuration{}, sink);
  link.set_loss(0.5, &rng);
  for (int i = 0; i < 1000; ++i) link.send(Cell{});
  sim.run();
  EXPECT_GT(link.cells_dropped(), 350u);
  EXPECT_LT(link.cells_dropped(), 650u);
  EXPECT_EQ(sink.cells.size() + link.cells_dropped(), 1000u);
}

// --------------------------------------------------------------- AtmSwitch

TEST(AtmSwitch, RoutesAndRewritesVci) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  SinkCapture out;
  int p_in = sw.add_port();
  int p_out = sw.add_port();
  CellLink out_link(sim, kDs3Bps, sim::SimDuration{}, out);
  sw.set_output(p_out, out_link);
  ASSERT_TRUE(sw.install_route(p_in, 50, p_out, 60, Qos{}).ok());

  Cell c;
  c.vci = 50;
  sw.input(p_in).cell_arrival(c);
  sim.run();
  ASSERT_EQ(out.cells.size(), 1u);
  EXPECT_EQ(out.cells[0].vci, 60);
  EXPECT_EQ(sw.cells_switched(), 1u);
}

TEST(AtmSwitch, UnroutedCellsDropAndCount) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  int p_in = sw.add_port();
  Cell c;
  c.vci = 99;
  sw.input(p_in).cell_arrival(c);
  sim.run();
  EXPECT_EQ(sw.cells_unroutable(), 1u);
}

TEST(AtmSwitch, DuplicateRouteRejected) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  SinkCapture out;
  int p_in = sw.add_port();
  int p_out = sw.add_port();
  CellLink out_link(sim, kDs3Bps, sim::SimDuration{}, out);
  sw.set_output(p_out, out_link);
  ASSERT_TRUE(sw.install_route(p_in, 50, p_out, 60, Qos{}).ok());
  EXPECT_EQ(sw.install_route(p_in, 50, p_out, 61, Qos{}).error(),
            util::Errc::duplicate);
}

TEST(AtmSwitch, AdmissionControlEnforcesLinkCapacity) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  SinkCapture out;
  int p_in = sw.add_port();
  int p_out = sw.add_port();
  CellLink out_link(sim, kDs3Bps, sim::SimDuration{}, out);  // 45 Mb/s
  sw.set_output(p_out, out_link);

  Qos q30{ServiceClass::guaranteed, 30'000'000};
  Qos q20{ServiceClass::guaranteed, 20'000'000};
  EXPECT_TRUE(sw.install_route(p_in, 50, p_out, 60, q30).ok());
  EXPECT_EQ(sw.reserved_bps(p_out), 30'000'000u);
  EXPECT_EQ(sw.install_route(p_in, 51, p_out, 61, q20).error(),
            util::Errc::no_resources);
  // Best effort always fits.
  EXPECT_TRUE(sw.install_route(p_in, 52, p_out, 62, Qos{}).ok());
  // Removing the reservation frees capacity.
  EXPECT_TRUE(sw.remove_route(p_in, 50).ok());
  EXPECT_EQ(sw.reserved_bps(p_out), 0u);
  EXPECT_TRUE(sw.install_route(p_in, 51, p_out, 61, q20).ok());
  // route_table() lists routes in ascending (in_port, in_vci) order,
  // whatever order they were installed in.
  EXPECT_TRUE(sw.install_route(p_out, 10, p_in, 70, Qos{}).ok());
  const std::vector<AtmSwitch::RouteInfo> expect = {
      {p_in, 51, p_out, 61}, {p_in, 52, p_out, 62}, {p_out, 10, p_in, 70}};
  EXPECT_EQ(sw.route_table(), expect);
}

// A switch destroyed while cells still queue at its output port: the
// Simulator outlives it, so every event the switch armed must go with it.
// Covers the per-cell path (pending fabric and drain events) and the
// closed-form run (the output link pulls from the port).
TEST(AtmSwitch, DestroyedMidTrainLeavesNoEventBehind) {
  for (const bool per_cell : {true, false}) {
    force_per_cell(per_cell);
    sim::Simulator sim;
    struct Count final : CellSink {
      int n = 0;
      void cell_arrival(const Cell&) override { ++n; }
    } sink;
    auto sw = std::make_unique<AtmSwitch>(sim, "doomed");
    const int p_in = sw->add_port();
    const int p_out = sw->add_port();
    CellLink in(sim, kOc12Bps, sim::microseconds(5), sw->input(p_in));
    CellLink out(sim, kDs3Bps, sim::microseconds(5), sink);
    sw->set_output(p_out, out);
    ASSERT_TRUE(sw->install_route(p_in, 100, p_out, 200, Qos{}).ok());
    Cell c;
    c.vci = 100;
    for (int i = 0; i < 20; ++i) in.send(c);
    // Every cell has reached the switch; the DS3 output needs ~190 us.
    sim.run_until(sim::SimTime{} + sim::microseconds(40));
    ASSERT_GT(sw->queue_depth(p_out), 0u);
    sw.reset();
    sim.run();
    EXPECT_GT(sink.n, 0);
    EXPECT_LT(sink.n, 20);
    EXPECT_EQ(sim.pending(), 0u);
  }
  force_per_cell(false);
}

TEST(AtmSwitch, PolicedRouteDropsNonConformingCells) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  SinkCapture out;
  int p_in = sw.add_port();
  int p_out = sw.add_port();
  CellLink out_link(sim, kDs3Bps, sim::SimDuration{}, out);
  sw.set_output(p_out, out_link);
  Qos policed;
  policed.pcr_bps = 1'000'000;  // one cell per 424 us
  ASSERT_TRUE(sw.install_route(p_in, 50, p_out, 60, policed).ok());
  ASSERT_TRUE(sw.install_route(p_in, 51, p_out, 61, Qos{}).ok());

  // Ten back-to-back cells on each VC: the policed one passes only its
  // first, the unpoliced one passes all.
  for (int i = 0; i < 10; ++i) {
    Cell c;
    c.vci = 50;
    sw.input(p_in).cell_arrival(c);
    c.vci = 51;
    sw.input(p_in).cell_arrival(c);
  }
  sim.run();
  EXPECT_EQ(sw.cells_discarded(p_in, DiscardCause::policed), 9u);
  const auto on = [&](Vci vci) {
    return std::count_if(out.cells.begin(), out.cells.end(),
                         [vci](const Cell& c) { return c.vci == vci; });
  };
  EXPECT_EQ(on(60), 1);
  EXPECT_EQ(on(61), 10);

  // A conforming cell one cell time later passes again.
  sim.run_for(sim::microseconds(424));
  Cell c;
  c.vci = 50;
  sw.input(p_in).cell_arrival(c);
  sim.run();
  EXPECT_EQ(on(60), 2);
  EXPECT_EQ(sw.cells_discarded(p_in, DiscardCause::policed), 9u);
}

TEST(AtmSwitch, RemoveUnknownRouteFails) {
  sim::Simulator sim;
  AtmSwitch sw(sim, "s");
  sw.add_port();
  EXPECT_EQ(sw.remove_route(0, 1).error(), util::Errc::not_found);
}

// -------------------------------------------------------------- AtmNetwork

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  atm::AtmNetwork net{sim};
  SinkCapture ep_a, ep_b;
  CellLink* up_a = nullptr;
  CellLink* up_b = nullptr;

  void SetUp() override {
    auto& s1 = net.make_switch("s1");
    auto& s2 = net.make_switch("s2");
    net.connect_switches(s1, s2, kDs3Bps, sim::microseconds(500));
    auto a = net.attach_endpoint(AtmAddress{"a"}, ep_a, s1, kDs3Bps,
                                 sim::microseconds(100));
    auto b = net.attach_endpoint(AtmAddress{"b"}, ep_b, s2, kDs3Bps,
                                 sim::microseconds(100));
    ASSERT_TRUE(a.ok() && b.ok());
    up_a = *a;
    up_b = *b;
  }
};

TEST_F(NetFixture, SetupVcEndToEndAndDataFlows) {
  std::optional<util::Result<VcHandle>> result;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle> r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value() && result->ok());
  VcHandle h = result->value();
  EXPECT_EQ(h.hop_count, 3);  // a-s1, s1-s2, s2-b: the 3-hop path of §9

  Cell c;
  c.vci = h.src_vci;
  up_a->send(c);
  sim.run();
  ASSERT_EQ(ep_b.cells.size(), 1u);
  EXPECT_EQ(ep_b.cells[0].vci, h.dst_vci);
  EXPECT_EQ(net.active_vc_count(), 1u);
}

TEST_F(NetFixture, SetupLatencyModelsSwitchesAndPropagation) {
  sim::SimTime start = sim.now();
  std::optional<sim::SimTime> done;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle>) { done = sim.now(); });
  sim.run();
  ASSERT_TRUE(done.has_value());
  // 2 switches × 2 ms + 2 × (100+500+100) us propagation = 5.4 ms.
  EXPECT_NEAR((*done - start).ms(), 5.4, 0.01);
}

TEST_F(NetFixture, TeardownReleasesEverything) {
  std::optional<VcHandle> h;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle> r) { h = *r; });
  sim.run();
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(net.teardown(h->id).ok());
  EXPECT_EQ(net.active_vc_count(), 0u);
  EXPECT_EQ(net.teardown(h->id).error(), util::Errc::not_found);

  // Data on the dead VC goes nowhere.
  Cell c;
  c.vci = h->src_vci;
  up_a->send(c);
  sim.run();
  EXPECT_TRUE(ep_b.cells.empty());
}

TEST_F(NetFixture, AdmissionDenialRollsBackPartialState) {
  Qos q{ServiceClass::guaranteed, 40'000'000};
  std::optional<util::Result<VcHandle>> r1, r2;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, q,
               [&](util::Result<VcHandle> r) { r1 = r; });
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, q,
               [&](util::Result<VcHandle> r) { r2 = r; });
  sim.run();
  ASSERT_TRUE(r1 && r1->ok());
  ASSERT_TRUE(r2 && !r2->ok());
  EXPECT_EQ(r2->error(), util::Errc::no_resources);
  EXPECT_EQ(net.active_vc_count(), 1u);
  // Tear down the first; the same request now fits (no leaked reservation).
  ASSERT_TRUE(net.teardown(r1->value().id).ok());
  std::optional<util::Result<VcHandle>> r3;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, q,
               [&](util::Result<VcHandle> r) { r3 = r; });
  sim.run();
  ASSERT_TRUE(r3 && r3->ok());
}

TEST_F(NetFixture, DenialAtALaterSwitchRemovesOnlyTheRoutesInstalled) {
  // s2 has no bandwidth left, so a reserved VC is admitted at s1 and then
  // refused at s2: the rollback takes s1's route and reservation back, and
  // an established VC keeps its routes.
  AtmSwitch& s1 = *net.switch_by_name("s1");
  AtmSwitch& s2 = *net.switch_by_name("s2");
  std::optional<util::Result<VcHandle>> kept, denied;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle> r) { kept = r; });
  sim.run();
  ASSERT_TRUE(kept && kept->ok());
  const auto routes = net.audit_routes();
  ASSERT_EQ(routes.size(), 2u);
  for (int p = 0; p < s2.port_count(); ++p) s2.debug_overreserve(p, kDs3Bps);
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"},
               Qos{ServiceClass::guaranteed, 10'000'000},
               [&](util::Result<VcHandle> r) { denied = r; });
  sim.run();
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(denied->error(), util::Errc::no_resources);
  EXPECT_EQ(s1.route_count(), 1u);
  EXPECT_EQ(s2.route_count(), 1u);
  for (int p = 0; p < s1.port_count(); ++p) EXPECT_EQ(s1.reserved_bps(p), 0u);
  EXPECT_EQ(net.active_vc_count(), 1u);
  EXPECT_EQ(net.audit_routes(), routes);
}

TEST_F(NetFixture, UnknownEndpointsFail) {
  std::optional<util::Result<VcHandle>> r;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"ghost"}, Qos{},
               [&](util::Result<VcHandle> rr) { r = rr; });
  sim.run();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->error(), util::Errc::no_route);
  EXPECT_EQ(net.setups_denied(), 1u);
}

TEST_F(NetFixture, PvcUsesRequestedVciOnBothEnds) {
  auto h = net.setup_pvc(AtmAddress{"a"}, AtmAddress{"b"}, 5, Qos{});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->src_vci, 5);
  EXPECT_EQ(h->dst_vci, 5);
  // The VCI is now taken on those links: a second identical PVC fails.
  EXPECT_EQ(net.setup_pvc(AtmAddress{"a"}, AtmAddress{"b"}, 5, Qos{}).error(),
            util::Errc::duplicate);
  // Cells flow over it.
  Cell c;
  c.vci = 5;
  up_a->send(c);
  sim.run();
  ASSERT_EQ(ep_b.cells.size(), 1u);
}

TEST_F(NetFixture, SwitchedVcisAvoidPvcRange) {
  (void)net.setup_pvc(AtmAddress{"a"}, AtmAddress{"b"}, 1, Qos{});
  std::optional<VcHandle> h;
  net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
               [&](util::Result<VcHandle> r) { h = *r; });
  sim.run();
  ASSERT_TRUE(h.has_value());
  EXPECT_GE(h->src_vci, kFirstSwitchedVci);
}

TEST_F(NetFixture, ManyVcsGetDistinctVcis) {
  std::vector<VcHandle> handles;
  for (int i = 0; i < 50; ++i) {
    net.setup_vc(AtmAddress{"a"}, AtmAddress{"b"}, Qos{},
                 [&](util::Result<VcHandle> r) {
                   ASSERT_TRUE(r.ok());
                   handles.push_back(*r);
                 });
  }
  sim.run();
  ASSERT_EQ(handles.size(), 50u);
  std::set<Vci> src;
  for (const auto& h : handles) src.insert(h.src_vci);
  EXPECT_EQ(src.size(), 50u);
}

}  // namespace
}  // namespace xunet::atm
