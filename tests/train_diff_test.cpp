// train_diff_test.cpp — exact cell trains against the per-cell path.
//
// Random traffic runs twice through the same two-switch network: once with
// the fast path (links hand over whole runs, ports serve single-VC runs in
// closed form, the Hobbit board takes a frame per event) and once with
// atm::force_per_cell, one event per cell per stage.  The per-cell delivery
// log (instant, switch, port, vci) at every endpoint, every counter read at
// random instants and at the end, the registry dump and the frames the
// board reassembles must match byte for byte.  The traffic mixes several
// VCs per port, GCRA-policed routes, EPD/PPD and push-out overload, RM
// cells, routes removed and re-installed mid-run, link outages, loss and
// corruption, VC release at the board, and tracing switched on mid-run.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atm/aal5.hpp"
#include "atm/link.hpp"
#include "atm/switch.hpp"
#include "kern/hobbit.hpp"
#include "obs/export.hpp"
#include "util/rng.hpp"

namespace xunet {
namespace {

/// An endpoint that logs every cell at its arrival instant.
struct LogSink final : atm::CellSink {
  explicit LogSink(std::string id) : id(std::move(id)) {}
  std::string id;
  std::string log;
  sim::Simulator* sim = nullptr;
  void note(sim::SimTime at, const atm::Cell& c) {
    log += std::to_string(at.ns()) + ' ' + id + ' ' + std::to_string(c.vci) +
           (c.rm ? "R" : "") + (c.end_of_frame ? "E;" : ";");
  }
  void cell_arrival(const atm::Cell& c) override { note(sim->now(), c); }
};

struct RouteSpec {
  atm::AtmSwitch* sw;
  int in_port;
  atm::Vci in_vci;
  int out_port;
  atm::Vci out_vci;
  atm::Qos qos;
};

/// One seeded scenario, built and run in either mode.
class Scenario {
 public:
  explicit Scenario(std::uint64_t seed) : seed_(seed) {}

  std::string run(bool per_cell) {
    atm::force_per_cell(per_cell);
    std::string out = run_once();
    atm::force_per_cell(false);
    return out;
  }

  std::string counts;  ///< fast-path engagement, for failure messages
  std::uint64_t run_cells = 0;
  std::array<std::uint64_t, atm::kMaterialiseCount> materialised{};
  std::uint64_t fault_materialised = 0;

 private:
  std::string run_once() {
    util::Rng r(seed_);
    sim::Simulator sim;
    std::string t;

    // Every other seed is a lockstep run: one rate and one propagation on
    // every link and sends on a 10 us grid, so cells of different VCs tie
    // at the same nanosecond all the time and event order decides.
    const bool lockstep = seed_ % 2 == 0;
    const std::uint64_t rates[] = {atm::kDs3Bps, atm::kOc12Bps, 2'000'000};
    const std::int64_t props_us[] = {0, 5, 500};
    const std::uint64_t one_rate = rates[r.below(3)];
    const std::int64_t one_prop = props_us[r.below(3)];
    auto rate = [&] { return lockstep ? one_rate : rates[r.below(3)]; };
    auto prop = [&] {
      return sim::microseconds(lockstep ? one_prop : props_us[r.below(3)]);
    };
    const std::size_t bufs[] = {48, 96, 2048};
    const atm::DiscardPolicy pols[] = {atm::DiscardPolicy::pushout,
                                       atm::DiscardPolicy::tail_drop,
                                       atm::DiscardPolicy::epd_ppd};

    atm::AtmSwitch s0(sim, "s0", sim::microseconds(10), bufs[r.below(3)]);
    atm::AtmSwitch s1(sim, "s1", sim::microseconds(10), bufs[r.below(3)]);
    s0.set_discard_policy(pols[r.below(3)]);
    s1.set_discard_policy(pols[r.below(3)]);

    LogSink local("s0.local");
    LogSink far("s1.far");
    local.sim = &sim;
    far.sim = &sim;
    kern::HobbitInterface board(atm::AtmAddress{"board"}, 128);
    board.set_frame_handler([&](atm::Vci vci, kern::MbufChain chain) {
      t += "F" + std::to_string(sim.now().ns()) + ' ' + std::to_string(vci) + ' ' +
           std::to_string(chain.bytes().size()) + ';';
    });

    // Three sources into s0, a trunk to s1, and three endpoints.
    constexpr int kSources = 3;
    std::vector<std::unique_ptr<atm::CellLink>> links;
    std::vector<int> src_port;
    for (int i = 0; i < kSources; ++i) {
      src_port.push_back(s0.add_port());
      links.push_back(std::make_unique<atm::CellLink>(sim, rate(), prop(),
                                                      s0.input(src_port.back())));
    }
    const int s0_trunk = s0.add_port();
    const int s1_trunk = s1.add_port();
    links.push_back(std::make_unique<atm::CellLink>(sim, rate(), prop(), s1.input(s1_trunk)));
    atm::CellLink& trunk = *links.back();
    s0.set_output(s0_trunk, trunk);
    const int s0_local = s0.add_port();
    links.push_back(std::make_unique<atm::CellLink>(sim, rate(), prop(), local));
    s0.set_output(s0_local, *links.back());
    const int s1_far = s1.add_port();
    links.push_back(std::make_unique<atm::CellLink>(sim, rate(), prop(), far));
    s1.set_output(s1_far, *links.back());
    const int s1_board = s1.add_port();
    links.push_back(std::make_unique<atm::CellLink>(sim, rate(), prop(), board));
    atm::CellLink& board_link = *links.back();
    s1.set_output(s1_board, board_link);

    // Two or three VCs per source, each to one endpoint.
    std::vector<RouteSpec> routes;
    std::vector<std::pair<int, atm::Vci>> vcs;  // (source, vci)
    atm::Vci trunk_vci = 200;
    for (int i = 0; i < kSources; ++i) {
      const int n = 2 + static_cast<int>(r.below(2));
      for (int k = 0; k < n; ++k) {
        const atm::Vci vci = static_cast<atm::Vci>(100 + 10 * i + k);
        atm::Qos q;
        switch (r.below(4)) {
          case 0: break;
          case 1:
            q.service_class = atm::ServiceClass::predicted;
            q.bandwidth_bps = 200'000;
            break;
          case 2:
            q.service_class = atm::ServiceClass::guaranteed;
            q.bandwidth_bps = 300'000;
            q.pcr_bps = 1'000'000 + r.below(20'000'000);
            break;
          default: q.service_class = atm::ServiceClass::abr; break;
        }
        vcs.emplace_back(i, vci);
        const auto dest = r.below(3);
        if (dest == 0) {
          routes.push_back({&s0, src_port[static_cast<std::size_t>(i)], vci, s0_local, vci, q});
          continue;
        }
        const atm::Vci tv = trunk_vci++;
        routes.push_back({&s0, src_port[static_cast<std::size_t>(i)], vci, s0_trunk, tv, q});
        routes.push_back({&s1, s1_trunk, tv, dest == 1 ? s1_far : s1_board,
                          static_cast<atm::Vci>(tv + 100), atm::Qos{}});
      }
    }
    for (const RouteSpec& rs : routes) {
      EXPECT_TRUE(rs.sw->install_route(rs.in_port, rs.in_vci, rs.out_port, rs.out_vci, rs.qos).ok());
    }

    auto snapshot = [&](const char* tag) {
      t += tag;
      t += std::to_string(sim.now().ns()) + '{';
      for (atm::AtmSwitch* sw : {&s0, &s1}) {
        t += std::to_string(sw->cells_switched()) + ',' + std::to_string(sw->cells_unroutable());
        for (int p = 0; p < sw->port_count(); ++p) {
          t += '/' + std::to_string(sw->queue_depth(p));
          for (std::size_t c = 0; c < atm::kServiceClassCount; ++c) {
            t += ',' + std::to_string(sw->cells_dropped(p, static_cast<atm::ServiceClass>(c)));
          }
          for (std::size_t c = 0; c < atm::kDiscardCauseCount; ++c) {
            t += ',' + std::to_string(sw->cells_discarded(p, static_cast<atm::DiscardCause>(c)));
          }
        }
        t += '|';
      }
      for (const auto& l : links) {
        t += std::to_string(l->cells_sent()) + ',' + std::to_string(l->cells_dropped()) + ',' +
             std::to_string(l->cells_corrupted()) + ';';
      }
      t += std::to_string(board.frames_received()) + ',' + std::to_string(board.aal5_errors());
      t += "}\n";
    };

    // Traffic: AAL5 frames of 1..60 cells on random VCs at random instants,
    // each frame sent back to back as a board does; some RM cells.
    atm::Aal5Segmenter seg;
    std::vector<std::vector<atm::Cell>> frames;
    const std::int64_t horizon_ns = 30'000'000;
    const int nframes = 40 + static_cast<int>(r.below(40));
    frames.reserve(static_cast<std::size_t>(nframes));
    for (int f = 0; f < nframes; ++f) {
      const auto& [src, vci] = vcs[r.below(vcs.size())];
      util::Buffer payload(1 + r.below(60 * 48 - 8));
      for (auto& b : payload) b = static_cast<std::uint8_t>(r.next());
      auto cells = seg.segment(vci, payload);
      EXPECT_TRUE(cells.ok());
      if (r.below(6) == 0) {
        atm::Cell rm;
        rm.vci = vci;
        rm.rm = true;
        cells->insert(cells->begin() + static_cast<std::ptrdiff_t>(r.below(cells->size())), rm);
      }
      frames.push_back(std::move(*cells));
      atm::CellLink* in = links[static_cast<std::size_t>(src)].get();
      const std::vector<atm::Cell>* fr = &frames.back();
      std::int64_t when = static_cast<std::int64_t>(r.below(horizon_ns));
      if (lockstep) when -= when % 10'000;
      sim.schedule(sim::nanoseconds(when), [in, fr] {
        for (const atm::Cell& c : *fr) in->send(c);
      });
    }

    // Perturbations at random instants.
    util::Rng fault_rng(seed_ ^ 0x5eed);
    auto at = [&] { return sim::nanoseconds(static_cast<std::int64_t>(r.below(horizon_ns))); };
    for (int k = 0; k < 3; ++k) {
      const RouteSpec rs = routes[r.below(routes.size())];
      const sim::SimDuration off = at();
      sim.schedule(off, [rs] { (void)rs.sw->remove_route(rs.in_port, rs.in_vci); });
      sim.schedule(off + sim::microseconds(static_cast<std::int64_t>(r.below(3000))), [rs] {
        (void)rs.sw->install_route(rs.in_port, rs.in_vci, rs.out_port, rs.out_vci, rs.qos);
      });
    }
    {
      const sim::SimDuration off = at();
      sim.schedule(off, [&trunk] { trunk.set_down(true); });
      sim.schedule(off + sim::microseconds(static_cast<std::int64_t>(r.below(2000))),
                   [&trunk] { trunk.set_down(false); });
    }
    {
      const sim::SimDuration off = at();
      sim.schedule(off, [&trunk, &fault_rng] { trunk.set_loss(0.05, &fault_rng); });
      sim.schedule(off + sim::microseconds(static_cast<std::int64_t>(r.below(4000))),
                   [&trunk, &fault_rng] { trunk.set_loss(0.0, &fault_rng); });
    }
    {
      const sim::SimDuration off = at();
      sim.schedule(off, [&board_link, &fault_rng] { board_link.set_corrupt(0.05, &fault_rng); });
      sim.schedule(off + sim::microseconds(static_cast<std::int64_t>(r.below(4000))),
                   [&board_link, &fault_rng] { board_link.set_corrupt(0.0, &fault_rng); });
    }
    sim.schedule(at(), [&board] { board.release_vc(300); });
    const bool traced = r.below(4) == 0;
    if (traced) sim.schedule(at(), [&sim] { sim.obs().set_tracing(true); });
    for (int k = 0; k < 12; ++k) sim.schedule(at(), [&snapshot] { snapshot("read@"); });

    // Reads between events too, where everything due has run.
    for (int k = 1; k <= 4; ++k) {
      sim.run_until(sim::SimTime{} + sim::nanoseconds(horizon_ns * k / 4 +
                                                      static_cast<std::int64_t>(r.below(9'000))));
      snapshot("gap@");
    }
    sim.run();
    snapshot("end@");
    t += local.log + '\n' + far.log + '\n';
    t += sim.obs().metrics().render_text();
    if (traced) t += obs::to_jsonl(sim.obs().trace(), sim.obs().metrics());

    counts.clear();
    run_cells = 0;
    materialised = {};
    fault_materialised = 0;
    for (atm::AtmSwitch* sw : {&s0, &s1}) {
      run_cells += sw->cells_in_runs();
      counts += sw->name() + " runs=" + std::to_string(sw->cells_in_runs()) + " materialised:";
      for (std::size_t c = 0; c < atm::kMaterialiseCount; ++c) {
        const auto n = sw->materialisations(static_cast<atm::Materialise>(c));
        materialised[c] += n;
        counts += ' ' + std::to_string(n);
      }
      counts += '\n';
    }
    for (const auto& l : links) {
      counts += "link trains=" + std::to_string(l->trains()) + " faults:";
      for (std::size_t f = 0; f < atm::kLinkFaultCount; ++f) {
        const auto n = l->materialisations(static_cast<atm::LinkFault>(f));
        fault_materialised += n;
        counts += ' ' + std::to_string(n);
      }
      counts += '\n';
    }
    return t;
  }

  std::uint64_t seed_;
};

std::string first_difference(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const std::size_t from = i > 160 ? i - 160 : 0;
  return "at byte " + std::to_string(i) + "\nper-cell: ..." + a.substr(from, 320) +
         "\nfast:     ..." + b.substr(from, 320);
}

constexpr std::uint64_t kSeeds = 200;

TEST(ExactTrains, FastPathMatchesPerCellPathOnRandomTraffic) {
  std::uint64_t run_cells = 0;
  std::uint64_t fault_materialised = 0;
  std::array<std::uint64_t, atm::kMaterialiseCount> materialised{};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Scenario sc(seed);
    const std::string per_cell = sc.run(true);
    const std::string fast = sc.run(false);
    ASSERT_TRUE(per_cell == fast)
        << "seed " << seed << ": " << first_difference(per_cell, fast)
        << "\nfast-path counts:\n" << sc.counts;
    run_cells += sc.run_cells;
    fault_materialised += sc.fault_materialised;
    for (std::size_t c = 0; c < atm::kMaterialiseCount; ++c) materialised[c] += sc.materialised[c];
  }
  // The comparison means something only if the fast path ran and every
  // kind of materialisation happened.
  EXPECT_GT(run_cells, 100'000u);
  EXPECT_GT(fault_materialised, 0u);
  for (std::size_t c = 0; c < atm::kMaterialiseCount; ++c) {
    EXPECT_GT(materialised[c], 0u)
        << "no materialisation for cause " << c;
  }
  std::printf("run cells %llu, materialised other_cell %llu route %llu link_fault %llu "
              "tracing %llu depth %llu\n",
              static_cast<unsigned long long>(run_cells),
              static_cast<unsigned long long>(materialised[0]),
              static_cast<unsigned long long>(materialised[1]),
              static_cast<unsigned long long>(materialised[2]),
              static_cast<unsigned long long>(materialised[3]),
              static_cast<unsigned long long>(materialised[4]));
}

}  // namespace
}  // namespace xunet
