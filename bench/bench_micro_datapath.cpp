// bench_micro_datapath — wall-clock cost of the datapath layers pathbench's
// replay does not time (it covers CRC-32, AAL5, IP and signaling messages)
// and the cell-transport run; writes BENCH_datapath.json and exits non-zero
// when a round trip comes back wrong or the cell run loses cells.
#include <chrono>
#include <cstdio>

#include "atm/link.hpp"
#include "atm/switch.hpp"
#include "bench_json.hpp"
#include "sim/simulator.hpp"
#include "tcpsim/segment.hpp"
#include "util/alloc_hook.hpp"

namespace {

using namespace xunet;

/// Mean wall ns per call of `op` over `n` calls, after n/10 warm-up calls.
template <class Op>
double ns_per_call(int n, Op&& op) {
  for (int i = 0; i < n / 10; ++i) op();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) op();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0).count() / n;
}

/// Times a TCP segment round trip and sim dispatch; false if one goes wrong.
bool time_layers(bench::JsonReport& rep) {
  const int scale = bench::bench_short() ? 5 : 50;
  constexpr std::size_t kTcpPayload = 1400;
  tcp::Segment s;
  s.seq = 12345;
  s.flags.ack = true;
  s.payload.assign(kTcpPayload, 0x5a);
  bool intact = true;
  const double tcp_ns = ns_per_call(20'000 * scale, [&] {
    auto back = tcp::parse_segment(tcp::serialize(s));
    intact = intact && back.ok() && back->payload.size() == kTcpPayload;
  });

  constexpr int kEvents = 1000;
  const int runs = 200 * scale;
  int fired = 0;
  const double run_ns = ns_per_call(runs, [&fired] {
    sim::Simulator sim;
    for (int i = 0; i < kEvents; ++i)
      sim.schedule(sim::microseconds(i), [&fired] { ++fired; });
    sim.run();
  });

  std::printf("== layer costs (wall clock) ==\n"
              "tcp segment round trip (%zu B): %.0f ns\n"
              "simulator dispatch: %.1f ns/event (%d events per run)\n",
              kTcpPayload, tcp_ns, run_ns / kEvents, kEvents);
  rep.metric("tcp_segment_round_trip_ns", tcp_ns);
  rep.metric("sim_dispatch_ns_per_event", run_ns / kEvents);
  const bool ok = intact && fired == (runs + runs / 10) * kEvents;
  if (!ok) std::fprintf(stderr, "layer costs: a result came back wrong\n");
  return ok;
}

// ---- cell transport -------------------------------------------------------
//
// One OC-12 link → switch → OC-12 link path at exact cell instants: each
// link hands its sink a whole run of cells per event, and the switch port
// serves the single VC in closed form.  Measures real cells/sec of the
// reproduction itself against the recorded pre-fast-path baseline, plus the
// fast path's structural claims: cells per train (events per cell hop),
// bounded event-queue depth and an allocation-free steady-state cell path.

/// Wall-clock cells/sec of the pre-fast-path implementation on this exact
/// workload (per-cell events, std::function heap queue, per-cell delivery),
/// recorded when the fast path landed.  The acceptance bar is >= 5x this.
constexpr double kBaselineCellsPerSec = 1'968'173.0;

/// Counts cells; takes each train whole, as an endpoint board does.
struct CountingSink final : atm::CellSink {
  std::uint64_t n = 0;
  void cell_arrival(const atm::Cell&) override { ++n; }
  atm::TrainTake train_arrival(const atm::CellTrain& t) override {
    n += t.size();
    return {t.size(), atm::kNever};
  }
};

/// Runs the cell transport; false on a failed route install or lost cells.
bool run_cell_transport(bench::JsonReport& rep) {
  const int frames = bench::bench_short() ? 500 : 5000;
  const int cells_per_frame = 100;

  sim::Simulator sim;
  atm::AtmSwitch sw(sim, "bench", sim::microseconds(10), 1u << 20);
  const int p_in = sw.add_port();
  const int p_out = sw.add_port();
  CountingSink sink;
  atm::CellLink in(sim, atm::kOc12Bps, sim::microseconds(5), sw.input(p_in));
  atm::CellLink out(sim, atm::kOc12Bps, sim::microseconds(5), sink);
  sw.set_output(p_out, out);
  if (!sw.install_route(p_in, 100, p_out, 200, atm::Qos{}).ok()) {
    std::fprintf(stderr, "cell transport: route install failed\n");
    return false;
  }

  atm::Cell cell;
  cell.vci = 100;
  auto batch = [&](int nframes) {
    for (int f = 0; f < nframes; ++f) {
      sim.schedule(sim::microseconds(100 * static_cast<std::int64_t>(f)),
                   [&] {
                     for (int i = 0; i < cells_per_frame; ++i) in.send(cell);
                   });
    }
    sim.run();
  };

  // Warmup batch grows every ring/table to steady-state size; the measured
  // batch should then run allocation-free.
  batch(frames);
  const std::uint64_t delivered_warm = sink.n;
  const std::uint64_t trains_warm = in.trains() + out.trains();
  const std::uint64_t allocs_before = util::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  batch(frames);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = util::alloc_count() - allocs_before;

  const std::uint64_t total =
      static_cast<std::uint64_t>(frames) * cells_per_frame;
  const std::uint64_t delivered = sink.n - delivered_warm;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double cps = static_cast<double>(delivered) / secs;
  // Two hops per cell: the cells both links handed over, per train.
  const double per_train = 2.0 * static_cast<double>(total) /
      static_cast<double>(in.trains() + out.trains() - trains_warm);
  const double allocs_per_cell =
      static_cast<double>(allocs) / static_cast<double>(total);

  std::printf("\n== cell transport (wall clock) ==\n"
              "cells=%llu delivered=%llu wall=%.3fs cells/sec=%.0f "
              "(baseline %.0f, %.1fx) cells/train=%.1f peak_events=%zu allocs/cell=%.4f%s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(delivered), secs,
              cps, kBaselineCellsPerSec, cps / kBaselineCellsPerSec, per_train,
              sim.peak_pending(), allocs_per_cell,
              util::alloc_hook_installed() ? "" : " (alloc hook absent)");
  const bool lossless = delivered >= total;
  if (!lossless) std::fprintf(stderr, "cell transport: cells lost\n");
  rep.metric("baseline_cells_per_sec", kBaselineCellsPerSec);
  rep.metric("cells_per_sec_wall", cps);
  rep.metric("speedup", cps / kBaselineCellsPerSec);
  rep.metric("cells", static_cast<double>(total));
  rep.metric("wall_seconds", secs);
  rep.metric("cells_per_train", per_train);
  rep.metric("peak_event_queue_depth", static_cast<double>(sim.peak_pending()));
  rep.metric("allocs_per_cell", allocs_per_cell);
  rep.metric("alloc_hook_installed", util::alloc_hook_installed() ? 1 : 0);
  rep.info("workload", std::to_string(frames) + " frames x " +
                           std::to_string(cells_per_frame) +
                           " cells, OC-12, exact cell instants");
  rep.info("baseline", "pre-fast-path implementation, same workload");
  return lossless;
}

}  // namespace

int main() {
  bench::JsonReport rep("datapath");
  if (!time_layers(rep) || !run_cell_transport(rep)) return 1;
  rep.info("short_mode", bench::bench_short() ? "1" : "0");
  rep.write();
  return 0;
}
