// bench_micro_datapath — google-benchmark micro-benchmarks of this library's
// hot paths: AAL5 segmentation/reassembly, CRC-32, the encapsulation header,
// signaling message (de)serialization, and event-loop dispatch.  These are
// wall-clock benchmarks of the reproduction itself (not simulated time);
// they guard against performance regressions in the substrate.
//
// Work totals accumulate in an obs::MetricsRegistry and are dumped after the
// google-benchmark report, so bench output shares one naming scheme
// (bench.micro.<name>.*) with the simulation's own metrics.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "atm/aal5.hpp"
#include "atm/link.hpp"
#include "atm/switch.hpp"
#include "bench_json.hpp"
#include "ip/packet.hpp"
#include "obs/metrics.hpp"
#include "signaling/messages.hpp"
#include "sim/simulator.hpp"
#include "tcpsim/segment.hpp"
#include "util/alloc_hook.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace xunet;

obs::MetricsRegistry& registry() {
  static obs::MetricsRegistry mx;
  return mx;
}

// Record one benchmark's totals: iterations as a counter, per-size bytes
// processed as a histogram sample (so the dump shows the size sweep).
void record(const char* name, const benchmark::State& state,
            std::int64_t bytes_per_iter = 0) {
  std::string base = std::string("bench.micro.") + name;
  registry().counter(base + ".iterations").inc(
      static_cast<std::uint64_t>(state.iterations()));
  if (bytes_per_iter > 0) {
    registry().histogram(base + ".bytes_per_iter").observe(
        static_cast<double>(bytes_per_iter));
  }
}

util::Buffer random_payload(std::size_t n) {
  util::Rng rng(n);
  util::Buffer b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

void BM_Crc32(benchmark::State& state) {
  auto data = random_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  record("crc32", state, state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Aal5Segment(benchmark::State& state) {
  atm::Aal5Segmenter seg;
  auto data = random_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto cells = seg.segment(42, data);
    benchmark::DoNotOptimize(cells);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  record("aal5_segment", state, state.range(0));
}
BENCHMARK(BM_Aal5Segment)->Arg(48)->Arg(1024)->Arg(9180)->Arg(65535);

void BM_Aal5RoundTrip(benchmark::State& state) {
  atm::Aal5Segmenter seg;
  std::size_t delivered = 0;
  atm::Aal5Reassembler reasm([&](atm::Aal5Frame f) { delivered += f.payload.size(); });
  auto data = random_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto cells = seg.segment(42, data);
    for (const atm::Cell& c : *cells) reasm.cell_arrival(c);
  }
  benchmark::DoNotOptimize(delivered);
  state.SetBytesProcessed(state.iterations() * state.range(0));
  record("aal5_round_trip", state, state.range(0));
}
BENCHMARK(BM_Aal5RoundTrip)->Arg(1024)->Arg(9180);

void BM_IpSerializeParse(benchmark::State& state) {
  ip::IpPacket p;
  p.src = ip::make_ip(1, 2, 3, 4);
  p.dst = ip::make_ip(5, 6, 7, 8);
  p.payload = random_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto wire = ip::serialize(p);
    auto back = ip::parse_ip_packet(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  record("ip_serialize_parse", state, state.range(0));
}
BENCHMARK(BM_IpSerializeParse)->Arg(256)->Arg(4096);

void BM_SignalingMsgRoundTrip(benchmark::State& state) {
  sig::Msg m;
  m.type = sig::MsgType::connect_req;
  m.service = "file-service";
  m.qos = "class=guaranteed,bw=1500000";
  m.dst = "mh.rt";
  for (auto _ : state) {
    auto wire = sig::serialize(m);
    auto back = sig::parse_msg(wire);
    benchmark::DoNotOptimize(back);
  }
  record("signaling_msg_round_trip", state);
}
BENCHMARK(BM_SignalingMsgRoundTrip);

void BM_TcpSegmentRoundTrip(benchmark::State& state) {
  tcp::Segment s;
  s.seq = 12345;
  s.flags.ack = true;
  s.payload = random_payload(1400);
  for (auto _ : state) {
    auto wire = tcp::serialize(s);
    auto back = tcp::parse_segment(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * 1400);
  record("tcp_segment_round_trip", state, 1400);
}
BENCHMARK(BM_TcpSegmentRoundTrip);

void BM_SimulatorDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(sim::microseconds(i), [&sum, i] { sum += std::uint64_t(i); });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  record("simulator_dispatch", state);
}
BENCHMARK(BM_SimulatorDispatch);

// ---- cell-transport wall-clock benchmark → BENCH_datapath.json -------------
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

void run_cell_transport_report() {
  const int frames = xunet::bench::bench_short() ? 500 : 5000;
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
    return;
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
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double cps = static_cast<double>(total) / secs;
  // Two hops per cell: the cells both links handed over, per train.
  const double per_train = 2.0 * static_cast<double>(total) /
      static_cast<double>(in.trains() + out.trains() - trains_warm);

  std::printf("\n== cell transport (wall clock) ==\n"
              "cells=%llu delivered=%llu wall=%.3fs cells/sec=%.0f "
              "(baseline %.0f, %.1fx) cells/train=%.1f peak_events=%zu allocs/cell=%.4f%s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(sink.n - delivered_warm), secs,
              cps, kBaselineCellsPerSec, cps / kBaselineCellsPerSec, per_train,
              sim.peak_pending(),
              static_cast<double>(allocs) / static_cast<double>(total),
              util::alloc_hook_installed() ? "" : " (alloc hook absent)");

  xunet::bench::JsonReport rep("datapath");
  rep.metric("baseline_cells_per_sec", kBaselineCellsPerSec);
  rep.metric("cells_per_sec_wall", cps);
  rep.metric("speedup", cps / kBaselineCellsPerSec);
  rep.metric("cells", static_cast<double>(total));
  rep.metric("wall_seconds", secs);
  rep.metric("cells_per_train", per_train);
  rep.metric("peak_event_queue_depth", static_cast<double>(sim.peak_pending()));
  rep.metric("allocs_per_cell",
             static_cast<double>(allocs) / static_cast<double>(total));
  rep.metric("alloc_hook_installed", util::alloc_hook_installed() ? 1 : 0);
  rep.info("workload", std::to_string(frames) + " frames x " +
                           std::to_string(cells_per_frame) +
                           " cells, OC-12, exact cell instants");
  rep.info("baseline", "pre-fast-path implementation, same workload");
  rep.info("short_mode", xunet::bench::bench_short() ? "1" : "0");
  rep.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\n== unified metrics registry (bench.micro.*) ==\n%s",
              registry().render_text().c_str());
  run_cell_transport_report();
  return 0;
}
