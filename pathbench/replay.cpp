#include "replay.hpp"

#include <algorithm>
#include <array>

#include "atm/aal5.hpp"
#include "atm/link.hpp"
#include "atm/switch.hpp"
#include "ip/packet.hpp"
#include "spans.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace pathbench {
namespace {

using namespace xunet;

constexpr int kBatches = 7;
constexpr std::int64_t kBatchNs = 20'000'000;  ///< minimum wall time per batch
/// Cells pushed through the standalone switch path at most.
constexpr std::uint64_t kMaxReplayCells = 400'000;

/// Median over kBatches of the wall ns per unit of `work()`, which returns
/// how many units it did.  Each batch repeats work() for at least kBatchNs.
template <typename Work>
double median_ns_per_unit(Work work) {
  std::array<double, kBatches> per{};
  for (double& v : per) {
    const std::int64_t t0 = wall_ns();
    std::int64_t t = t0;
    std::uint64_t units = 0;
    while (t - t0 < kBatchNs) {
      units += work();
      t = wall_ns();
    }
    v = static_cast<double>(t - t0) / static_cast<double>(units);
  }
  std::nth_element(per.begin(), per.begin() + kBatches / 2, per.end());
  return per[kBatches / 2];
}

/// The workload's first frame of `size` bytes, or a seeded one when the
/// workload carries none of that size.
util::Buffer payload_of(const Inputs& in, std::size_t size) {
  for (std::size_t i = 0; i < in.frame_count(); ++i) {
    if (in.frame_sizes[i] != size) continue;
    util::Buffer f;
    in.frame(i, f);
    return f;
  }
  util::Rng rng(in.seed ^ size);
  util::Buffer b(size);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

double aal5_round_trip(const util::Buffer& payload) {
  atm::Aal5Segmenter seg;
  std::uint64_t delivered = 0;
  atm::Aal5Reassembler reasm([&delivered](atm::Aal5Frame f) { delivered += f.payload.size(); });
  const double ns = median_ns_per_unit([&] {
    auto cells = seg.segment(42, payload);
    for (const atm::Cell& c : *cells) reasm.cell_arrival(c);
    return std::uint64_t{1};
  });
  return delivered > 0 && reasm.error_count() == 0 ? ns : -1.0;
}

struct CountingSink final : atm::CellSink {
  std::uint64_t n = 0;
  void cell_arrival(const atm::Cell&) override { ++n; }
  void cells_arrival(const atm::Cell*, std::size_t k) override { n += k; }
};

/// CellLink -> AtmSwitch -> CellLink at the testbed's DS3 rate and
/// propagation, `cells` cells in frames of up to 192 cells.
double switch_path(std::uint64_t cells) {
  return median_ns_per_unit([cells] {
    sim::Simulator simu;
    atm::AtmSwitch sw(simu, "replay");
    const int p_in = sw.add_port();
    const int p_out = sw.add_port();
    CountingSink sink;
    atm::CellLink in(simu, atm::kDs3Bps, sim::microseconds(500), sw.input(p_in));
    atm::CellLink out(simu, atm::kDs3Bps, sim::microseconds(500), sink);
    sw.set_output(p_out, out);
    if (!sw.install_route(p_in, 1100, p_out, 1200, atm::Qos{}).ok()) return std::uint64_t{1};
    atm::Cell cell;
    cell.vci = 1100;
    constexpr std::uint64_t kTrain = 192;
    // One train per 4.5 ms keeps the DS3 line (9.4 us per cell) busy
    // without queueing past the switch's port buffer.
    for (std::uint64_t sent = 0, f = 0; sent < cells; sent += kTrain, ++f) {
      const std::uint64_t n = std::min(kTrain, cells - sent);
      simu.schedule(sim::microseconds(4500 * static_cast<std::int64_t>(f)), [&in, cell, n] {
        for (std::uint64_t i = 0; i < n; ++i) in.send(cell);
      });
    }
    simu.run();
    return sink.n == cells ? cells : std::uint64_t{1} << 62;
  });
}

}  // namespace

ReplayTimes replay_layers(const Inputs& in, const std::vector<sig::Msg>& msgs,
                          std::uint64_t cells) {
  ReplayTimes t;
  const util::Buffer small = payload_of(in, 48);
  const util::Buffer large = payload_of(in, 9180);
  t.aal5_round_trip_ns_48 = aal5_round_trip(small);
  t.aal5_round_trip_ns_9180 = aal5_round_trip(large);

  std::uint64_t crc_sink = 0;
  t.crc32_ns_per_kib = median_ns_per_unit([&] {
                         crc_sink += util::crc32(large);
                         return std::uint64_t{1};
                       }) *
                       1024.0 / static_cast<double>(large.size());

  if (!msgs.empty()) {
    std::uint64_t parsed = 0;
    t.sig_msg_round_trip_ns = median_ns_per_unit([&] {
      for (const sig::Msg& m : msgs) {
        auto back = sig::parse_msg(sig::serialize(m));
        parsed += back.ok() ? 1 : 0;
      }
      return static_cast<std::uint64_t>(msgs.size());
    });
    if (parsed == 0) t.sig_msg_round_trip_ns = -1.0;
  }

  // The workload's frames as IPPROTO_ATM packets (host -> its router).
  std::vector<ip::IpPacket> packets;
  for (std::size_t i = 0; i < in.frame_count() && packets.size() < 64; ++i) {
    ip::IpPacket p;
    p.src = ip::make_ip(10, 0, 0, 2);
    p.dst = ip::make_ip(10, 0, 0, 1);
    p.protocol = ip::IpProto::atm;
    in.frame(i, p.payload);
    packets.push_back(std::move(p));
  }
  if (packets.empty()) {
    ip::IpPacket p;
    p.protocol = ip::IpProto::atm;
    p.payload = small;
    packets.push_back(std::move(p));
  }
  std::uint64_t ip_ok = 0;
  t.ip_serialize_parse_ns = median_ns_per_unit([&] {
    for (const ip::IpPacket& p : packets) {
      auto back = ip::parse_ip_packet(ip::serialize(p));
      ip_ok += back.ok() ? 1 : 0;
    }
    return static_cast<std::uint64_t>(packets.size());
  });
  if (ip_ok == 0) t.ip_serialize_parse_ns = -1.0;

  t.switch_ns_per_cell = switch_path(std::clamp<std::uint64_t>(cells, 1, kMaxReplayCells));
  (void)crc_sink;
  return t;
}

}  // namespace pathbench
