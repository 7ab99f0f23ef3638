// workloads.hpp — the four whole-path workloads and what one episode of
// each reports.
//
// An episode builds a fresh testbed, brings it up, registers the receiver
// (and for the streams opens the call), then runs a fixed amount of work —
// a fixed call count or frame count, never "as much as fits in the time" —
// so per-operation costs are comparable across runs and commits.  Every
// input the simulator sees comes from Inputs, which is generated from the
// seed alone.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "signaling/messages.hpp"
#include "util/buffer.hpp"

namespace pathbench {

enum class Kind { call_churn, call_hold, stream_native, stream_encap };

[[nodiscard]] std::optional<Kind> parse_kind(std::string_view name);
[[nodiscard]] const char* kind_name(Kind k) noexcept;
[[nodiscard]] inline bool is_stream(Kind k) noexcept {
  return k == Kind::stream_native || k == Kind::stream_encap;
}

/// Everything the seed determines.
struct Inputs {
  Kind kind = Kind::call_churn;
  std::uint64_t seed = 0;
  /// Data frames in send order.  Streams send all of them over one call;
  /// call_churn sends frame i on call i; call_hold sends none.  Frame i is
  /// index (4 B LE) | seeded bytes | checksum (8 B LE) over what precedes
  /// it; the seeded bytes come from a small pool of seeded blocks so the
  /// inputs do not dominate the process's memory.
  std::vector<std::uint32_t> frame_sizes;
  std::vector<std::uint64_t> frame_sums;  ///< checksum carried by frame i
  std::vector<xunet::util::Buffer> blocks;
  /// call_churn: think time before a client slot issues call i.
  /// call_hold: gap before pair p issues its next call (pair-major).
  std::vector<std::int64_t> gaps_ns;
  /// Streams: the fixed send interval.
  std::int64_t interval_ns = 0;
  /// Hash over all of the above.
  std::uint64_t digest = 0;

  [[nodiscard]] std::size_t frame_count() const noexcept { return frame_sizes.size(); }
  /// Write frame i into `out` (resized to fit; reuse it to avoid allocation).
  void frame(std::size_t i, xunet::util::Buffer& out) const;
};

[[nodiscard]] Inputs make_inputs(Kind kind, std::uint64_t seed);

/// Deterministic per-layer counts over one episode's measured phase.
struct Counts {
  std::uint64_t ops = 0;            ///< calls (call workloads) or frames (streams)
  std::uint64_t frames = 0;         ///< data frames delivered intact
  std::uint64_t events = 0;         ///< events dispatched by run_for
  std::uint64_t peak_pending = 0;   ///< Simulator::peak_pending at the end
  std::uint64_t allocs = 0;         ///< operator new calls
  std::uint64_t cell_hops = 0;      ///< cells sent, summed over every link
  std::uint64_t cells_lost = 0;     ///< link drops + switch discards + unroutable
  std::uint64_t aal5_errors = 0;
  std::uint64_t instr_send = 0;     ///< InstrCounter send path, all machines
  std::uint64_t instr_recv = 0;     ///< InstrCounter receive path, all machines
  std::uint64_t anand_posted = 0;
  std::uint64_t anand_dropped = 0;
  std::uint64_t fds_time_wait_peak = 0;
  std::uint64_t tcp_segments = 0;
  std::uint64_t tcp_conns_peak = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t ip_fragments = 0;
  std::uint64_t decapsulated = 0;   ///< IPPROTO_ATM frames decapsulated
  std::uint64_t sig_peer_msgs = 0;  ///< only when counted through the wire hook
  std::uint64_t sig_retransmits = 0;
  std::uint64_t sig_sheds = 0;
  std::uint64_t vci_mappings_end = 0;

  bool operator==(const Counts&) const = default;
};

/// The measured phase is timed per tenth of its operations.
inline constexpr std::size_t kTenths = 10;

/// Times are CPU seconds of the benchmark thread (see cpu_ns), so time the
/// host spends on other processes does not count against the program.
struct Episode {
  double build_s = 0, bring_up_s = 0, setup_s = 0;
  /// CPU time of each tenth of the measured phase's operations, in order;
  /// the last tenth is the tail.
  std::array<double, kTenths> tenth_s{};
  double run_wall_s = 0;  ///< wall time of the measured phase (diagnostics)
  std::uint64_t failed = 0;
  /// Sim-time latency per operation: call setup (open issued → VCI
  /// delivered) or frame delivery (scheduled send → receiver callback).
  std::vector<std::int64_t> latency_ns;
  Counts counts;
  /// The first peer signaling messages on the wire (those of the first
  /// call), when counted through the wire hook.
  std::vector<xunet::sig::Msg> call_msgs;
  std::vector<std::string> problems;  ///< correctness-gate failures
};

/// Plays one episode.  The count episode (`counting`) also samples peak TCP
/// connections and TIME_WAIT descriptors after every run_for chunk and
/// counts peer signaling messages through Testbed::set_wire_fault; both
/// cost time, so timed episodes skip them.
[[nodiscard]] Episode run_episode(const Inputs& in, bool counting);

}  // namespace pathbench
