// replay.hpp — single-layer timings on the workload's own inputs.
//
// Each layer the whole-path workloads cross is timed again in isolation,
// fed with what the workload generated or carried: AAL5 segmentation plus
// reassembly and CRC-32 over the workload's frames, signaling message
// serialize/parse over the peer messages of one of its calls, IP
// serialize/parse over its frames as IPPROTO_ATM packets, and a standalone
// CellLink -> AtmSwitch -> CellLink carrying its cell count.
#pragma once

#include <cstdint>
#include <vector>

#include "signaling/messages.hpp"
#include "workloads.hpp"

namespace pathbench {

struct ReplayTimes {
  double aal5_round_trip_ns_48 = 0;
  double aal5_round_trip_ns_9180 = 0;
  double crc32_ns_per_kib = 0;
  double sig_msg_round_trip_ns = 0;
  double ip_serialize_parse_ns = 0;
  double switch_ns_per_cell = 0;
};

/// `msgs`: peer signaling messages of one call; `cells`: the workload's
/// cell count.  Each timing is the median of several batches.
[[nodiscard]] ReplayTimes replay_layers(const Inputs& in,
                                        const std::vector<xunet::sig::Msg>& msgs,
                                        std::uint64_t cells);

}  // namespace pathbench
