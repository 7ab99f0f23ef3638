// segment.hpp — simulated TCP segment wire format.
#pragma once

#include <cstdint>

#include "ip/addr.hpp"
#include "util/buffer.hpp"

namespace xunet::tcp {

/// Segment control flags.
struct Flags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool operator==(const Flags&) const = default;
};

/// Simplified TCP header + payload.
struct Segment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  Flags flags;
  std::uint16_t window = 0;
  util::Buffer payload;
};

/// Header bytes on the wire for this model (ports, seq, ack, flags, a
/// reserved byte, window).
inline constexpr std::size_t kTcpHeaderBytes = 16;

/// The header of `s` (not its payload) in a buffer reserved for
/// `payload_bytes` more, which the caller appends: one allocation for the
/// whole segment.
[[nodiscard]] util::Writer write_header(const Segment& s, std::size_t payload_bytes);
/// Header and payload in one exact-size buffer.
[[nodiscard]] util::Buffer serialize(const Segment& s);

/// Parse a segment, taking `wire` over: the header is cut off in place and
/// the rest becomes the payload without a copy.
[[nodiscard]] util::Result<Segment> parse_segment(util::Buffer wire);

}  // namespace xunet::tcp
