// packet.hpp — the simulated IP datagram and its wire form.
//
// We carry a real 20-byte header (version/ihl, tos, total length, id,
// flags/fragment offset, ttl, protocol, checksum, src, dst) so that header
// checksumming, fragmentation and wire sizing behave like the real thing.
#pragma once

#include <cstdint>

#include "ip/addr.hpp"
#include "util/buffer.hpp"

namespace xunet::ip {

/// Fixed IP header size (no options in this simulation).
inline constexpr std::size_t kIpHeaderBytes = 20;
/// Default initial TTL.
inline constexpr std::uint8_t kDefaultTtl = 64;

/// Parsed IP datagram.
struct IpPacket {
  IpAddress src;
  IpAddress dst;
  IpProto protocol = IpProto::udp;
  std::uint8_t ttl = kDefaultTtl;
  std::uint16_t id = 0;          ///< identification (fragment grouping)
  bool more_fragments = false;   ///< MF flag
  std::uint16_t frag_offset = 0; ///< in bytes (multiple of 8 on the wire)
  util::Buffer payload;

  /// Total bytes on the wire.
  [[nodiscard]] std::size_t wire_size() const noexcept {
    return kIpHeaderBytes + payload.size();
  }
};

/// Serialize with a correct header checksum, header and payload in one
/// exact-size buffer.
[[nodiscard]] util::Buffer serialize(const IpPacket& p);
/// The same with `payload` carried in place of p.payload (a fragment's
/// slice of its datagram, written without an intermediate copy).
[[nodiscard]] util::Buffer serialize(const IpPacket& p, util::BytesView payload);

/// Parse and verify; protocol_error on truncation or checksum failure.
[[nodiscard]] util::Result<IpPacket> parse_ip_packet(util::BytesView wire);

}  // namespace xunet::ip
