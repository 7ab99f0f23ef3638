#include "ip/packet.hpp"

#include <charconv>

#include "util/checksum.hpp"

namespace xunet::ip {

using util::Errc;

std::string to_string(IpAddress a) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (a.value >> 24) & 0xFF,
                (a.value >> 16) & 0xFF, (a.value >> 8) & 0xFF, a.value & 0xFF);
  return buf;
}

util::Result<IpAddress> parse_ip(std::string_view s) {
  std::uint32_t value = 0;
  int parts = 0;
  while (parts < 4) {
    std::size_t dot = s.find('.');
    std::string_view part =
        dot == std::string_view::npos ? s : s.substr(0, dot);
    unsigned byte = 0;
    auto [ptr, ec] = std::from_chars(part.data(), part.data() + part.size(), byte);
    if (ec != std::errc{} || ptr != part.data() + part.size() || byte > 255) {
      return Errc::invalid_argument;
    }
    value = value << 8 | byte;
    ++parts;
    if (dot == std::string_view::npos) {
      s = {};
      break;
    }
    s = s.substr(dot + 1);
  }
  if (parts != 4 || !s.empty()) return Errc::invalid_argument;
  return IpAddress{value};
}

util::Buffer serialize(const IpPacket& p) { return serialize(p, p.payload); }

util::Buffer serialize(const IpPacket& p, util::BytesView payload) {
  util::Writer w;
  w.reserve(kIpHeaderBytes + payload.size());
  w.u8(0x45);  // version 4, IHL 5
  w.u8(0);     // TOS
  w.u16(static_cast<std::uint16_t>(kIpHeaderBytes + payload.size()));
  w.u16(p.id);
  // Flags(3) + fragment offset(13), offset in 8-byte units.
  std::uint16_t ff = static_cast<std::uint16_t>((p.frag_offset / 8) & 0x1FFF);
  if (p.more_fragments) ff |= 0x2000;
  w.u16(ff);
  w.u8(p.ttl);
  w.u8(static_cast<std::uint8_t>(p.protocol));
  w.u16(0);  // checksum placeholder
  w.u32(p.src.value);
  w.u32(p.dst.value);
  w.patch_u16(10, util::internet_checksum(w.view()));
  w.bytes(payload);
  return w.take();
}

util::Result<IpPacket> parse_ip_packet(util::BytesView wire) {
  if (wire.size() < kIpHeaderBytes) return Errc::protocol_error;
  if (!util::checksum_ok(wire.subspan(0, kIpHeaderBytes))) {
    return Errc::protocol_error;
  }
  util::Reader r(wire);
  auto vihl = r.u8();
  if (!vihl || *vihl != 0x45) return Errc::protocol_error;
  (void)r.u8();  // TOS
  auto total = r.u16();
  if (!total || *total != wire.size()) return Errc::protocol_error;
  IpPacket p;
  p.id = *r.u16();
  std::uint16_t ff = *r.u16();
  p.more_fragments = (ff & 0x2000) != 0;
  p.frag_offset = static_cast<std::uint16_t>((ff & 0x1FFF) * 8);
  p.ttl = *r.u8();
  p.protocol = static_cast<IpProto>(*r.u8());
  (void)r.u16();  // checksum (already verified)
  p.src.value = *r.u32();
  p.dst.value = *r.u32();
  p.payload = util::to_buffer(r.rest());
  return p;
}

}  // namespace xunet::ip
