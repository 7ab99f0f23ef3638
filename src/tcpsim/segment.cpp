#include "tcpsim/segment.hpp"

namespace xunet::tcp {

using util::Errc;

util::Writer write_header(const Segment& s, std::size_t payload_bytes) {
  util::Writer w;
  w.reserve(kTcpHeaderBytes + payload_bytes);
  w.u16(s.src_port);
  w.u16(s.dst_port);
  w.u32(s.seq);
  w.u32(s.ack);
  std::uint8_t f = 0;
  if (s.flags.syn) f |= 0x01;
  if (s.flags.ack) f |= 0x02;
  if (s.flags.fin) f |= 0x04;
  if (s.flags.rst) f |= 0x08;
  w.u8(f);
  w.u8(0);  // reserved
  // Window scaled down to u16 granularity of 1 KiB to keep the header small.
  w.u16(s.window);
  return w;
}

util::Buffer serialize(const Segment& s) {
  util::Writer w = write_header(s, s.payload.size());
  w.bytes(s.payload);
  return w.take();
}

util::Result<Segment> parse_segment(util::Buffer wire) {
  if (wire.size() < kTcpHeaderBytes) return Errc::protocol_error;
  const std::uint8_t* p = wire.data();
  Segment s;
  s.src_port = util::load_u16(p);
  s.dst_port = util::load_u16(p + 2);
  s.seq = util::load_u32(p + 4);
  s.ack = util::load_u32(p + 8);
  const std::uint8_t f = p[12];
  s.flags.syn = (f & 0x01) != 0;
  s.flags.ack = (f & 0x02) != 0;
  s.flags.fin = (f & 0x04) != 0;
  s.flags.rst = (f & 0x08) != 0;
  s.window = util::load_u16(p + 14);
  // The payload is the rest of the wire buffer, header cut off in place.
  wire.erase(wire.begin(), wire.begin() + kTcpHeaderBytes);
  s.payload = std::move(wire);
  return s;
}

}  // namespace xunet::tcp
