#include "ip/udp.hpp"

namespace xunet::ip {

using util::Errc;

UdpLayer::UdpLayer(IpNode& node) : node_(node) {
  node_.register_protocol(IpProto::udp,
                          [this](const IpPacket& p) { packet_arrival(p); });
}

util::Result<void> UdpLayer::bind(std::uint16_t port, Handler handler) {
  if (port == 0 || !handler) return Errc::invalid_argument;
  if (ports_.contains(port)) return Errc::address_in_use;
  ports_.emplace(port, std::move(handler));
  return {};
}

util::Result<std::uint16_t> UdpLayer::bind_ephemeral(Handler handler) {
  for (int attempts = 0; attempts < 64 * 1024; ++attempts) {
    std::uint16_t p = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? 1024 : next_ephemeral_ + 1;
    if (!ports_.contains(p)) {
      if (auto r = bind(p, handler); !r) return r.error();
      return p;
    }
  }
  return Errc::no_resources;
}

util::Result<void> UdpLayer::send(IpAddress dst, std::uint16_t dst_port,
                                  std::uint16_t src_port, util::BytesView data) {
  util::Writer w;
  w.reserve(kUdpHeaderBytes + data.size());
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(static_cast<std::uint16_t>(kUdpHeaderBytes + data.size()));
  w.u16(0);  // checksum unused in the simulation (links verify integrity)
  w.bytes(data);
  return node_.send(dst, IpProto::udp, w.take());
}

void UdpLayer::packet_arrival(const IpPacket& p) {
  util::Reader r(p.payload);
  auto src_port = r.u16();
  auto dst_port = r.u16();
  auto length = r.u16();
  (void)r.u16();  // checksum
  if (!src_port || !dst_port || !length ||
      *length != kUdpHeaderBytes + r.remaining()) {
    ++dropped_;
    return;
  }
  auto it = ports_.find(*dst_port);
  if (it == ports_.end()) {
    ++dropped_;
    return;
  }
  ++received_;
  it->second(p.src, *src_port, r.rest());
}

}  // namespace xunet::ip
