#include "ip/node.hpp"

#include <cassert>

namespace xunet::ip {

using util::Errc;

IpNode::IpNode(sim::Simulator& sim, std::string name, IpAddress addr)
    : sim_(sim), name_(std::move(name)), addr_(addr) {}

void IpNode::register_protocol(IpProto proto, ProtoHandler handler) {
  protocols_[static_cast<std::uint8_t>(proto)] = std::move(handler);
}

void IpNode::add_route(IpAddress dst, IpEgress& egress) {
  routes_[dst] = &egress;
}

void IpNode::set_default_route(IpEgress& egress) { default_route_ = &egress; }

IpEgress* IpNode::route_for(IpAddress dst) const {
  if (auto it = routes_.find(dst); it != routes_.end()) return it->second;
  return default_route_;
}

util::Result<void> IpNode::send(IpAddress dst, IpProto proto,
                                util::Buffer payload) {
  IpPacket p;
  p.src = addr_;
  p.dst = dst;
  p.protocol = proto;
  p.id = next_id_++;
  p.payload = std::move(payload);
  if (dst == addr_) {
    // Loopback: deliver on the next event-loop turn, like a software
    // interrupt, so callers never reenter themselves synchronously.
    auto up = [this, p = std::move(p)]() mutable { deliver_local(std::move(p)); };
    static_assert(sim::Simulator::stored_inline<decltype(up)>);
    sim_.schedule(sim::SimDuration{}, std::move(up));
    return {};
  }
  IpEgress* egress = route_for(dst);
  if (egress == nullptr) {
    ++dropped_no_route_;
    return Errc::no_route;
  }
  return emit(*egress, p);
}

util::Result<void> IpNode::emit(IpEgress& egress, const IpPacket& p) {
  const std::size_t max_payload = egress.mtu() - kIpHeaderBytes;
  if (p.payload.size() + kIpHeaderBytes <= egress.mtu()) {
    egress.transmit(*this, serialize(p));
    return {};
  }
  // Fragment: every piece but the last carries a multiple of 8 bytes.
  const std::size_t piece = max_payload & ~std::size_t{7};
  if (piece == 0) return Errc::message_too_long;
  std::size_t offset = 0;
  while (offset < p.payload.size()) {
    const std::size_t n = std::min(piece, p.payload.size() - offset);
    IpPacket frag;
    frag.src = p.src;
    frag.dst = p.dst;
    frag.protocol = p.protocol;
    frag.ttl = p.ttl;
    frag.id = p.id;
    frag.frag_offset = static_cast<std::uint16_t>(offset);
    frag.more_fragments = offset + n < p.payload.size();
    egress.transmit(*this, serialize(frag, util::BytesView(p.payload).subspan(offset, n)));
    ++fragments_sent_;
    offset += n;
  }
  return {};
}

void IpNode::frame_arrival(util::BytesView wire) {
  auto parsed = parse_ip_packet(wire);
  if (!parsed) return;  // corrupted frames vanish, as on real links
  IpPacket p = std::move(*parsed);
  if (p.dst == addr_) {
    deliver_or_reassemble(std::move(p));
    return;
  }
  // Forward.
  if (p.ttl <= 1) {
    ++dropped_ttl_;
    return;
  }
  p.ttl -= 1;
  IpEgress* egress = route_for(p.dst);
  if (egress == nullptr) {
    ++dropped_no_route_;
    return;
  }
  ++forwarded_;
  (void)emit(*egress, p);
}

void IpNode::deliver_or_reassemble(IpPacket p) {
  if (!p.more_fragments && p.frag_offset == 0) {
    deliver_local(std::move(p));
    return;
  }
  sweep_reassembly();
  ReasmKey key{p.src, p.id};
  Reasm& r = reasm_[key];
  r.deadline = sim_.now() + kReassemblyTimeout;
  if (!p.more_fragments) {
    r.have_last = true;
    r.total = p.frag_offset + p.payload.size();
  }
  r.pieces[p.frag_offset] = std::move(p.payload);
  if (!r.have_last) return;
  // Complete when the byte ranges tile [0, total) exactly.
  std::size_t covered = 0;
  for (const auto& [off, bytes] : r.pieces) {
    if (off != covered) return;  // hole
    covered += bytes.size();
  }
  if (covered != r.total) return;
  IpPacket whole;
  whole.src = p.src;
  whole.dst = p.dst;
  whole.protocol = p.protocol;
  whole.id = p.id;
  whole.payload.reserve(r.total);
  for (const auto& [off, bytes] : r.pieces) {
    whole.payload.insert(whole.payload.end(), bytes.begin(), bytes.end());
  }
  reasm_.erase(key);
  ++reassembled_;
  deliver_local(std::move(whole));
}

void IpNode::deliver_local(IpPacket p) {
  auto it = protocols_.find(static_cast<std::uint8_t>(p.protocol));
  if (it == protocols_.end()) {
    ++dropped_no_handler_;
    return;
  }
  ++delivered_;
  it->second(std::move(p));
}

void IpNode::sweep_reassembly() {
  for (auto it = reasm_.begin(); it != reasm_.end();) {
    if (it->second.deadline <= sim_.now()) {
      it = reasm_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace xunet::ip
