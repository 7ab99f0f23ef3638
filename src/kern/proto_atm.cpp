#include "kern/proto_atm.hpp"

#include <algorithm>

#include "util/checksum.hpp"

namespace xunet::kern {

using util::Errc;

ProtoAtm::ProtoAtm(ip::IpNode& node, InstrCounter& instr, Role role,
                   atm::AtmAddress self, std::size_t mbuf_bytes,
                   bool header_checksum)
    : node_(node),
      instr_(instr),
      role_(role),
      self_(std::move(self)),
      mbuf_bytes_(mbuf_bytes),
      checksum_(header_checksum) {
  node_.register_protocol(ip::IpProto::atm,
                          [this](const ip::IpPacket& p) { decap_input(p); });
}

void ProtoAtm::control_vci_bind(atm::Vci vci, ip::IpAddress host) {
  vcis_[vci].dest = host;
  if (orc_ != nullptr) {
    orc_->set_discard(vci, false);
    orc_->set_vci_handler(vci, [this, host](atm::Vci v, MbufChain c) {
      (void)encap_output_to(host, v, c);
    });
  }
}

void ProtoAtm::control_vci_shut(atm::Vci vci) {
  release(vci);
  if (orc_ != nullptr) {
    orc_->clear_vci_handler(vci);
    orc_->set_discard(vci, true);
  }
}

std::size_t ProtoAtm::bound_vci_count() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      vcis_.begin(), vcis_.end(), [](const auto& kv) { return kv.second.dest.has_value(); }));
}

util::Result<void> ProtoAtm::encap_output(atm::Vci vci, const MbufChain& chain) {
  if (!router_) return Errc::no_route;
  return encap_output_to(*router_, vci, chain);
}

util::Result<void> ProtoAtm::encap_output_to(ip::IpAddress dst, atm::Vci vci,
                                             const MbufChain& chain) {
  // Table 1 send path: header mbuf allocation, field fills, per-VCI sequence
  // update, forwarding-address lookup, queue to raw IP — plus the chain walk.
  instr_.charge(InstrComponent::proto_atm, InstrDir::send,
                kAtmSendHdrAlloc + kAtmSendFields + kAtmSendSeqUpdate +
                    kAtmSendRoute + kAtmSendEnqueue);
  instr_.charge(InstrComponent::proto_atm, InstrDir::send,
                kPerMbufWalk * chain.mbuf_count());

  std::uint32_t& seq = vcis_[vci].send_seq;
  util::Writer w;
  // Header (checksum, length-prefixed source, sequence, VCI) plus payload.
  w.reserve(2 + 2 + self_.name.size() + 4 + 2 + chain.total_bytes());
  w.u16(0);                 // header checksum (0 = not checksummed)
  w.lp_string(self_.name);  // Source Address
  w.u32(seq++);             // Sequence Number
  w.u16(vci);               // VCI
  w.bytes(chain.bytes());
  util::Buffer msg = w.take();
  if (checksum_) {
    std::uint16_t csum = util::internet_checksum(msg);
    if (csum == 0) csum = 0xFFFF;  // 0 stays the "unchecked" marker
    msg[0] = static_cast<std::uint8_t>(csum >> 8);
    msg[1] = static_cast<std::uint8_t>(csum);
  }

  // IP send cost (count from Clark et al., as in the paper).
  instr_.charge(InstrComponent::ip_layer, InstrDir::send, kIpSend);
  ++encapsulated_;
  return node_.send(dst, ip::IpProto::atm, std::move(msg));
}

void ProtoAtm::decap_input(const ip::IpPacket& p) {
  if (role_ == Role::host) {
    // Host receive path, Table 1: IP 57 then IPPROTO_ATM 36.
    instr_.charge(InstrComponent::ip_layer, InstrDir::receive, kIpRecv);
    instr_.charge(InstrComponent::proto_atm, InstrDir::receive,
                  kAtmRecvDemux + kAtmRecvValidate + kAtmRecvSeqCheck +
                      kAtmRecvVciExtract + kAtmRecvHandoff);
  } else {
    // Router switching path, §9: +39 on top of driver input / IP switching /
    // Orc output.
    instr_.charge(InstrComponent::router_switch, InstrDir::receive,
                  kSwitchValidate + kSwitchSeqCheck + kSwitchVciLookup +
                      kSwitchHandoff);
  }

  util::Reader r(p.payload);
  auto csum = r.u16();
  if (!csum) {
    ++malformed_;
    return;
  }
  if (*csum != 0) {
    // Checksummed message: verify over the whole encapsulation with the
    // field zeroed out.
    util::Buffer copy = p.payload;
    copy[0] = 0;
    copy[1] = 0;
    std::uint16_t expect = util::internet_checksum(copy);
    if (expect == 0) expect = 0xFFFF;
    if (expect != *csum) {
      ++checksum_drops_;
      return;
    }
  }
  auto src = r.lp_string();
  auto seq = r.u32();
  auto vci = r.u16();
  if (!src || !seq || !vci || *vci == atm::kInvalidVci) {
    ++malformed_;
    return;
  }

  // Out-of-order detection via the sequence-number field (§5.4).
  std::optional<std::uint32_t>& expect = vcis_[*vci].expect_seq;
  const bool in_order = !expect || *seq == *expect;
  expect = *seq + 1;  // resynchronize past any gap
  if (!in_order) {
    ++out_of_order_;
    return;
  }

  ++decapsulated_;
  if (orc_ == nullptr) return;
  MbufChain chain = MbufChain::from_bytes(r.rest(), mbuf_bytes_);
  if (role_ == Role::host) {
    // Upward: driver input reads from the decapsulation routine.
    orc_->input(*vci, std::move(chain));
  } else {
    // Router: hand the mbuf chain to the Orc driver along with the VCI;
    // AAL5 trailer computation and segmentation happen on the Hobbit board.
    (void)orc_->output(*vci, chain);
  }
}

}  // namespace xunet::kern
