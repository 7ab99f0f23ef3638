// proto_atm.hpp — IPPROTO_ATM: AAL frames encapsulated in raw IP (§5.4, §7.4).
//
// The encapsulation header carries exactly the three fields of the paper:
//   Source Address   ATM address of the sending node
//   Sequence Number  to detect out-of-order packets
//   VCI              VCI on which to send the encapsulated data
// (No checksum: "our IP links are over reliable FDDI links".)
//
// At a HOST the layer sits under the Orc driver: driver output calls the
// encapsulation routine, driver input reads from the decapsulation routine.
// At a ROUTER the decapsulation routine hands in-sequence frames straight to
// the Orc driver (toward the Hobbit board), and per-VCI VCI_BIND state
// drives re-encapsulation of frames arriving from the ATM side toward
// remote hosts.
#pragma once

#include <map>
#include <optional>

#include "atm/types.hpp"
#include "ip/node.hpp"
#include "kern/instr.hpp"
#include "kern/mbuf.hpp"
#include "kern/orc.hpp"

namespace xunet::kern {

/// The encapsulation/decapsulation layer bound to one kernel's IP stack.
class ProtoAtm {
 public:
  enum class Role { host, router };

  ProtoAtm(ip::IpNode& node, InstrCounter& instr, Role role,
           atm::AtmAddress self, std::size_t mbuf_bytes,
           bool header_checksum = false);

  /// Wire to the Orc driver (bring-up).
  void set_orc(OrcDriver& orc) noexcept { orc_ = &orc; }

  // -- control-message surface (the IPPROTO_ATM socket send routine) ------

  /// Host: "a configuration message ... has the router's IP address as its
  /// destination address.  The socket send routine ... sets the IP
  /// forwarding address for IPPROTO_ATM to the destination address of this
  /// message, and simply discards the message."
  void control_set_router(ip::IpAddress router) noexcept { router_ = router; }
  [[nodiscard]] std::optional<ip::IpAddress> router_address() const noexcept {
    return router_;
  }

  /// Router: VCI_BIND — incoming data on `vci` is re-encapsulated toward
  /// `host`; installs the Orc per-VCI handler.
  void control_vci_bind(atm::Vci vci, ip::IpAddress host);

  /// Router: VCI_SHUT — stop forwarding `vci`, release its record, tell
  /// the Orc driver to discard further arrivals.
  void control_vci_shut(atm::Vci vci);

  /// Forget `vci`'s record (destination and both sequence numbers) when
  /// its call is gone, so a later call on the same VCI starts fresh.
  void release(atm::Vci vci) { vcis_.erase(vci); }

  /// Router: current forwarding table size (leak audits).
  [[nodiscard]] std::size_t bound_vci_count() const noexcept;

  // -- data path -----------------------------------------------------------

  /// Encapsulate and send toward the configured router (host role).
  [[nodiscard]] util::Result<void> encap_output(atm::Vci vci,
                                                const MbufChain& chain);

  /// Encapsulate toward an explicit destination (router forwarding role).
  [[nodiscard]] util::Result<void> encap_output_to(ip::IpAddress dst,
                                                   atm::Vci vci,
                                                   const MbufChain& chain);

  [[nodiscard]] std::uint64_t frames_encapsulated() const noexcept { return encapsulated_; }
  [[nodiscard]] std::uint64_t frames_decapsulated() const noexcept { return decapsulated_; }
  [[nodiscard]] std::uint64_t out_of_order() const noexcept { return out_of_order_; }
  [[nodiscard]] std::uint64_t malformed() const noexcept { return malformed_; }
  /// Frames dropped by the optional header checksum (§7.4 extension).
  [[nodiscard]] std::uint64_t checksum_drops() const noexcept { return checksum_drops_; }
  [[nodiscard]] bool header_checksum_enabled() const noexcept { return checksum_; }

 private:
  void decap_input(const ip::IpPacket& p);

  ip::IpNode& node_;
  InstrCounter& instr_;
  Role role_;
  atm::AtmAddress self_;
  std::size_t mbuf_bytes_;
  bool checksum_;
  OrcDriver* orc_ = nullptr;
  std::optional<ip::IpAddress> router_;
  /// Everything the layer keeps for one VCI.
  struct VciState {
    std::optional<ip::IpAddress> dest;        ///< router: VCI_BIND host
    std::uint32_t send_seq = 0;               ///< next sequence number sent
    std::optional<std::uint32_t> expect_seq;  ///< next one expected, once
                                              ///< a frame has arrived
  };
  std::map<atm::Vci, VciState> vcis_;
  std::uint64_t encapsulated_ = 0;
  std::uint64_t decapsulated_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t checksum_drops_ = 0;
};

}  // namespace xunet::kern
