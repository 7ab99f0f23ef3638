// node.hpp — an IP stack instance: interfaces, forwarding, fragmentation.
//
// Every simulated machine (host or router) embeds one IpNode.  Routers
// forward between their interfaces; hosts typically hold a default route to
// their router — exactly the paper's topology ("any host with IP
// connectivity to a router").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "ip/link.hpp"
#include "ip/packet.hpp"

namespace xunet::ip {

/// How long an incomplete fragment reassembly is kept before being dropped.
inline constexpr sim::SimDuration kReassemblyTimeout = sim::seconds(30);

/// One IP stack.
class IpNode {
 public:
  /// Handler for a locally delivered datagram of a given protocol.  It may
  /// take the packet's payload.
  using ProtoHandler = std::function<void(IpPacket&&)>;

  IpNode(sim::Simulator& sim, std::string name, IpAddress addr);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] IpAddress address() const noexcept { return addr_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Register the upper-layer handler for `proto`.  Replaces any previous
  /// handler (the kernel's protocol switch table has one slot per protocol).
  void register_protocol(IpProto proto, ProtoHandler handler);

  /// Host route: datagrams for exactly `dst` leave via `egress`.
  void add_route(IpAddress dst, IpEgress& egress);
  /// Fallback route for everything without a host route.
  void set_default_route(IpEgress& egress);

  /// Send `payload` to `dst` as protocol `proto`, fragmenting to the
  /// egress MTU.  Fails with no_route when no interface matches and
  /// message_too_long when a fragment cannot carry even 8 bytes.  The
  /// payload is taken over: a loopback datagram carries the caller's
  /// buffer up to the receiving protocol without a copy.
  util::Result<void> send(IpAddress dst, IpProto proto, util::Buffer payload);

  /// Called by links (or virtual interfaces) when a frame arrives here.
  void frame_arrival(util::BytesView wire);

  /// Interface registration (called by IpLink::attach).
  void register_interface(IpLink& link) { interfaces_.push_back(&link); }

  // -- statistics ----------------------------------------------------------
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t dropped_no_route() const noexcept { return dropped_no_route_; }
  [[nodiscard]] std::uint64_t dropped_ttl() const noexcept { return dropped_ttl_; }
  [[nodiscard]] std::uint64_t dropped_no_handler() const noexcept { return dropped_no_handler_; }
  [[nodiscard]] std::uint64_t fragments_sent() const noexcept { return fragments_sent_; }
  [[nodiscard]] std::uint64_t reassembled() const noexcept { return reassembled_; }
  /// Incomplete reassembly contexts (leak audits).
  [[nodiscard]] std::size_t pending_reassemblies() const noexcept { return reasm_.size(); }

 private:
  struct ReasmKey {
    IpAddress src;
    std::uint16_t id;
    auto operator<=>(const ReasmKey&) const = default;
  };
  struct Reasm {
    std::map<std::uint16_t, util::Buffer> pieces;  ///< offset -> bytes
    bool have_last = false;
    std::size_t total = 0;
    sim::SimTime deadline{};
  };

  [[nodiscard]] IpEgress* route_for(IpAddress dst) const;
  void deliver_local(IpPacket p);
  void deliver_or_reassemble(IpPacket p);
  util::Result<void> emit(IpEgress& egress, const IpPacket& p);
  void sweep_reassembly();

  sim::Simulator& sim_;
  std::string name_;
  IpAddress addr_;
  std::vector<IpLink*> interfaces_;
  std::unordered_map<IpAddress, IpEgress*> routes_;
  IpEgress* default_route_ = nullptr;
  std::unordered_map<std::uint8_t, ProtoHandler> protocols_;
  std::map<ReasmKey, Reasm> reasm_;
  std::uint16_t next_id_ = 1;
  std::uint64_t delivered_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_no_route_ = 0;
  std::uint64_t dropped_ttl_ = 0;
  std::uint64_t dropped_no_handler_ = 0;
  std::uint64_t fragments_sent_ = 0;
  std::uint64_t reassembled_ = 0;
};

}  // namespace xunet::ip
