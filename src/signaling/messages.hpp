// messages.hpp — signaling wire messages (§7.1) and stream framing.
//
// Application↔sighost messages travel over TCP (the RPC-like IPC of §5.2),
// length-prefix framed.  Sighost↔sighost messages travel over the signaling
// PVC, one message per AAL frame.  Both use the same tagged serialization.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "atm/types.hpp"
#include "ip/addr.hpp"
#include "util/buffer.hpp"

namespace xunet::sig {

/// A connection-request identifier, unique per originating sighost; also
/// used as the end-to-end call id between peer sighosts.
using ReqId = std::uint32_t;

/// Request-id space partition between sighost incarnations.  Call keys are
/// "<originator>#<req_id>" and outlive a sighost crash in its peers'
/// five-lists, so a reborn sighost restarting its counter at 1 would mint
/// keys colliding with calls its previous life established — a failing new
/// call could then tear down a peer's record of a healthy recovered call.
/// Each incarnation therefore allocates from a disjoint 4M-wide band.
inline constexpr int kReqIdIncarnationShift = 22;

/// The end-to-end call key "<originator>#<req_id>" that names a call in
/// sighost's lists and in every hop's trace spans.
[[nodiscard]] inline std::string call_name(const std::string& origin, ReqId id) {
  return origin + "#" + std::to_string(id);
}

/// The 16-bit capability of §7.1: "a cookie is a 16 bit capability that
/// gives the holder the right to access a socket bound to a particular VCI."
using Cookie = std::uint16_t;

/// Every signaling message type, application-facing (§7.1, Figures 3 & 4)
/// and peer-to-peer.
enum class MsgType : std::uint8_t {
  // server <-> sighost
  export_srv = 1,    ///< server registers a service name + notify port
  service_regs,      ///< sighost acks the registration (or withdrawal)
  withdraw_srv,      ///< server removes a service name it registered
  incoming_conn,     ///< sighost -> server: a call arrived (cookie, QoS)
  accept_conn,       ///< server -> sighost: accept with modified QoS
  reject_conn,       ///< server -> sighost: decline
  vci_for_conn,      ///< sighost -> server/client: the VCI for the call
  // client <-> sighost
  connect_req,       ///< client -> sighost: connect to <dst, service, QoS>
  req_id,            ///< sighost -> client: request accepted for processing
  cancel_req,        ///< client -> sighost: withdraw an outstanding request
  conn_failed,       ///< sighost -> client/server: call failed (reason)
  // sighost <-> sighost (over the signaling PVC)
  peer_setup,        ///< originate a call: req id, service, QoS, source
  peer_accept,       ///< callee sighost: server accepted (modified QoS)
  peer_reject,       ///< callee sighost: no such service / server declined
  peer_established,  ///< originating sighost: VC is up; here is your VCI
  peer_bound,        ///< callee sighost: the server has bound its socket
  peer_setup_failed, ///< originating sighost: VC setup failed after accept
  peer_teardown,     ///< either side: call is gone, release and notify
  peer_cancel,       ///< originating sighost: client cancelled the request
  // reliable-delivery / crash-recovery control (sighost <-> sighost)
  peer_ack,          ///< acknowledges one sequenced peer message (seq field)
  peer_resync,       ///< restarted sighost: reset the channel, send your calls
  peer_resync_ack,   ///< peer: channel reset done (echoes the resync nonce)
  peer_resync_info,  ///< peer: one established call it shares with the sender
};
[[nodiscard]] std::string_view to_string(MsgType t) noexcept;

/// One parsed signaling message.  A union-of-fields record: each type uses
/// the subset documented above; unused fields stay default.
struct Msg {
  MsgType type = MsgType::export_srv;
  ReqId req_id = 0;
  /// Reliable-delivery sequence number on the signaling PVC.  0 means
  /// unsequenced (acks, resyncs, and all app<->sighost traffic, which rides
  /// TCP).  For peer_ack the field holds the sequence being acknowledged.
  std::uint32_t seq = 0;
  Cookie cookie = 0;
  atm::Vci vci = atm::kInvalidVci;
  /// Second VCI: peer_established carries the originator's own VCI here so
  /// both endpoints learn both ends of the VC (crash recovery needs it);
  /// peer_resync_info carries the reporter's local VCI.
  atm::Vci vci2 = atm::kInvalidVci;
  std::uint16_t port = 0;        ///< export_srv notify port / connect_req reply port
  std::string service{};         ///< service name
  std::string qos{};             ///< uninterpreted QoS string
  std::string dst{};             ///< destination ATM address (connect_req, peer_setup src)
  std::string comment{};         ///< free-form comment passed client->server
  std::uint8_t error = 0;        ///< reason code on reject/failure (util::Errc)
  /// Causal-trace propagation (obs::TraceIds): the end-to-end trace this
  /// message belongs to and the sender-side span that caused it.  0/0 when
  /// tracing is off, so traced and untraced runs stay wire-compatible in
  /// content (the fields are always serialized).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// Wire bytes of a message before its strings: the Fletcher-16 checksum
/// and the fixed fields from `type` to `parent_span`.
inline constexpr std::size_t kMsgFixedBytes = 2 + 34;
/// Largest serialized message.  frame()'s u16 length prefix carries its
/// size, so this also bounds every u16 string prefix inside it.
inline constexpr std::size_t kMaxMsgBytes = 0xFFFF;

/// Exact bytes serialize() writes for a message whose four strings total
/// `string_bytes`.  Input from outside is checked against kMaxMsgBytes
/// with this before it becomes a message.
[[nodiscard]] constexpr std::size_t wire_size(std::size_t string_bytes) noexcept {
  return kMsgFixedBytes + 4 * 2 + string_bytes;
}
[[nodiscard]] inline std::size_t wire_size(const Msg& m) noexcept {
  return wire_size(m.service.size() + m.qos.size() + m.dst.size() + m.comment.size());
}

/// Serialize to wire bytes (no length prefix), one exact-size buffer.
[[nodiscard]] util::Buffer serialize(const Msg& m);
/// Parse wire bytes; protocol_error on malformed input.
[[nodiscard]] util::Result<Msg> parse_msg(util::BytesView wire);

/// Frame a message for a TCP stream: u16 length + body, in one buffer.
[[nodiscard]] util::Buffer frame(const Msg& m);

/// Incremental de-framer for a TCP byte stream.  Feed arbitrary chunks;
/// complete messages come out through the callback.  A malformed body
/// surfaces as protocol_error through the error callback and the framer
/// resynchronizes at the next length boundary.  Whole messages are parsed
/// straight from the chunk; only a partial tail is buffered.
class MsgFramer {
 public:
  using MsgHandler = std::function<void(const Msg&)>;
  using ErrHandler = std::function<void(util::Errc)>;

  explicit MsgFramer(MsgHandler on_msg, ErrHandler on_err = {})
      : on_msg_(std::move(on_msg)), on_err_(std::move(on_err)) {}

  void feed(util::BytesView chunk);

 private:
  MsgHandler on_msg_;
  ErrHandler on_err_;
  util::Buffer pending_;
};

}  // namespace xunet::sig
