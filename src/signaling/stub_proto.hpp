// stub_proto.hpp — the private protocol of the anand client/server stubs.
//
// §7.2: "sighost sends a message to anand server which either does a write
// on the router's pseudo-device, or passes it on to anand client which then
// does a write on the host's /dev/anand" — and upward, the stubs "simply
// block on select(), and when unblocked, pass the message on to sighost".
// The stub messages are fixed-size records over TCP.
#pragma once

#include <functional>

#include "ip/addr.hpp"
#include "kern/anand.hpp"
#include "util/buffer.hpp"

namespace xunet::sig {

/// Fixed-size stub message.
struct StubMsg {
  enum class Type : std::uint8_t {
    hello_sighost = 1,  ///< conn opener identifies as the sighost
    hello_client,       ///< conn opener identifies as an anand client (host)
    up_indication,      ///< relayed kernel indication (+ origin IP)
    down_disconnect,    ///< disconnect the socket bound to vci (at target IP)
  };
  Type type = Type::up_indication;
  kern::AnandUpType up_type = kern::AnandUpType::process_terminated;
  std::uint16_t vci = 0;
  std::uint16_t cookie = 0;
  /// up: origin machine; down: target machine.  0 = the router itself.
  ip::IpAddress machine{};
};

/// Wire size of a StubMsg.
inline constexpr std::size_t kStubMsgBytes = 10;

[[nodiscard]] util::Buffer serialize(const StubMsg& m);

/// Fixed-size de-framer: feed stream chunks, get whole messages.  Whole
/// messages are read straight from the chunk; only a partial tail is
/// buffered.
class StubFramer {
 public:
  using Handler = std::function<void(const StubMsg&)>;
  explicit StubFramer(Handler h) : on_msg_(std::move(h)) {}
  void feed(util::BytesView chunk);

 private:
  Handler on_msg_;
  util::Buffer pending_;
};

/// Well-known ports of the signaling plane.  Sighost shard s listens on
/// kSighostPort + s, so the anand server sits below the base port rather
/// than on the old 178 (which shard 1 would collide with).
inline constexpr std::uint16_t kSighostPort = 177;
inline constexpr std::uint16_t kAnandServerPort = 170;

}  // namespace xunet::sig
