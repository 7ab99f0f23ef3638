// native_stream.hpp — a native-mode transport over PF_XUNET virtual
// circuits: the direction the paper defers to ref [12] ("Semantics of a
// Native-Mode ATM Protocol Stack": the stack "currently implements only a
// UDP-like functionality").
//
// Design follows the native-mode philosophy rather than TCP's:
//   * NO logical multiplexing: one stream per VC pair (a DuplexEnd);
//   * RATE-BASED sending: the pacer transmits at the call's granted QoS
//     bandwidth — the network reserved it, so there is nothing to probe
//     (cf. Zhang & Keshav, ref [18], on rate-based disciplines);
//   * selective repeat: the receiver NACKs exactly the sequence gaps it
//     sees (AAL5 already guarantees loss/misorder *detection*), so one
//     lost frame never stalls the pipe the way Go-Back-N does.
//
// Messages ride the duplex channel's two simplex VCs; each side sends DATA
// on its forward VC and feedback (ACK/NACK) flows back on the reverse VC,
// multiplexed with the peer's DATA.
#pragma once

#include <deque>
#include <map>

#include "core/duplex.hpp"
#include "sim/timer.hpp"

namespace xunet::native {

/// Largest message payload (one AAL frame carries one message).
inline constexpr std::size_t kMaxMsg = 32 * 1024;

/// Tuning knobs.
struct StreamConfig {
  /// Maximum in-flight (unacked) messages before send() reports would_block.
  std::size_t window_msgs = 256;
};

/// One end of a reliable, ordered, rate-paced message stream over a duplex
/// VC pair.  Construct one on each side with the respective DuplexEnd.
class NativeStream {
 public:
  using MessageFn = std::function<void(util::BytesView)>;

  /// `rate_bps` should be the granted QoS bandwidth of the forward call
  /// (parse the DuplexEnd's qos_forward); 0 means unpaced.
  NativeStream(kern::Kernel& k, kern::Pid pid, const core::DuplexEnd& end,
               std::uint64_t rate_bps, StreamConfig cfg = {});
  ~NativeStream();
  NativeStream(const NativeStream&) = delete;
  NativeStream& operator=(const NativeStream&) = delete;

  /// Queue a message for reliable in-order delivery.  would_block when the
  /// send window is full (back-pressure), message_too_long past kMaxMsg.
  util::Result<void> send(util::BytesView msg);

  /// In-order message delivery.
  void on_message(MessageFn fn) { on_message_ = std::move(fn); }

  /// Fires when every queued message has been acknowledged.
  void on_drained(std::function<void()> fn) { on_drained_ = std::move(fn); }

  [[nodiscard]] std::size_t in_flight() const noexcept { return outstanding_.size(); }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }

 private:
  struct Outstanding {
    util::Buffer wire;  ///< full DATA message, ready to resend
    bool nacked = false;
  };

  void pump();                      // pacer: emit queued/nacked frames
  void input(util::BytesView raw);  // demux DATA vs feedback
  void handle_data(std::uint32_t seq, util::BytesView payload);
  void handle_feedback(std::uint32_t cum, const std::vector<std::uint32_t>& nacks);
  void send_feedback();
  void arm_rto();

  kern::Kernel& k_;
  kern::Pid pid_;
  core::DuplexEnd end_;
  StreamConfig cfg_;
  std::uint64_t rate_bps_;

  // Sender state.
  std::uint32_t snd_next_ = 0;      ///< next new sequence number
  std::uint32_t snd_una_ = 0;       ///< oldest unacked
  std::deque<util::Buffer> queue_;  ///< not yet transmitted (awaiting pacer)
  std::map<std::uint32_t, Outstanding> outstanding_;
  sim::SimTime pacer_free_at_{};
  bool pacer_running_ = false;
  sim::Timer rto_timer_;

  // Receiver state.
  std::uint32_t rcv_next_ = 0;
  std::map<std::uint32_t, util::Buffer> ooo_;  ///< out-of-order hold
  sim::Timer ack_timer_;
  bool feedback_dirty_ = false;

  MessageFn on_message_;
  std::function<void()> on_drained_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace xunet::native
