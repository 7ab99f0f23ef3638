#include "native/native_stream.hpp"

namespace xunet::native {

using util::Errc;

namespace {
constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kFeedback = 2;
/// Feedback cadence: the receiver acks at least this often.
constexpr sim::SimDuration kAckInterval = sim::milliseconds(20);
/// Retransmission safety net when feedback itself is lost.
constexpr sim::SimDuration kRto = sim::milliseconds(200);
}  // namespace

NativeStream::NativeStream(kern::Kernel& k, kern::Pid pid,
                           const core::DuplexEnd& end, std::uint64_t rate_bps,
                           StreamConfig cfg)
    : k_(k),
      pid_(pid),
      end_(end),
      cfg_(cfg),
      rate_bps_(rate_bps),
      rto_timer_(k.simulator()),
      ack_timer_(k.simulator()) {
  (void)k_.xunet_on_receive(pid_, end_.recv_fd,
                            [this](util::BytesView raw) { input(raw); });
}

NativeStream::~NativeStream() = default;

util::Result<void> NativeStream::send(util::BytesView msg) {
  if (msg.size() > kMaxMsg) return Errc::message_too_long;
  if (outstanding_.size() + queue_.size() >= cfg_.window_msgs) {
    return Errc::would_block;  // back-pressure, not loss
  }
  util::Writer w;
  w.u8(kData);
  w.u32(snd_next_++);
  w.bytes(msg);
  queue_.push_back(w.take());
  pump();
  return {};
}

void NativeStream::pump() {
  if (pacer_running_) return;
  // Find work: a NACKed retransmission takes priority over new data.
  util::Buffer* wire = nullptr;
  std::uint32_t resend_seq = 0;
  for (auto& [seq, o] : outstanding_) {
    if (o.nacked) {
      wire = &o.wire;
      resend_seq = seq;
      break;
    }
  }
  bool is_retransmit = wire != nullptr;
  if (!is_retransmit) {
    if (queue_.empty()) return;
    wire = &queue_.front();
  }

  // Pace: one message per (bits / rate) at the granted QoS bandwidth.
  sim::SimTime now = k_.simulator().now();
  if (pacer_free_at_ < now) pacer_free_at_ = now;
  sim::SimDuration gap{};
  if (rate_bps_ > 0) {
    gap = sim::nanoseconds(static_cast<std::int64_t>(
        wire->size() * 8ull * 1'000'000'000ull / rate_bps_));
  }
  pacer_running_ = true;
  k_.simulator().schedule_at(
      pacer_free_at_, [this, is_retransmit, resend_seq] {
        pacer_running_ = false;
        if (is_retransmit) {
          auto it = outstanding_.find(resend_seq);
          if (it != outstanding_.end() && it->second.nacked) {
            it->second.nacked = false;
            ++retransmits_;
            (void)k_.xunet_send(pid_, end_.send_fd, it->second.wire);
          }
        } else if (!queue_.empty()) {
          util::Buffer wire2 = std::move(queue_.front());
          queue_.pop_front();
          util::Reader r(wire2);
          (void)r.u8();
          std::uint32_t seq = r.u32().value_or(0);
          (void)k_.xunet_send(pid_, end_.send_fd, wire2);
          outstanding_.emplace(seq, Outstanding{std::move(wire2), false});
          ++sent_;
        }
        arm_rto();
        pump();
      });
  pacer_free_at_ = pacer_free_at_ + gap;
}

void NativeStream::arm_rto() {
  if (outstanding_.empty()) {
    rto_timer_.cancel();
    return;
  }
  rto_timer_.arm(kRto, [this] {
    // Feedback lost or the frame itself vanished: mark everything unacked
    // for retransmission (selective repeat still resends one at a time).
    for (auto& [seq, o] : outstanding_) o.nacked = true;
    pump();
    arm_rto();
  });
}

void NativeStream::input(util::BytesView raw) {
  util::Reader r(raw);
  auto type = r.u8();
  if (!type) return;
  if (*type == kData) {
    auto seq = r.u32();
    if (!seq) return;
    handle_data(*seq, r.rest());
  } else if (*type == kFeedback) {
    auto cum = r.u32();
    auto n = r.u16();
    if (!cum || !n) return;
    std::vector<std::uint32_t> nacks;
    nacks.reserve(*n);
    for (std::uint16_t i = 0; i < *n; ++i) {
      auto s = r.u32();
      if (!s) return;
      nacks.push_back(*s);
    }
    handle_feedback(*cum, nacks);
  }
}

void NativeStream::handle_data(std::uint32_t seq, util::BytesView payload) {
  if (seq < rcv_next_) {
    // Duplicate (a retransmission that crossed our ack): re-ack promptly.
    feedback_dirty_ = true;
  } else if (seq == rcv_next_) {
    ++rcv_next_;
    ++delivered_;
    if (on_message_) on_message_(payload);
    // Drain any buffered successors.
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->first == rcv_next_) {
      ++rcv_next_;
      ++delivered_;
      if (on_message_) on_message_(it->second);
      it = ooo_.erase(it);
    }
    feedback_dirty_ = true;
  } else {
    ooo_.emplace(seq, util::to_buffer(payload));
    // A gap: tell the sender immediately which frames are missing.
    send_feedback();
    return;
  }
  if (!ack_timer_.armed()) {
    ack_timer_.arm(kAckInterval, [this] {
      if (feedback_dirty_) send_feedback();
    });
  }
}

void NativeStream::send_feedback() {
  feedback_dirty_ = false;
  util::Writer w;
  w.u8(kFeedback);
  w.u32(rcv_next_);
  // NACK every hole below the highest out-of-order frame we hold.
  std::vector<std::uint32_t> nacks;
  std::uint32_t expect = rcv_next_;
  for (const auto& [seq, buf] : ooo_) {
    for (std::uint32_t s = expect; s < seq && nacks.size() < 512; ++s) {
      nacks.push_back(s);
    }
    expect = seq + 1;
  }
  w.u16(static_cast<std::uint16_t>(nacks.size()));
  for (std::uint32_t s : nacks) w.u32(s);
  ++acks_sent_;
  (void)k_.xunet_send(pid_, end_.send_fd, w.view());
}

void NativeStream::handle_feedback(std::uint32_t cum,
                                   const std::vector<std::uint32_t>& nacks) {
  bool was_busy = !outstanding_.empty() || !queue_.empty();
  // Cumulative ack: everything below `cum` is done.
  while (!outstanding_.empty() && outstanding_.begin()->first < cum) {
    outstanding_.erase(outstanding_.begin());
  }
  snd_una_ = std::max(snd_una_, cum);
  for (std::uint32_t s : nacks) {
    if (auto it = outstanding_.find(s); it != outstanding_.end()) {
      it->second.nacked = true;
    }
  }
  arm_rto();
  pump();
  if (was_busy && outstanding_.empty() && queue_.empty() && on_drained_) {
    on_drained_();
  }
}

}  // namespace xunet::native
