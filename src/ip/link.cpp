#include "ip/link.hpp"

#include <algorithm>
#include <cassert>

#include "ip/node.hpp"

namespace xunet::ip {

IpLink::IpLink(sim::Simulator& sim, std::uint64_t rate_bps,
               sim::SimDuration propagation, std::size_t mtu)
    : sim_(sim), rate_bps_(rate_bps), propagation_(propagation), mtu_(mtu) {
  assert(rate_bps_ > 0 && mtu_ > 0);
}

void IpLink::attach(IpNode& a, IpNode& b) {
  assert(a_ == nullptr && b_ == nullptr);
  a_ = &a;
  b_ = &b;
  to_a_.dst = &a;
  to_b_.dst = &b;
  a.register_interface(*this);
  b.register_interface(*this);
}

void IpLink::transmit(const IpNode& from, util::Buffer wire) {
  assert(&from == a_ || &from == b_);
  Direction& dir = (&from == a_) ? to_b_ : to_a_;
  if (down_) {
    ++frames_dropped_;
    return;
  }
  if (loss_prob_ > 0.0 && rng_ != nullptr && rng_->chance(loss_prob_)) {
    ++frames_dropped_;
    return;
  }
  const auto bits = static_cast<std::uint64_t>(wire.size()) * 8;
  const auto tx_time = sim::nanoseconds(
      static_cast<std::int64_t>(bits * 1'000'000'000ull / rate_bps_));
  const sim::SimTime start = std::max(dir.line_free_at, sim_.now());
  const sim::SimTime done = start + tx_time;
  dir.line_free_at = done;
  ++frames_sent_;
  if (corrupt_prob_ > 0.0 && rng_ != nullptr && rng_->chance(corrupt_prob_) &&
      !wire.empty()) {
    // Flip one bit somewhere in the frame (header corruption is caught by
    // the IP header checksum; payload corruption is the interesting case).
    wire[rng_->below(wire.size())] ^= static_cast<std::uint8_t>(
        1u << rng_->below(8));
    ++frames_corrupted_;
  }
  sim::SimTime arrival = done + propagation_;
  if (reorder_prob_ > 0.0 && rng_ != nullptr && rng_->chance(reorder_prob_)) {
    arrival = arrival + sim::nanoseconds(static_cast<std::int64_t>(
                            rng_->below(static_cast<std::uint64_t>(
                                std::max<std::int64_t>(1, reorder_extra_.ns())))));
    ++frames_reordered_;
  }
  sim_.schedule_at(arrival, [dst = dir.dst, wire = std::move(wire)] {
    dst->frame_arrival(wire);
  });
}

}  // namespace xunet::ip
