// link.hpp — full-duplex point-to-point IP links (Ethernet/FDDI models).
//
// The paper's hosts reach their router over "reliable FDDI links"; the MTU
// and rate here are the knobs that distinguish FDDI from Ethernet.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"

namespace xunet::ip {

class IpNode;

/// Anything a route can point at: a physical link, or a virtual interface
/// such as IP-over-ATM (§1: Xunet carried IP over its PVCs).
class IpEgress {
 public:
  virtual ~IpEgress() = default;
  /// Transmit a serialized IP packet originated/forwarded by `from`.
  virtual void transmit(const IpNode& from, util::Buffer wire) = 0;
  /// Largest IP packet this egress carries without fragmentation.
  [[nodiscard]] virtual std::size_t mtu() const = 0;
};

/// Canonical link parameter sets.
inline constexpr std::uint64_t kFddiBps = 100'000'000;
inline constexpr std::size_t kFddiMtu = 4352;
inline constexpr std::uint64_t kEthernetBps = 10'000'000;
inline constexpr std::size_t kEthernetMtu = 1500;

/// Point-to-point duplex link between two IpNodes.  Each direction
/// serializes frames at the line rate and applies propagation delay.
class IpLink : public IpEgress {
 public:
  IpLink(sim::Simulator& sim, std::uint64_t rate_bps,
         sim::SimDuration propagation, std::size_t mtu);

  /// Attach both ends.  Must be called exactly once; registers this link as
  /// an interface on both nodes.
  void attach(IpNode& a, IpNode& b);

  /// Transmit a serialized IP packet from `from` (must be an attached end).
  void transmit(const IpNode& from, util::Buffer wire) override;

  /// Independent per-frame loss with probability `p` (rng must outlive us).
  void set_loss(double p, util::Rng* rng) noexcept {
    loss_prob_ = p;
    rng_ = rng;
  }

  /// Fail (or restore) the link: while down, every frame in either
  /// direction is dropped — an unplugged FDDI ring, for flap experiments.
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// With probability `p`, delay a frame by up to `max_extra` beyond its
  /// normal arrival, letting later frames overtake it (reordering).
  void set_reorder(double p, sim::SimDuration max_extra,
                   util::Rng* rng) noexcept {
    reorder_prob_ = p;
    reorder_extra_ = max_extra;
    rng_ = rng;
  }

  /// With probability `p`, flip one payload byte in transit (models the
  /// rare undetected link error the encapsulation checksum extension
  /// guards against; the IP *header* checksum still protects the header).
  void set_corrupt(double p, util::Rng* rng) noexcept {
    corrupt_prob_ = p;
    rng_ = rng;
  }

  [[nodiscard]] std::size_t mtu() const noexcept override { return mtu_; }
  [[nodiscard]] std::uint64_t rate_bps() const noexcept { return rate_bps_; }
  [[nodiscard]] sim::SimDuration propagation() const noexcept { return propagation_; }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept { return frames_dropped_; }
  [[nodiscard]] std::uint64_t frames_reordered() const noexcept { return frames_reordered_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return frames_corrupted_; }

 private:
  struct Direction {
    IpNode* dst = nullptr;
    sim::SimTime line_free_at{};
  };

  sim::Simulator& sim_;
  std::uint64_t rate_bps_;
  sim::SimDuration propagation_;
  std::size_t mtu_;
  IpNode* a_ = nullptr;
  IpNode* b_ = nullptr;
  Direction to_a_;
  Direction to_b_;
  bool down_ = false;
  double loss_prob_ = 0.0;
  double reorder_prob_ = 0.0;
  sim::SimDuration reorder_extra_{};
  double corrupt_prob_ = 0.0;
  util::Rng* rng_ = nullptr;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_reordered_ = 0;
  std::uint64_t frames_corrupted_ = 0;
};

}  // namespace xunet::ip
