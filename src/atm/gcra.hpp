// gcra.hpp — the Generic Cell Rate Algorithm (leaky bucket), I.371 /
// ATM Forum TM 4.0, in its virtual-scheduling formulation.
//
// One bucket GCRA(T, tau): a cell arriving at time t_a conforms iff
// t_a >= TAT - tau; a conforming cell advances TAT to max(t_a, TAT) + T.
// Non-conforming cells leave TAT untouched (they are dropped, so they must
// not charge the bucket).
//
// Usage-parameter control at switch ingress runs the dual GCRA of the
// Goyal/Jain traffic-management model: a PCR bucket with the cell-delay
// variation tolerance, and an SCR bucket whose burst tolerance admits MBS
// back-to-back cells at PCR.  All arithmetic is integer nanoseconds on
// simulated time, so policing decisions are bit-exact across runs and
// engines — a requirement for the byte-identical replay pin.
#pragma once

#include <cstdint>

#include "atm/cell.hpp"
#include "atm/qos.hpp"
#include "sim/time.hpp"

namespace xunet::atm {

/// Cell-time in nanoseconds of `rate_bps` (how far TAT advances per cell).
[[nodiscard]] constexpr std::int64_t cell_interval_ns(std::uint64_t rate_bps) noexcept {
  if (rate_bps == 0) return 0;
  return static_cast<std::int64_t>(kCellBits * 1'000'000'000ull / rate_bps);
}

/// One leaky bucket in virtual-scheduling form.
class Gcra {
 public:
  Gcra() = default;
  /// `increment_ns` = T (cell interval of the policed rate);
  /// `limit_ns` = tau (how early a cell may arrive and still conform).
  constexpr Gcra(std::int64_t increment_ns, std::int64_t limit_ns) noexcept
      : t_ns_(increment_ns), tau_ns_(limit_ns) {}

  [[nodiscard]] bool enabled() const noexcept { return t_ns_ > 0; }

  /// Would a cell at `at` conform?  Pure (no state change).
  [[nodiscard]] bool conforms(sim::SimTime at) const noexcept {
    return !enabled() || at.ns() >= tat_ns_ - tau_ns_;
  }

  /// Test-and-charge: returns conformance at `at`, charging the bucket only
  /// when the cell conforms.
  bool police(sim::SimTime at) noexcept {
    if (!enabled()) return true;
    const std::int64_t ta = at.ns();
    if (ta < tat_ns_ - tau_ns_) return false;
    tat_ns_ = (ta > tat_ns_ ? ta : tat_ns_) + t_ns_;
    return true;
  }

  [[nodiscard]] std::int64_t increment_ns() const noexcept { return t_ns_; }
  [[nodiscard]] std::int64_t limit_ns() const noexcept { return tau_ns_; }
  /// The theoretical arrival time (testing / introspection).
  [[nodiscard]] std::int64_t tat_ns() const noexcept { return tat_ns_; }

 private:
  std::int64_t t_ns_ = 0;    ///< T: increment per conforming cell; 0 = off
  std::int64_t tau_ns_ = 0;  ///< tau: conformance limit
  std::int64_t tat_ns_ = 0;  ///< theoretical arrival time
};

/// Dual leaky bucket from a traffic contract: GCRA(1/PCR, CDVT) and
/// GCRA(1/SCR, BT + CDVT) with the standard burst tolerance
/// BT = (MBS - 1) * (1/SCR - 1/PCR).  A cell conforms only when BOTH
/// buckets accept it; a cell rejected by either charges neither.
class DualGcra {
 public:
  /// Default cell-delay variation tolerance: one DS3 cell time, enough for
  /// the jitter a single multiplexing stage introduces.
  static constexpr std::int64_t kDefaultCdvtNs = 10'000;

  DualGcra() = default;
  explicit DualGcra(const Qos& q, std::int64_t cdvt_ns = kDefaultCdvtNs) noexcept {
    const std::int64_t t_pcr = cell_interval_ns(q.pcr_bps);
    if (t_pcr > 0) pcr_ = Gcra(t_pcr, cdvt_ns);
    const std::int64_t t_scr = cell_interval_ns(q.scr_bps);
    if (t_scr > 0) {
      std::int64_t bt = 0;
      if (q.mbs_cells > 1 && t_scr > t_pcr) {
        bt = static_cast<std::int64_t>(q.mbs_cells - 1) * (t_scr - t_pcr);
      }
      scr_ = Gcra(t_scr, bt + cdvt_ns);
    }
  }

  [[nodiscard]] bool enabled() const noexcept {
    return pcr_.enabled() || scr_.enabled();
  }

  /// Test-and-charge both buckets atomically.
  bool police(sim::SimTime at) noexcept {
    if (!pcr_.conforms(at) || !scr_.conforms(at)) return false;
    (void)pcr_.police(at);
    (void)scr_.police(at);
    return true;
  }

 private:
  Gcra pcr_;
  Gcra scr_;
};

}  // namespace xunet::atm
