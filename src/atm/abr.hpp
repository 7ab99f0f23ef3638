// abr.hpp — the ABR rate-feedback loop (ATM Forum TM 4.0, after the
// Goyal/Jain traffic-management model).
//
// An ABR source paces its cells at an allowed cell rate (ACR) and inserts a
// forward resource-management cell every Nrm cells.  Switches on the path
// reduce the RM cell's explicit rate to their fair share and set the
// congestion bit when their queues fill (AtmSwitch::stamp_rm); the
// destination turns the cell around onto the reverse VC (AbrTurnaround);
// the source adapts on each backward RM cell:
//
//   CI set    →  ACR -= ACR >> rdf_shift        (multiplicative decrease)
//   CI clear  →  ACR += PCR >> rif_shift        (additive increase)
//   always    →  MCR <= ACR <= min(PCR, ER)
//
// All arithmetic is integer on simulated time, so the control loop is
// bit-exact across runs and engines.
#pragma once

#include <cstdint>

#include "atm/cell.hpp"
#include "atm/gcra.hpp"
#include "atm/link.hpp"
#include "sim/simulator.hpp"
#include "util/ring.hpp"

namespace xunet::atm {

/// Source parameters of an ABR connection (TM 4.0 names; the shifts encode
/// the standard's RIF/RDF power-of-two factors).
struct AbrParams {
  std::uint64_t pcr_bps = 0;  ///< peak cell rate: ACR ceiling
  std::uint64_t mcr_bps = 0;  ///< minimum cell rate: ACR floor (may be 0)
  std::uint64_t icr_bps = 0;  ///< initial cell rate; 0 = start at PCR/16
  std::uint32_t nrm = 32;     ///< cells per forward RM cell
  unsigned rif_shift = 4;     ///< increase: ACR += PCR >> rif_shift
  unsigned rdf_shift = 4;     ///< decrease: ACR -= ACR >> rdf_shift
};

/// Rate floor when MCR is zero: the loop must keep probing, so ACR never
/// reaches zero (a stopped source would never send RM cells and never
/// recover).
inline constexpr std::uint64_t kAbrFloorBps = 64'000;

/// The source end of an ABR connection: buffers submitted cells and clocks
/// them onto the uplink at ACR, inserting forward RM cells.  The caller feeds
/// backward RM cells to on_backward_rm (the host interface drops RM cells).
class AbrSource {
 public:
  AbrSource(sim::Simulator& sim, CellLink& uplink, Vci vci, AbrParams params);

  /// Queue one data cell for rate-paced transmission.
  void submit(const Cell& cell);

  /// Feedback: a backward RM cell for this VC arrived at the source.
  void on_backward_rm(const Cell& rm);

  [[nodiscard]] std::uint64_t acr_bps() const noexcept { return acr_bps_; }
  [[nodiscard]] std::uint64_t cells_sent() const noexcept { return cells_sent_; }
  [[nodiscard]] std::uint64_t rm_sent() const noexcept { return rm_sent_; }
  [[nodiscard]] std::uint64_t rm_received() const noexcept { return rm_received_; }
  [[nodiscard]] std::size_t backlog() const noexcept { return q_.size(); }

 private:
  void pump();
  void arm();
  [[nodiscard]] std::uint64_t floor_bps() const noexcept;

  sim::Simulator& sim_;
  CellLink& uplink_;
  Vci vci_;
  AbrParams params_;
  std::uint64_t acr_bps_;
  util::RingQueue<Cell> q_;
  std::uint32_t since_rm_;  ///< cells sent since the last forward RM
  bool armed_ = false;
  std::uint64_t cells_sent_ = 0;
  std::uint64_t rm_sent_ = 0;
  std::uint64_t rm_received_ = 0;
};

/// The destination end: turns forward RM cells around onto the reverse VC,
/// preserving the explicit rate and congestion bit the switches stamped.
class AbrTurnaround {
 public:
  AbrTurnaround(CellLink& return_uplink, Vci return_vci) noexcept
      : uplink_(return_uplink), return_vci_(return_vci) {}

  /// Feed forward RM cells here (backward ones are ignored — they belong
  /// to the other direction's loop).
  void on_rm(const Cell& fwd);

  [[nodiscard]] std::uint64_t turned_around() const noexcept { return turned_; }

 private:
  CellLink& uplink_;
  Vci return_vci_;
  std::uint64_t turned_ = 0;
};

}  // namespace xunet::atm
