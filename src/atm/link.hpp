// link.hpp — unidirectional ATM links with rate and propagation delay.
//
// Xunet II long-distance transmission ran over DS3 (45 Mb/s) and optically
// amplified 622 Mb/s lines; both are just parameter choices here.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "atm/cell.hpp"
#include "sim/simulator.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"

namespace xunet::atm {

class CellLink;

/// Where a cell's arrival falls among other arrivals at the same instant.
/// Cells of different links can reach a switch at the same nanosecond; the
/// per-cell path then handles them in the order their delivery events were
/// armed.  A delivery is armed when the cell is sent onto an idle wire, or,
/// while the previous cell is still on the wire, by that cell's delivery
/// (the cells form a chain).  Chains of back-to-back cells on equal-rate
/// links tie at every step back to where the later chain began, so that
/// is where their order is decided.
struct DeliveryOrder {
  sim::SimTime armed;       ///< when this cell's delivery is armed
  sim::SimTime head_at;     ///< arrival of the first cell of its chain
  sim::SimTime head_armed;  ///< when that first cell's delivery is armed
  /// Order of that arming among its instant's; 0 for a cell handed
  /// straight to a sink, which has no place in the order.
  std::uint64_t head_seq : 63 = 0;
  std::uint64_t chained : 1 = 0;  ///< armed by the previous cell's delivery
};
/// True when the per-cell path delivers `a` before `b`, two cells of
/// different links arriving at the same instant `t`.
[[nodiscard]] bool delivered_before(const DeliveryOrder& a, const DeliveryOrder& b,
                                    sim::SimTime t) noexcept;

/// A cell on the wire and the instant it reaches the far end of its link.
struct TimedCell {
  sim::SimTime at;
  DeliveryOrder order;
  Cell cell;
};

/// "Never": no cell, no wakeup.
inline constexpr sim::SimTime kNever{std::numeric_limits<std::int64_t>::max()};

/// Where a materialisation cuts simulated time.  Events before `t` have
/// happened.  Events at `t` have happened only when `inclusive`: that holds
/// between events, once the engine has run everything due at `t`.  Inside
/// an event the cut is exclusive, so a trigger at `t` comes before any cell
/// due at `t`.
struct Cut {
  sim::SimTime t;
  bool inclusive = false;
  [[nodiscard]] bool passed(sim::SimTime x) const noexcept {
    return x < t || (inclusive && x == t);
  }
};
[[nodiscard]] inline Cut cut_now(const sim::Simulator& s) noexcept {
  return Cut{s.now(), !s.dispatching()};
}

/// The cells a link holds, handed to its sink in one event: every queued
/// cell with its exact arrival instant, in order, read straight from the
/// link's ring.  Cells for which `due` has passed have arrived; the rest
/// are still on the wire.  The view stays valid while the sink calls out,
/// as long as nothing sends into this same link.
class CellTrain {
 public:
  CellTrain(const util::RingQueue<TimedCell>& ring, CellLink& link, Cut due) noexcept
      : ring_(ring), link_(link), due_(due) {}
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] const TimedCell& operator[](std::size_t i) const noexcept { return ring_[i]; }
  [[nodiscard]] bool due(std::size_t i) const noexcept { return due_.passed(ring_[i].at); }
  [[nodiscard]] CellLink& link() const noexcept { return link_; }

 private:
  const util::RingQueue<TimedCell>& ring_;
  CellLink& link_;
  Cut due_;
};

/// What a sink did with a train: it took the first `taken` cells.  The
/// link keeps the rest and calls again at `wake`, or at the first kept
/// cell's instant when `wake` is kNever.
struct TrainTake {
  std::size_t taken = 0;
  sim::SimTime wake = kNever;
};

/// Receives cells from a link.  Implemented by switch ports and host
/// interfaces.
class CellSink {
 public:
  virtual ~CellSink() = default;
  virtual void cell_arrival(const Cell& cell) = 0;
  /// Cells that arrived together; the default unbundles to cell_arrival.
  virtual void cells_arrival(const Cell* cells, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) cell_arrival(cells[i]);
  }
  /// The link's queued cells.  The default takes the cells that are due
  /// and hands each to cells_arrival, so a plain sink sees every cell at
  /// its exact instant.  Sinks on the fast path take cells still on the
  /// wire as well.
  virtual TrainTake train_arrival(const CellTrain& train) {
    std::size_t n = 0;
    for (; n < train.size() && train.due(n); ++n) cells_arrival(&train[n].cell, 1);
    return {n, kNever};
  }
};

/// The switch output port feeding a link while it runs a train in closed
/// form.  It holds the cells whose transmission it has computed but not
/// yet committed; the link pulls them as their instants pass.
class CellSource {
 public:
  /// Send into the link, with send_at(), every held cell whose
  /// transmission starts before `cut`.
  virtual void commit(const Cut& cut) = 0;
  /// Transmission start of the first held cell; kNever when none.
  [[nodiscard]] virtual sim::SimTime next_start() const noexcept = 0;
  /// Held cells whose transmission starts before `cut`.
  [[nodiscard]] virtual std::uint64_t started(const Cut& cut) const noexcept = 0;
  /// A fault setter is about to change how the link treats new cells:
  /// commit what has started and return the rest to the per-cell path.
  virtual void materialise_for_fault() = 0;
  /// The link is being destroyed.
  virtual void link_closed() = 0;

 protected:
  ~CellSource() = default;
};

/// Which fault setter materialised a link's source.
enum class LinkFault : std::uint8_t { down = 0, loss = 1, corrupt = 2 };
inline constexpr std::size_t kLinkFaultCount = 3;

/// Canonical Xunet line rates.
inline constexpr std::uint64_t kDs3Bps = 45'000'000;
inline constexpr std::uint64_t kOc12Bps = 622'000'000;

/// Unidirectional cell pipe.  Models serialization (cells queue behind one
/// another at the line rate) plus fixed propagation delay.  Optional random
/// cell loss supports the AAL5 loss-detection experiments.
///
/// In-flight cells live in a ring ordered by arrival instant, each with its
/// exact instant.  One armed simulator event hands the sink the whole ring
/// as a CellTrain; the sink takes a prefix and says when to call again.  A
/// plain sink takes one cell per event; a switch port running a train in
/// closed form takes the whole run, and a Hobbit board takes a frame per
/// event.  A link fed by such a port (its CellSource) pulls the port's
/// cells in as their transmission starts.
class CellLink {
 public:
  /// `sink` must outlive the link.
  CellLink(sim::Simulator& sim, std::uint64_t rate_bps,
           sim::SimDuration propagation, CellSink& sink);
  ~CellLink();
  CellLink(const CellLink&) = delete;
  CellLink& operator=(const CellLink&) = delete;

  /// Enqueue a cell for transmission now.
  void send(const Cell& cell);

  /// Enqueue a cell whose transmission starts at `start` (not before the
  /// line frees up).  The source commits cells this way; loss, corruption
  /// and a down line never apply, because a source only holds cells while
  /// none of them is set.
  void send_at(const Cell& cell, sim::SimTime start);

  /// Put back a cell the sink took but that has not arrived yet.  Cells
  /// come back in reverse order, each ahead of the ring's front.
  void give_back(const Cell& cell, sim::SimTime at, const DeliveryOrder& order);

  /// Hand the sink every cell that has arrived by now ahead of its next
  /// train: a sink about to change state those cells depend on.
  void deliver_due();
  /// Hand the sink the cells arriving at or before this instant now, ahead
  /// of this instant's other events; a no-op while a train is being handed
  /// over.  A switch uses it to take same-instant arrivals over different
  /// links in per-cell order.
  void deliver_now();
  /// The next cell to arrive; null when none is on the wire.
  [[nodiscard]] const TimedCell* front() const noexcept {
    return pending_.empty() ? nullptr : &pending_.front();
  }

  /// Attach (or, with nullptr, detach) the port feeding this link in
  /// closed form, and re-arm for its next cell.
  void set_source(CellSource* source);
  /// Re-arm the delivery event after the source's held cells changed.
  void rearm();

  /// Drop each cell independently with probability `p` using `rng`
  /// (which must outlive the link).  p=0 disables loss.
  void set_loss(double p, util::Rng* rng);

  /// Fail (or restore) the link: while down, every cell is dropped —
  /// a fibre cut between switches.
  void set_down(bool down);
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// Flip one payload bit in each cell independently with probability `p`
  /// (rng must outlive the link).  The AAL5 CRC-32 at the reassembling
  /// endpoint detects the damage and discards the whole frame.
  void set_corrupt(double p, util::Rng* rng);

  /// No loss, corruption or outage is set: what a source needs to hold
  /// cells for this link.
  [[nodiscard]] bool clean() const noexcept {
    return !down_ && loss_prob_ <= 0.0 && corrupt_prob_ <= 0.0;
  }

  [[nodiscard]] std::uint64_t rate_bps() const noexcept { return rate_bps_; }
  [[nodiscard]] sim::SimDuration propagation() const noexcept { return propagation_; }
  /// Cells whose transmission has started, including a source's held cells.
  [[nodiscard]] std::uint64_t cells_sent() const noexcept;
  [[nodiscard]] std::uint64_t cells_dropped() const noexcept { return cells_dropped_; }
  [[nodiscard]] std::uint64_t cells_corrupted() const noexcept { return cells_corrupted_; }
  /// Delivery events: how many trains this link handed its sink.
  [[nodiscard]] std::uint64_t trains() const noexcept { return trains_; }
  /// Times `f`'s setter materialised this link's source.
  [[nodiscard]] std::uint64_t materialisations(LinkFault f) const noexcept {
    return materialised_[static_cast<std::size_t>(f)];
  }
  /// When the transmitter finishes what it has been given.
  [[nodiscard]] sim::SimTime line_free_at() const noexcept { return line_free_at_; }

  /// Serialization time of one cell at this link's rate.
  [[nodiscard]] sim::SimDuration cell_time() const noexcept {
    return sim::nanoseconds(cell_time_ns_);
  }

 private:
  void push(const Cell& cell, sim::SimTime pushed, sim::SimTime start);
  void deliver();
  void hand_over(const Cut& due);
  void deliver_upto(const Cut& cut);
  void materialise_source(LinkFault f);

  sim::Simulator& sim_;
  std::uint64_t rate_bps_;
  std::int64_t cell_time_ns_;  ///< cached kCellBits/rate, avoids a div per cell
  sim::SimDuration propagation_;
  CellSink& sink_;
  CellSource* source_ = nullptr;
  sim::SimTime line_free_at_{};  ///< when the transmitter finishes its queue
  util::RingQueue<TimedCell> pending_;  ///< in-flight cells, arrival order
  /// The last cell pushed and the chain it belongs to (DeliveryOrder).
  sim::SimTime last_at_ = kNever;
  DeliveryOrder chain_;
  sim::SimTime wake_ = kNever;   ///< when the sink wants the ring next
  sim::EventId armed_ = 0;       ///< the one outstanding delivery event
  sim::SimTime armed_for_ = kNever;
  sim::SimTime armed_key_{};  ///< the instant armed_ is ordered as armed at
  bool down_ = false;
  bool handing_over_ = false;
  double loss_prob_ = 0.0;
  double corrupt_prob_ = 0.0;
  util::Rng* rng_ = nullptr;
  std::uint64_t cells_sent_ = 0;
  std::uint64_t cells_dropped_ = 0;
  std::uint64_t cells_corrupted_ = 0;
  std::uint64_t trains_ = 0;
  std::array<std::uint64_t, kLinkFaultCount> materialised_{};
};

/// TEST SEAM: make every switch port and Hobbit board take only the cells
/// that are due, one event per cell per stage, as before exact trains.
/// The differential test compares this against the fast path.
void force_per_cell(bool on) noexcept;
[[nodiscard]] bool per_cell_forced() noexcept;

}  // namespace xunet::atm
