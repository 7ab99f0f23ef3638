#include "atm/link.hpp"

#include <algorithm>
#include <cassert>

namespace xunet::atm {

namespace {
bool g_per_cell = false;
std::uint64_t g_arm_seq = 0;  ///< orders armings within one instant
}  // namespace

bool delivered_before(const DeliveryOrder& a, const DeliveryOrder& b,
                      sim::SimTime t) noexcept {
  if (a.armed != b.armed) return a.armed < b.armed;
  // Armed at the same instant, once by a send and once by a delivery: the
  // send's event was scheduled before that instant's deliveries ran.
  if (a.chained != b.chained) return !a.chained;
  if (!a.chained) return a.head_seq < b.head_seq;
  // Two chains armed at the same previous instant: equal spacing, so they
  // tie back to the later chain's first cell.  There the later chain was
  // armed at head_armed, the earlier one by its delivery one step before.
  if (a.head_at != b.head_at) {
    const bool a_later = a.head_at > b.head_at;
    const DeliveryOrder& late = a_later ? a : b;
    const sim::SimTime step_before{late.head_at.ns() - (t.ns() - a.armed.ns())};
    const bool late_first = late.head_armed != step_before
                                ? late.head_armed < step_before
                                : true;
    return a_later == late_first;
  }
  if (a.head_armed != b.head_armed) return a.head_armed < b.head_armed;
  return a.head_seq < b.head_seq;
}

void force_per_cell(bool on) noexcept { g_per_cell = on; }
bool per_cell_forced() noexcept { return g_per_cell; }

CellLink::CellLink(sim::Simulator& sim, std::uint64_t rate_bps,
                   sim::SimDuration propagation, CellSink& sink)
    : sim_(sim),
      rate_bps_(rate_bps),
      cell_time_ns_(static_cast<std::int64_t>(kCellBits * 1'000'000'000ull / rate_bps)),
      propagation_(propagation),
      sink_(sink) {
  assert(rate_bps_ > 0);
}

CellLink::~CellLink() {
  if (armed_ != 0) sim_.cancel(armed_);
  if (source_ != nullptr) source_->link_closed();
}

void CellLink::send(const Cell& cell) {
  if (down_) {
    ++cells_dropped_;
    return;
  }
  if (loss_prob_ > 0.0 && rng_ != nullptr && rng_->chance(loss_prob_)) {
    ++cells_dropped_;
    return;
  }
  const bool corrupt =
      corrupt_prob_ > 0.0 && rng_ != nullptr && rng_->chance(corrupt_prob_);
  // Serialization: the cell starts when the transmitter frees up, takes one
  // cell-time on the wire, then propagates.
  push(cell, sim_.now(), std::max(line_free_at_, sim_.now()));
  if (corrupt) {
    // One flipped payload bit; AAL5's CRC-32 catches it at reassembly.
    Cell& c = pending_.back().cell;
    const std::size_t byte = rng_->below(kCellPayload);
    c.payload[byte] ^= static_cast<std::uint8_t>(1u << rng_->below(8));
    ++cells_corrupted_;
  }
  if (armed_ == 0) rearm();
}

void CellLink::send_at(const Cell& cell, sim::SimTime start) {
  assert(start >= line_free_at_);
  push(cell, start, start);
}

void CellLink::push(const Cell& cell, sim::SimTime pushed, sim::SimTime start) {
  const sim::SimTime tx_done = start + cell_time();
  line_free_at_ = tx_done;
  ++cells_sent_;
  TimedCell& p = pending_.push_slot();
  p.at = tx_done + propagation_;
  p.cell = cell;
  // The per-cell path arms this cell's delivery now, on an idle wire, or
  // when the previous cell arrives if that is still to come.
  const bool chained = last_at_ != kNever && last_at_ >= pushed;
  const bool back_to_back = chained && p.at == last_at_ + cell_time();
  chain_.armed = chained ? last_at_ : pushed;
  chain_.chained = chained;
  if (!back_to_back) {
    chain_.head_at = p.at;
    chain_.head_armed = chain_.armed;
    chain_.head_seq = ++g_arm_seq;
  }
  p.order = chain_;
  last_at_ = p.at;
  // Arrival instants are non-decreasing (line_free_at_ and now() are both
  // monotone), so the front of the ring is always the next due cell.
  if (pending_.size() == 1) wake_ = p.at;
}

void CellLink::give_back(const Cell& cell, sim::SimTime at, const DeliveryOrder& order) {
  assert(pending_.empty() || at <= pending_.front().at);
  pending_.push_front(TimedCell{at, order, cell});
  wake_ = at;
}

void CellLink::set_source(CellSource* source) {
  source_ = source;
  rearm();
}

void CellLink::rearm() {
  // The delivery goes where the per-cell path arms it among same-instant
  // events: by the instant its cell's delivery would have been armed.
  sim::SimTime when = kNever;
  sim::SimTime armed = sim_.now();
  if (!pending_.empty()) {
    when = wake_;
    std::size_t i = 0;
    while (i + 1 < pending_.size() && pending_[i].at < wake_) ++i;
    armed = pending_[i].order.armed;
  }
  if (source_ != nullptr) {
    const sim::SimTime start = source_->next_start();
    if (start != kNever && start + cell_time() + propagation_ < when) {
      when = start + cell_time() + propagation_;
      armed = last_at_ != kNever && last_at_ >= start ? last_at_ : start;
    }
  }
  if (armed_ != 0) {
    if (when == armed_for_ && armed == armed_key_) return;
    sim_.cancel(armed_);
    armed_ = 0;
  }
  armed_for_ = when;
  armed_key_ = armed;
  if (when != kNever) armed_ = sim_.schedule_at(when, armed, [this] { deliver(); });
}

void CellLink::deliver() {
  armed_ = 0;
  const sim::SimTime now = sim_.now();
  // Cells whose transmission started before this instant can no longer be
  // recalled by the source; the rest stay with it.
  if (source_ != nullptr) source_->commit(Cut{now, false});
  if (!pending_.empty() && wake_ <= now) {
    ++trains_;
    hand_over(Cut{now, true});
  }
  rearm();
}

void CellLink::deliver_due() { deliver_upto(cut_now(sim_)); }

void CellLink::deliver_now() { deliver_upto(Cut{sim_.now(), true}); }

void CellLink::deliver_upto(const Cut& cut) {
  if (handing_over_ || pending_.empty() || !cut.passed(pending_.front().at)) return;
  hand_over(cut);
  rearm();
}

void CellLink::hand_over(const Cut& due) {
  handing_over_ = true;
  const TrainTake take = sink_.train_arrival(CellTrain(pending_, *this, due));
  handing_over_ = false;
  for (std::size_t i = 0; i < take.taken; ++i) pending_.pop_front();
  if (!pending_.empty()) {
    wake_ = take.wake == kNever ? pending_.front().at
                                : std::max(take.wake, pending_.front().at);
  }
}

std::uint64_t CellLink::cells_sent() const noexcept {
  return cells_sent_ + (source_ != nullptr ? source_->started(cut_now(sim_)) : 0);
}

void CellLink::materialise_source(LinkFault f) {
  if (source_ == nullptr) return;
  ++materialised_[static_cast<std::size_t>(f)];
  source_->materialise_for_fault();
}

void CellLink::set_loss(double p, util::Rng* rng) {
  materialise_source(LinkFault::loss);
  loss_prob_ = p;
  rng_ = rng;
}

void CellLink::set_down(bool down) {
  materialise_source(LinkFault::down);
  down_ = down;
}

void CellLink::set_corrupt(double p, util::Rng* rng) {
  materialise_source(LinkFault::corrupt);
  corrupt_prob_ = p;
  rng_ = rng;
}

}  // namespace xunet::atm
