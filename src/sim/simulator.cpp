#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>

namespace xunet::sim {

std::string to_string(SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3fms", t.ms());
  return buf;
}

std::string to_string(SimDuration d) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3fms", d.ms());
  return buf;
}

Simulator::Simulator() { obs_.bind_clock(&now_); }

Simulator::~Simulator() {
  // Destroy the callables of still-pending events without running them,
  // latest-due first, so a far event whose destructor cancels a nearer one
  // finds its victim still pending.  The generation is bumped first, so a
  // destructor that re-enters cancel() for its own event gets false; no
  // purge may reshuffle the queue under this walk.
  scrapping_ = true;
  std::sort_heap(queue_.begin(), queue_.end(), RefLater{});
  for (const Ref& r : queue_) {
    EventRec& rc = rec(r.rec);
    if (rc.gen != r.gen) continue;
    ++rc.gen;
    rc.thunk(rc, /*run=*/false);
  }
}

std::uint32_t Simulator::alloc_rec() {
  if (free_list_.empty()) {
    std::uint32_t base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<EventRec[]>(kChunkSize));
    free_list_.reserve(free_list_.capacity() + kChunkSize);
    // Hand out low indices first so early events stay in warm chunks.
    for (std::uint32_t i = kChunkSize; i-- > 0;) free_list_.push_back(base + i);
  }
  std::uint32_t idx = free_list_.back();
  free_list_.pop_back();
  return idx;
}

EventId Simulator::insert_ref(SimTime when, SimTime armed, std::uint32_t idx) {
  const std::uint32_t gen = ++rec(idx).gen;  // even (free) -> odd (pending)
  const auto lead = static_cast<std::uint64_t>(std::max<std::int64_t>(0, when.ns() - armed.ns()));
  const std::uint64_t order = ((kMaxLead - std::min(lead, kMaxLead)) << kSeqBits) |
                              (next_seq_++ & ((std::uint64_t{1} << kSeqBits) - 1));
  queue_.push_back(Ref{when.ns(), order, idx, gen});
  std::push_heap(queue_.begin(), queue_.end(), RefLater{});
  peak_pending_ = std::max(peak_pending_, pending());
  return (EventId{gen} << 32) | idx;
}

Simulator::Ref Simulator::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), RefLater{});
  Ref r = queue_.back();
  queue_.pop_back();
  return r;
}

void Simulator::dispatch_ref(const Ref& r) {
  EventRec& rc = rec(r.rec);
  if (rc.gen != r.gen) {  // cancelled: callable already destroyed
    --stale_;
    return;
  }
  ++rc.gen;  // running: cancel() of this id now returns false
  now_ = SimTime(r.when);
  const bool outer = dispatching_;
  dispatching_ = true;
  rc.thunk(rc, /*run=*/true);
  dispatching_ = outer;
  free_rec(r.rec);
}

bool Simulator::scheduled(EventId id) const noexcept {
  const auto idx = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  return (gen & 1u) != 0 && idx < chunks_.size() * kChunkSize &&
         chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)].gen == gen;
}

bool Simulator::cancel(EventId id) {
  if (!scheduled(id)) return false;
  const auto idx = static_cast<std::uint32_t>(id);
  EventRec& rc = rec(idx);
  // Retire before destroying: the callable's destructor may re-enter.
  ++rc.gen;
  ++stale_;
  rc.thunk(rc, /*run=*/false);
  free_rec(idx);
  if (stale_ > kPurgeFloor && stale_ * 2 > queue_.size() && !scrapping_) purge_stale();
  return true;
}

void Simulator::purge_stale() {
  [[maybe_unused]] const std::size_t dropped =
      std::erase_if(queue_, [this](const Ref& r) { return rec(r.rec).gen != r.gen; });
  assert(dropped == stale_);
  std::make_heap(queue_.begin(), queue_.end(), RefLater{});
  stale_ = 0;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (!queue_.empty()) {
    dispatch_ref(pop());
    ++n;
  }
  return n;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.front().when <= deadline.ns()) {
    dispatch_ref(pop());
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace xunet::sim
