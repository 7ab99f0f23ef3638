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
  // Destroy the callables of still-pending events without running them.
  // The generation is bumped first, so a destructor that re-enters
  // cancel() for its own event gets false; no purge may reshuffle the
  // queue under this walk.
  scrapping_ = true;
  auto scrap = [this](const Ref& r) {
    EventRec& rc = rec(r.rec);
    if (rc.gen != r.gen) return;
    ++rc.gen;
    rc.thunk(rc, /*run=*/false);
  };
  for (const Ref& r : active_) scrap(r);
  for (const Ref& r : overflow_) scrap(r);
  for (auto& slot : ring_)
    for (const Ref& r : slot) scrap(r);
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
  Ref r{when.ns(), order, idx, gen};
  std::int64_t slot = r.when >> kGranShift;
  if (slot <= active_slot_) {
    active_.push_back(r);
    std::push_heap(active_.begin(), active_.end(), RefLater{});
  } else if (slot - active_slot_ < static_cast<std::int64_t>(kSlots)) {
    std::size_t ri = static_cast<std::size_t>(slot) & kSlotMask;
    ring_[ri].push_back(r);
    set_occ(ri);
    ++ring_count_;
  } else {
    overflow_.push_back(r);
    std::push_heap(overflow_.begin(), overflow_.end(), RefLater{});
  }
  ++size_;
  peak_pending_ = std::max(peak_pending_, pending());
  return (EventId{gen} << 32) | idx;
}

void Simulator::activate_slot(std::int64_t abs_slot) {
  active_slot_ = abs_slot;
  std::size_t ri = static_cast<std::size_t>(abs_slot) & kSlotMask;
  std::vector<Ref>& bucket = ring_[ri];
  ring_count_ -= bucket.size();
  for (const Ref& r : bucket) active_.push_back(r);
  bucket.clear();  // keeps capacity: steady state never re-allocates
  clear_occ(ri);
  std::make_heap(active_.begin(), active_.end(), RefLater{});
  // The window start moved forward; far events may now fit in the ring.
  drain_overflow();
}

void Simulator::drain_overflow() {
  while (!overflow_.empty()) {
    std::int64_t slot = overflow_.front().when >> kGranShift;
    if (slot - active_slot_ >= static_cast<std::int64_t>(kSlots)) break;
    std::pop_heap(overflow_.begin(), overflow_.end(), RefLater{});
    Ref r = overflow_.back();
    overflow_.pop_back();
    if (slot == active_slot_) {
      active_.push_back(r);
      std::push_heap(active_.begin(), active_.end(), RefLater{});
    } else {
      std::size_t ri = static_cast<std::size_t>(slot) & kSlotMask;
      ring_[ri].push_back(r);
      set_occ(ri);
      ++ring_count_;
    }
  }
}

bool Simulator::refill(std::int64_t limit) {
  if (!active_.empty()) return true;
  while (true) {
    if (ring_count_ > 0) {
      // Scan the occupancy bitmap in ring order starting just past the
      // active slot; the first set bit is the earliest occupied slot
      // because every ring entry lies within the 1024-slot window.
      std::size_t start = (static_cast<std::size_t>(active_slot_) + 1) & kSlotMask;
      for (std::size_t step = 0; step < kSlots;) {
        std::size_t ri = (start + step) & kSlotMask;
        std::size_t word = ri >> 6;
        std::uint64_t bits = occ_[word] >> (ri & 63);
        if (bits != 0) {
          std::size_t ri_hit = ri + static_cast<std::size_t>(std::countr_zero(bits));
          if (ri_hit < (word + 1) << 6) {  // hit stays within this word
            std::size_t delta = (ri_hit - start) & kSlotMask;
            const std::int64_t hit = active_slot_ + 1 + static_cast<std::int64_t>(delta);
            if (hit > limit) return false;
            activate_slot(hit);
            return true;
          }
        }
        // Advance to the next 64-bit word boundary (or wrap point).
        std::size_t word_end = (word + 1) << 6;
        step += word_end - ri;
      }
      // ring_count_ > 0 guarantees a hit; unreachable.
      return false;
    }
    if (overflow_.empty()) return false;
    // Ring empty: jump the window to the earliest far event and re-split.
    const std::int64_t far = overflow_.front().when >> kGranShift;
    if (far > limit) return false;
    active_slot_ = far;
    drain_overflow();
    if (!active_.empty()) return true;
    // drain_overflow may have landed everything in later ring slots.
  }
}

Simulator::Ref Simulator::pop_active() {
  std::pop_heap(active_.begin(), active_.end(), RefLater{});
  Ref r = active_.back();
  active_.pop_back();
  --size_;
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
  if (stale_ > kPurgeFloor && stale_ * 2 > size_ && !scrapping_) purge_stale();
  return true;
}

void Simulator::purge_stale() {
  auto stale = [this](const Ref& r) { return rec(r.rec).gen != r.gen; };
  std::size_t dropped = std::erase_if(active_, stale);
  std::make_heap(active_.begin(), active_.end(), RefLater{});
  dropped += std::erase_if(overflow_, stale);
  std::make_heap(overflow_.begin(), overflow_.end(), RefLater{});
  for (std::size_t ri = 0; ri < kSlots; ++ri) {
    std::vector<Ref>& bucket = ring_[ri];
    if (bucket.empty()) continue;
    const std::size_t n = std::erase_if(bucket, stale);
    ring_count_ -= n;
    dropped += n;
    if (bucket.empty()) clear_occ(ri);
  }
  assert(dropped == stale_);
  size_ -= dropped;
  stale_ = 0;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (refill(kNoLimit)) {
    dispatch_ref(pop_active());
    ++n;
  }
  return n;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (refill(deadline.ns() >> kGranShift) && active_.front().when <= deadline.ns()) {
    dispatch_ref(pop_active());
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace xunet::sim
