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
  // finds its victim still pending.  The walk is over a moved-out copy of
  // the queue: a cancel() from a destructor retires its event without
  // touching the heap (the generation check below skips it), and a
  // schedule() from a destructor lands in the emptied queue, walked next.
  // The generation is bumped first, so a destructor that re-enters cancel()
  // for its own event gets false.
  scrapping_ = true;
  while (!queue_.empty()) {
    std::vector<Ref> doomed = std::move(queue_);
    queue_.clear();
    std::sort(doomed.begin(), doomed.end(),
              [](const Ref& a, const Ref& b) { return earlier(b, a); });
    for (const Ref& r : doomed) {
      EventRec& rc = rec(r.rec);
      if (rc.gen != r.gen) continue;
      ++rc.gen;
      rc.thunk(rc, /*run=*/false);
    }
  }
}

std::uint32_t Simulator::alloc_rec() {
  if (free_list_.empty()) {
    std::uint32_t base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<EventRec[]>(kChunkSize));
    pos_.resize(pos_.size() + kChunkSize);
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
  queue_.emplace_back();
  sift_up(queue_.size() - 1, Ref{when.ns(), order, idx, gen});
  peak_pending_ = std::max(peak_pending_, queue_.size());
  return (EventId{gen} << 32) | idx;
}

void Simulator::sift_up(std::size_t i, const Ref& r) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(r, queue_[parent])) break;
    place(i, queue_[parent]);
    i = parent;
  }
  place(i, r);
}

void Simulator::sift_down(std::size_t i, const Ref& r) noexcept {
  const std::size_t n = queue_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(queue_[c], queue_[best])) best = c;
    }
    if (!earlier(queue_[best], r)) break;
    place(i, queue_[best]);
    i = best;
  }
  place(i, r);
}

void Simulator::erase_at(std::size_t i) noexcept {
  const Ref last = queue_.back();
  queue_.pop_back();
  if (i == queue_.size()) return;
  if (i > 0 && earlier(last, queue_[(i - 1) / kArity])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void Simulator::dispatch_front() {
  const Ref r = queue_.front();
  erase_at(0);
  EventRec& rc = rec(r.rec);
  assert(rc.gen == r.gen);
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
  if (!scrapping_) erase_at(pos_[idx]);
  EventRec& rc = rec(idx);
  // Retire before destroying: the callable's destructor may re-enter.
  ++rc.gen;
  rc.thunk(rc, /*run=*/false);
  free_rec(idx);
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  for (; !queue_.empty(); ++n) dispatch_front();
  return n;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  for (; !queue_.empty() && queue_.front().when <= deadline.ns(); ++n) dispatch_front();
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace xunet::sim
