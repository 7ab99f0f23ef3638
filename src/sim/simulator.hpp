// simulator.hpp — the discrete-event engine every substrate runs on.
//
// A Simulator owns a time-ordered event queue.  Components schedule
// callbacks at future instants; run() dispatches them in (time, insertion)
// order, so simulations are fully deterministic.
//
// Events live in a chunked pool of small-buffer-optimized records (captures
// up to 48 bytes never touch the allocator).  Pending events, and only
// those, are references into that pool kept in one indexed 4-ary min-heap,
// ordered by (time, scheduling instant, schedule sequence), which is
// exactly the classic (time, insertion) order; schedule_at() with an
// explicit scheduling instant lets a lazily evaluated model keep the order
// of a step-by-step one.  The key is a strict total order, so the dispatch
// sequence does not depend on how the heap is laid out.
//
// Cancellation is exact and generation-stamped.  An EventId packs a pool
// record index with the record's generation, which is odd while the event
// is pending and bumped when it is cancelled or starts running.  cancel()
// destroys the callable, frees the record and takes its reference out of
// the heap at once, in O(log n): a side array keeps each pending record's
// heap position.  Byte-identical replay is pinned by golden digests in
// tests/determinism_test.cpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/time.hpp"

namespace xunet::sim {

/// Handle for a scheduled event; used to cancel timers.  The high half is
/// the record's generation (odd, so a valid id is never 0), the low half
/// the pool record index.
using EventId = std::uint64_t;

/// Discrete-event simulator: event queue + clock + observability context.
class Simulator {
 public:
  Simulator();
  /// Destroys the callables of pending events without running them,
  /// latest-due first.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` from now.  Zero delay is allowed and runs
  /// after all already-queued events at the current instant.  Negative
  /// delays (e.g. from an underflowed SimTime subtraction) are clamped to
  /// "now" instead of corrupting the queue.
  template <typename F>
  EventId schedule(SimDuration delay, F&& fn) {
    if (delay.ns() < 0) delay = SimDuration{0};
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Largest callable stored in its event record.
  static constexpr std::size_t kSboBytes = 48;
  /// True when a callable of type F is stored in its event record, with no
  /// heap allocation of its own.  A record never moves, so the callable is
  /// built and destroyed in place and need not be movable without throwing.
  template <typename F>
  static constexpr bool stored_inline =
      sizeof(std::decay_t<F>) <= kSboBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  /// Schedule at an absolute instant (must not be in the past).
  template <typename F>
  EventId schedule_at(SimTime when, F&& fn) {
    return schedule_at(when, now_, std::forward<F>(fn));
  }

  /// Schedule at `when` as though scheduled at instant `armed` rather than
  /// now: among the events due at `when`, it runs after those scheduled
  /// before `armed` and before those scheduled after it.  A model that
  /// evaluates lazily (the cell fast path) uses this to keep the order a
  /// step-by-step evaluation would have produced.
  template <typename F>
  EventId schedule_at(SimTime when, SimTime armed, F&& fn) {
    assert(when >= now_);
    std::uint32_t idx = alloc_rec();
    bind(rec(idx), std::forward<F>(fn));
    return insert_ref(when, armed, idx);
  }

  /// Cancel a scheduled event: destroy its callable and take it out of the
  /// queue now.  Returns true only if the event was still pending: false
  /// once it has started running, fired, or been cancelled.
  bool cancel(EventId id);

  /// True while `id` is pending: the same generation test cancel() makes,
  /// so false once the event has started running, fired, or been
  /// cancelled, and for a stale id whose pool record was reused.
  [[nodiscard]] bool scheduled(EventId id) const noexcept;

  /// Run events until the queue empties.  Returns the number of events
  /// dispatched.
  std::size_t run();

  /// Run events with timestamp <= deadline; the clock ends at `deadline`
  /// even if the queue empties earlier.  Returns the number dispatched.
  std::size_t run_until(SimTime deadline);

  /// Advance by `d` from the current time (convenience over run_until).
  std::size_t run_for(SimDuration d) { return run_until(now_ + d); }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// True while an event's callback runs; false between events (inside
  /// run() and run_until() loops, or outside them), when everything due at
  /// now() has already run.
  [[nodiscard]] bool dispatching() const noexcept { return dispatching_; }

  /// High-water mark of pending() over the simulator's lifetime.
  [[nodiscard]] std::size_t peak_pending() const noexcept { return peak_pending_; }

  /// The per-simulation observability context (trace buffer + metrics),
  /// clock-bound to this simulator.  Tracing is off by default.
  [[nodiscard]] obs::Observability& obs() noexcept { return obs_; }
  [[nodiscard]] const obs::Observability& obs() const noexcept { return obs_; }

 private:
  static constexpr std::uint32_t kChunkShift = 9;  ///< 512 records per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::size_t kArity = 4;  ///< children per heap node

  /// Type-erased event record.  Callables whose capture fits kSboBytes are
  /// stored inline; larger ones spill to a single heap allocation whose
  /// pointer is kept in the inline buffer.
  struct EventRec {
    using Thunk = void (*)(EventRec&, bool run);
    Thunk thunk = nullptr;
    std::uint32_t gen = 0;  ///< odd while pending, even once retired
    alignas(std::max_align_t) unsigned char sbo[kSboBytes];
  };

  /// Queue handle: (when, order) is the dispatch key, rec indexes the
  /// pool, and gen is the generation the event was queued under (only
  /// ~Simulator's walk needs it).  `order` packs the scheduling instant,
  /// as the lead time when - armed (high bits, inverted so earlier arming
  /// sorts first), over the schedule sequence (low kSeqBits).  Lead times
  /// saturate at about 16.7 ms; past that only ordinary events remain,
  /// whose arming order is their sequence order anyway.  So ordinary
  /// events order exactly as (when, seq), for the first 2^40 events a
  /// Simulator schedules.
  struct Ref {
    std::int64_t when;
    std::uint64_t order;
    std::uint32_t rec;
    std::uint32_t gen;
  };
  static constexpr unsigned kSeqBits = 40;
  static constexpr std::uint64_t kMaxLead = (std::uint64_t{1} << (64 - kSeqBits)) - 1;
  static bool earlier(const Ref& a, const Ref& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.order < b.order;
  }

  template <typename F>
  static void bind(EventRec& r, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (stored_inline<Fn>) {
      ::new (static_cast<void*>(r.sbo)) Fn(std::forward<F>(fn));
      r.thunk = [](EventRec& rr, bool run) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(rr.sbo));
        if (run) (*f)();
        f->~Fn();
      };
    } else {
      ::new (static_cast<void*>(r.sbo)) Fn*(new Fn(std::forward<F>(fn)));
      r.thunk = [](EventRec& rr, bool run) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(rr.sbo));
        if (run) (*f)();
        delete f;
      };
    }
  }

  [[nodiscard]] EventRec& rec(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  std::uint32_t alloc_rec();
  void free_rec(std::uint32_t idx) { free_list_.push_back(idx); }
  EventId insert_ref(SimTime when, SimTime armed, std::uint32_t idx);
  /// Put `r` in heap slot `i` and record where it went.
  void place(std::size_t i, const Ref& r) noexcept {
    queue_[i] = r;
    pos_[r.rec] = static_cast<std::uint32_t>(i);
  }
  /// Settle `r` into the hole at slot `i`, moving toward the root or the
  /// leaves.
  void sift_up(std::size_t i, const Ref& r) noexcept;
  void sift_down(std::size_t i, const Ref& r) noexcept;
  /// Remove the entry at slot `i`: the last entry fills the hole.
  void erase_at(std::size_t i) noexcept;
  void dispatch_front();

  SimTime now_{};
  bool dispatching_ = false;
  bool scrapping_ = false;  ///< ~Simulator is walking moved-out queue copies
  std::uint64_t next_seq_ = 0;
  std::size_t peak_pending_ = 0;

  std::vector<std::unique_ptr<EventRec[]>> chunks_;
  std::vector<std::uint32_t> free_list_;
  std::vector<Ref> queue_;  ///< 4-ary min-heap under earlier(), pending events only
  std::vector<std::uint32_t> pos_;  ///< heap slot of each pending pool record

  obs::Observability obs_;
};

}  // namespace xunet::sim
