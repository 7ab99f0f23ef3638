// simulator.hpp — the discrete-event engine every substrate runs on.
//
// A Simulator owns a time-ordered event queue.  Components schedule
// callbacks at future instants; run() dispatches them in (time, insertion)
// order, so simulations are fully deterministic.
//
// Events live in a chunked pool of small-buffer-optimized records (captures
// up to 48 bytes never touch the allocator).  Pending events are references
// into that pool kept in one binary min-heap, ordered by (time, scheduling
// instant, schedule sequence), which is exactly the classic (time,
// insertion) order; schedule_at() with an explicit scheduling instant lets
// a lazily evaluated model keep the order of a step-by-step one.
//
// Cancellation is generation-stamped.  An EventId packs a pool record index
// with the record's generation, which is odd while the event is pending and
// bumped when it is cancelled or starts running.  cancel() destroys the
// callable and frees the record at once; the queued reference goes stale
// and dispatch skips it after comparing one integer.  Stale references
// are also swept out in bulk once they outnumber the live ones (and a
// floor), so cancelled far timers do not sit in the queue until their
// original deadline.  Byte-identical replay is pinned by golden digests in
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
  /// heap allocation of its own.
  template <typename F>
  static constexpr bool stored_inline =
      sizeof(std::decay_t<F>) <= kSboBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

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

  /// Cancel a scheduled event and destroy its callable now.  Returns true
  /// only if the event was still pending: false once it has started
  /// running, fired, or been cancelled.
  bool cancel(EventId id);

  /// True while `id` is pending: the same generation test cancel() makes,
  /// so false once the event has started running, fired, or been
  /// cancelled, and for a stale id whose pool record was reused.
  [[nodiscard]] bool scheduled(EventId id) const noexcept;

  /// Run events until the queue empties.  Returns the number of queue
  /// entries popped: every dispatched event, plus the cancelled ones a
  /// purge had not already swept out of the queue.
  std::size_t run();

  /// Run events with timestamp <= deadline; the clock ends at `deadline`
  /// even if the queue empties earlier.  Returns the number popped.
  std::size_t run_until(SimTime deadline);

  /// Advance by `d` from the current time (convenience over run_until).
  std::size_t run_for(SimDuration d) { return run_until(now_ + d); }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size() - stale_; }

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
  /// Stale references tolerated before a purge, whatever the queue size.
  static constexpr std::size_t kPurgeFloor = 4096;

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
  /// pool, and gen tells a live reference from one whose event was
  /// cancelled.  `order` packs the scheduling instant, as the lead time
  /// when - armed (high bits, inverted so earlier arming sorts first), over
  /// the schedule sequence (low kSeqBits).  Lead times saturate at about
  /// 16.7 ms; past that only ordinary events remain, whose arming order is
  /// their sequence order anyway.  So ordinary events order exactly as
  /// (when, seq), for the first 2^40 events a Simulator schedules.
  struct Ref {
    std::int64_t when;
    std::uint64_t order;
    std::uint32_t rec;
    std::uint32_t gen;
  };
  static constexpr unsigned kSeqBits = 40;
  static constexpr std::uint64_t kMaxLead = (std::uint64_t{1} << (64 - kSeqBits)) - 1;
  struct RefLater {
    bool operator()(const Ref& a, const Ref& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };

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
  Ref pop();
  void dispatch_ref(const Ref& r);
  /// Drop every stale reference from the queue.  Amortised O(1) per
  /// cancel(): it runs only once stale references make up half the queue.
  void purge_stale();

  SimTime now_{};
  bool dispatching_ = false;
  bool scrapping_ = false;  ///< ~Simulator is walking the queue
  std::uint64_t next_seq_ = 0;
  std::size_t peak_pending_ = 0;

  std::vector<std::unique_ptr<EventRec[]>> chunks_;
  std::vector<std::uint32_t> free_list_;
  std::vector<Ref> queue_;  ///< min-heap under RefLater, stale refs included
  std::size_t stale_ = 0;  ///< queued refs whose event was cancelled

  obs::Observability obs_;
};

}  // namespace xunet::sim
