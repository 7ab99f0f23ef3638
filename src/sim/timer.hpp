// timer.hpp — restartable one-shot timer over the Simulator.
//
// Used by sighost's wait-for-bind timers (§7.2: "sighost keeps a per-VCI
// timer that is loaded when a VCI is handed to an application") and by the
// TCP model's TIME_WAIT expiry.
#pragma once

#include <utility>

#include "sim/simulator.hpp"

namespace xunet::sim {

/// One-shot timer: a movable handle over the engine's EventId.  Arm it with
/// a delay and callback; cancel or re-arm at will.  Destroying (or
/// assigning over) the timer cancels its pending expiry, so a Timer member
/// can never fire into a destroyed owner.  A timer must not outlive its
/// Simulator.
class Timer {
 public:
  /// An unbound timer; move-assign a bound one before arming it.
  Timer() noexcept = default;
  explicit Timer(Simulator& sim) noexcept : sim_(&sim) {}
  ~Timer() { cancel(); }
  Timer(Timer&& o) noexcept
      : sim_(o.sim_), id_(std::exchange(o.id_, EventId{0})) {}
  Timer& operator=(Timer&& o) noexcept {
    if (this != &o) {
      cancel();
      sim_ = o.sim_;
      id_ = std::exchange(o.id_, EventId{0});
    }
    return *this;
  }

  /// Arm (or re-arm) the timer.  A pending expiry is cancelled first.
  template <typename F>
  void arm(SimDuration delay, F&& on_expiry) {
    cancel();
    id_ = sim_->schedule(delay, std::forward<F>(on_expiry));
  }

  /// Cancel a pending expiry; no-op when idle.
  void cancel() noexcept {
    if (id_ != 0) (void)sim_->cancel(std::exchange(id_, EventId{0}));
  }

  /// True from arm() until the expiry starts running or is cancelled.
  [[nodiscard]] bool armed() const noexcept {
    return id_ != 0 && sim_->scheduled(id_);
  }

 private:
  Simulator* sim_ = nullptr;
  EventId id_ = 0;
};

}  // namespace xunet::sim
