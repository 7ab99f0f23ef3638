// obs.hpp — the per-simulation observability context.
//
// One Observability lives inside each sim::Simulator, bundling the
// TraceBuffer and the MetricsRegistry and carrying its own view of the
// simulated clock, so a component holding only an `Observability*` can
// record correctly-stamped events without a Simulator reference (the
// Hobbit board and Orc driver use exactly that).
//
// The XOBS_* macros are the recording interface for hot paths: when tracing
// is off they evaluate the context pointer and one boolean — no strings are
// built, no arguments evaluated.  Defining XUNET_OBS_DISABLED at compile
// time removes even that branch.
#pragma once

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xunet::obs {

class Observability {
 public:
  /// Wire the simulated clock.  The pointee must outlive this object (the
  /// owning Simulator binds its own clock in its constructor).
  void bind_clock(const sim::SimTime* now) noexcept { now_ = now; }
  [[nodiscard]] sim::SimTime now() const noexcept {
    return now_ != nullptr ? *now_ : sim::SimTime{};
  }

  [[nodiscard]] TraceBuffer& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceBuffer& trace() const noexcept { return trace_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const FlightRecorder& flight() const noexcept { return flight_; }

  /// The one branch hot paths pay when tracing is off.
  [[nodiscard]] bool tracing() const noexcept { return trace_.enabled(); }
  void set_tracing(bool on) {
    if (on && !tracing()) metrics_.sync(MetricsRegistry::Sync::tracing);
    trace_.set_enabled(on);
  }

  // -- clock-stamped recording helpers ------------------------------------
  SpanId begin(const char* component, std::string name, std::string track,
               TraceIds ids = {}) {
    return trace_.begin(now(), component, std::move(name), std::move(track),
                        std::move(ids));
  }
  void end(SpanId span) { trace_.end(now(), span); }
  SpanId complete(sim::SimDuration dur, const char* component,
                  std::string name, std::string track, TraceIds ids = {}) {
    return trace_.complete(now(), dur, component, std::move(name),
                           std::move(track), std::move(ids));
  }
  void instant(const char* component, std::string name, std::string track,
               TraceIds ids = {}) {
    trace_.instant(now(), component, std::move(name), std::move(track),
                   std::move(ids));
  }
  void counter(const char* component, std::string name, std::string track,
               double value) {
    trace_.counter(now(), component, std::move(name), std::move(track), value);
  }
  /// Clock-stamped flight-recorder note.  Unlike tracing this is always on
  /// (the ring is bounded and records are fixed-size, so it stays cheap);
  /// control-plane paths feed it unconditionally for post-mortem dumps.
  void flight_note(std::string_view component, std::string_view name,
                   std::string_view track, std::string_view detail = {},
                   std::int64_t vci = -1) noexcept {
    flight_.note(now(), component, name, track, detail, vci);
  }

 private:
  const sim::SimTime* now_ = nullptr;
  TraceBuffer trace_;
  MetricsRegistry metrics_;
  FlightRecorder flight_;
};

}  // namespace xunet::obs

// -- recording macros -------------------------------------------------------
//
// `o` is an `obs::Observability*` (may be null).  Arguments after the
// context are NOT evaluated unless tracing is on.

#ifndef XUNET_OBS_DISABLED
#define XOBS_TRACING(o) ((o) != nullptr && (o)->tracing())
#define XOBS_INSTANT(o, component, ...)                        \
  do {                                                         \
    if (XOBS_TRACING(o)) (o)->instant(component, __VA_ARGS__); \
  } while (0)
#define XOBS_COMPLETE(o, dur, component, ...)                          \
  do {                                                                 \
    if (XOBS_TRACING(o)) (o)->complete(dur, component, __VA_ARGS__);   \
  } while (0)
#define XOBS_COUNTER(o, component, ...)                        \
  do {                                                         \
    if (XOBS_TRACING(o)) (o)->counter(component, __VA_ARGS__); \
  } while (0)
#define XOBS_BEGIN(o, component, ...) \
  (XOBS_TRACING(o) ? (o)->begin(component, __VA_ARGS__) : xunet::obs::kInvalidSpan)
#define XOBS_END(o, span)               \
  do {                                  \
    if (XOBS_TRACING(o)) (o)->end(span); \
  } while (0)
// Flight-recorder note: NOT gated on tracing (the ring is always on), only
// on the context existing and the recorder being enabled.
#define XOBS_FLIGHT(o, ...)                                              \
  do {                                                                   \
    if ((o) != nullptr && (o)->flight().enabled()) (o)->flight_note(__VA_ARGS__); \
  } while (0)
#else
#define XOBS_TRACING(o) (false)
#define XOBS_INSTANT(o, component, ...) do { } while (0)
#define XOBS_COMPLETE(o, dur, component, ...) do { } while (0)
#define XOBS_COUNTER(o, component, ...) do { } while (0)
#define XOBS_BEGIN(o, component, ...) (xunet::obs::kInvalidSpan)
#define XOBS_END(o, span) do { } while (0)
#define XOBS_FLIGHT(o, ...) do { } while (0)
#endif
