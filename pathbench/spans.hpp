// spans.hpp — in-memory wall-clock spans around the benchmark's calls into
// the simulator.
//
// Every span is opened by the benchmark itself (never inside src/): around
// testbed construction, bring-up, one UserLib open, one xunet_send, one
// close, one Simulator::run_for chunk, and around the benchmark's own
// callbacks that run inside run_for.  A span's parent is whatever span was
// open when it began, so callbacks nest under the run_for that dispatched
// them.  Self time (duration minus the time covered by child spans) is
// accumulated per span name as spans close; a bounded prefix of raw records
// is kept for writing out as JSONL.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pathbench {

enum class SpanName : std::uint8_t {
  build,       ///< TestbedConfig::build_deferred
  bring_up,    ///< Testbed::bring_up
  serve,       ///< receiver registration (UserLib::export_service) until ready
  open,        ///< CallClient::open (UserLib::open_connection)
  xunet_send,  ///< Kernel::xunet_send
  close_call,  ///< CallClient::close_call (Kernel::close)
  run_for,     ///< Simulator::run_for
  cb_opened,   ///< benchmark callback: a call's open completed
  cb_frame,    ///< benchmark callback: a frame reached the receiver
  cb_send,     ///< benchmark callback: a scheduled frame send fired
  cb_issue,    ///< benchmark callback: a scheduled call issue fired
  count_,
};
inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::count_);

[[nodiscard]] const char* span_label(SpanName n) noexcept;

/// Wall-clock nanoseconds on a monotonic clock.
[[nodiscard]] std::int64_t wall_ns() noexcept;
/// CPU nanoseconds (user + system) used by the calling thread.  The
/// benchmark is single-threaded, so this is its wall time minus the time
/// the host gave to something else.
[[nodiscard]] std::int64_t cpu_ns() noexcept;

class Tracer {
 public:
  struct Totals {
    std::array<std::int64_t, kSpanNames> self_ns{};
    std::array<std::int64_t, kSpanNames> total_ns{};
    std::array<std::uint64_t, kSpanNames> count{};
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Operation (call or frame index) new spans are attributed to.
  void set_op(std::uint32_t op) noexcept { op_ = op; }
  /// Retain raw records until `cap` of them are held.
  void keep_records(std::size_t cap) { records_.reserve(cap); cap_ = cap; }

  void begin(SpanName n);
  void end();

  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }
  void reset_totals() noexcept { totals_ = Totals{}; }

  /// Write the retained records, one JSON object per line.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Record {
    SpanName name;
    std::int32_t parent;  ///< record index of the parent, -1 at the root
    std::uint32_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Open {
    SpanName name;
    std::int32_t record;  ///< -1 when not retained
    std::uint32_t op;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::size_t cap_ = 0;
  Totals totals_;
};

/// The process-wide tracer the workloads record into.
[[nodiscard]] Tracer& tracer() noexcept;

/// RAII span on the process tracer; free when tracing is off.
class Scope {
 public:
  explicit Scope(SpanName n) : on_(tracer().enabled()) {
    if (on_) tracer().begin(n);
  }
  ~Scope() {
    if (on_) tracer().end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
};

}  // namespace pathbench
