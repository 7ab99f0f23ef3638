// export.hpp — trace/metric serialization.
//
// Two wire formats plus a check of the second:
//
//  * Chrome trace_event JSON ("{"traceEvents":[...]}") — loadable in
//    chrome://tracing or https://ui.perfetto.dev.  Tracks map to Chrome
//    "processes" (one per machine/entity) and components to "threads", so
//    the timeline shows e.g. mh.rt > sighost / kern / orc as stacked rows.
//  * JSONL — one self-describing JSON object per line: a schema header,
//    every trace event, then every metric.  This is the regression-artifact
//    format: identical runs must produce byte-identical JSONL.
//
// All numbers are rendered with integer math (timestamps as "µs.nnn" from
// the nanosecond tick), so output is deterministic across libc/compilers.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/result.hpp"

namespace xunet::obs {

/// Version tag carried in the JSONL schema header.
inline constexpr std::string_view kJsonlSchema = "xunet.obs.v1";

/// Chrome trace_event rendering of the buffer.
[[nodiscard]] std::string to_chrome_trace(const TraceBuffer& buf);

/// JSONL rendering: schema header, trace events, metrics.
[[nodiscard]] std::string to_jsonl(const TraceBuffer& buf,
                                   const MetricsRegistry& metrics);

/// Nanosecond tick rendered as microseconds with exactly three decimals,
/// via integer math only ("12345.678").  The exports and the call-trace
/// waterfall share it.
[[nodiscard]] std::string us_fixed(std::int64_t ns);

/// Deterministic JSON number rendering: exact integers without a fractional
/// part, other finite values as fixed "%.6f" (no locale, no exponent), and
/// NaN/±inf as null.
[[nodiscard]] std::string json_number(double v);

/// Validate a JSONL export: every line passes util::validate_json, the
/// first line is the schema header, and every event line carries the
/// required keys.
[[nodiscard]] util::Result<void> validate_jsonl(std::string_view text);

}  // namespace xunet::obs
