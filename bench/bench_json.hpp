// bench_json.hpp — machine-readable benchmark reports.
//
// Every headline bench writes one BENCH_<name>.json next to its stdout
// report so performance is a recorded trajectory, not a scrollback
// artifact.  The schema is deliberately flat:
//
//   {
//     "schema": "xunet.bench.v1",
//     "bench": "datapath",
//     "metrics": { "<key>": <number>, ... },
//     "info":    { "<key>": "<string>", ... }
//   }
//
// `metrics` holds every measured number; `info` holds provenance strings
// (workload shape, short-mode flag, units notes).  tools/bench_json_check
// validates presence of the schema marker and per-bench required keys, and
// CI runs it on every artifact.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace xunet::bench {

/// True when the XUNET_BENCH_SHORT environment variable asks for the
/// CI-sized workload (seconds, not minutes; same code paths).
inline bool bench_short() {
  const char* v = std::getenv("XUNET_BENCH_SHORT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Accumulates metrics in insertion order and writes the report.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void metric(const std::string& key, double v) {
    metrics_.emplace_back(key, v);
  }
  void info(const std::string& key, const std::string& v) {
    infos_.emplace_back(key, v);
  }

  /// Write BENCH_<bench>.json (or `path` when given).  Returns false on
  /// I/O failure — benches warn but do not abort, so a read-only CWD
  /// never kills a measurement run.
  bool write(const std::string& path = {}) const {
    const std::string file = path.empty() ? "BENCH_" + bench_ + ".json" : path;
    std::FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", file.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"schema\": \"xunet.bench.v1\",\n  \"bench\": \"%s\",\n",
                 util::json_escape(bench_).c_str());
    std::fprintf(f, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %s", i ? "," : "",
                   util::json_escape(metrics_[i].first).c_str(),
                   number(metrics_[i].second).c_str());
    }
    std::fprintf(f, "\n  },\n  \"info\": {");
    for (std::size_t i = 0; i < infos_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": \"%s\"", i ? "," : "",
                   util::json_escape(infos_[i].first).c_str(),
                   util::json_escape(infos_[i].second).c_str());
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", file.c_str());
    return true;
  }

 private:
  /// JSON numbers: integral values print without a fraction so counters
  /// stay exact; other finite values with nine significant digits; NaN and
  /// ±inf as null.  (obs::json_number keeps fixed "%.6f" because chaos
  /// artifacts round-trip through it.)  The range test precedes the int64
  /// cast, which is undefined for non-finite values and |v| >= 2^63.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    if (v >= -0x1p63 && v < 0x1p63 &&
        v == static_cast<double>(static_cast<std::int64_t>(v))) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%" PRId64,
                    static_cast<std::int64_t>(v));
      return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

  std::string bench_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> infos_;
};

}  // namespace xunet::bench
