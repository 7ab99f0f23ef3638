// bench_json_check — CI gate for machine-readable trajectory files
// (BENCH_*.json benchmark reports, LINT_findings.json lint reports,
// MODEL_findings.json model-checker reports, and the JSONL artifacts:
// flight-recorder dumps, health alert streams, and chaos-harness repro
// schedules).
//
// Usage: bench_json_check FILE...
//
// For each file: verify it is strict JSON (util::validate_json — one
// object, or for JSONL schemas one object per line), carries a known
// schema marker ("xunet.bench.v1", "xunet.lint.v1", "xunet.model.v1",
// "xunet.trace.v1", "xunet.health.v1" or "xunet.chaos.v1"), and contains
// every key required for its profile.
// Exit 0 only when every file passes; a missing file is a failure (the
// tool silently not writing its report is exactly the regression this
// gate exists to catch).
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace {

using Keys = std::vector<std::string>;
using xunet::util::json_field;

std::string slurp(const char* path, bool& ok) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    ok = false;
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  ok = true;
  return out;
}

/// Strict JSON whose top-level value is an object.
bool json_object(std::string_view s) {
  const std::size_t first = s.find_first_not_of(" \t\r\n");
  return first != std::string_view::npos && s[first] == '{' &&
         xunet::util::validate_json(s).ok();
}

/// Report every key of `keys` missing from `s`; true when none is.
bool require(const char* path, const std::string& what, std::string_view s,
             const Keys& keys) {
  bool ok = true;
  for (const std::string& key : keys) {
    if (!json_field(s, key)) {
      std::fprintf(stderr, "FAIL %s: %s missing required key %s\n", path,
                   what.c_str(), key.c_str());
      ok = false;
    }
  }
  return ok;
}

const std::map<std::string, Keys>& bench_keys() {
  static const std::map<std::string, Keys> keys = {
      {"datapath",
       {"baseline_cells_per_sec", "cells_per_sec_wall", "speedup",
        "peak_event_queue_depth", "allocs_per_cell",
        "tcp_segment_round_trip_ns", "sim_dispatch_ns_per_event"}},
      {"signaling",
       {"calls_per_sec_wall", "setup_ms_p50", "setup_ms_p90", "setup_ms_p99"}},
      {"scaling", {"open_connections_held"}},
      {"call_load",
       {"live_vcs_peak", "wall_us_per_call_lo", "wall_us_per_call_hi",
        "sublinear_ratio", "setup_us_p50_hi"}},
      {"qos",
       {"cbr_reserved_mbps", "cbr_goodput_mbps", "cbr_goodput_fraction",
        "policed_cells", "ubr_shed_cells"}},
      {"code_size",
       {"src_lines", "src_code_lines", "bench_lines", "tools_lines",
        "net_lines"}},
  };
  return keys;
}

/// A JSONL schema: a header object on line 1 carrying the schema marker,
/// then one record object per line.  When `rec_field` is set, each record
/// names its type in that field and `records` holds one key profile per
/// type; otherwise every record uses the profile under "".
struct JsonlProfile {
  const char* schema;
  const char* kind;
  Keys header;
  std::map<std::string, Keys> records;
  const char* rec_field = nullptr;
};

const std::vector<JsonlProfile>& jsonl_profiles() {
  static const std::vector<JsonlProfile> profiles = {
      {"xunet.trace.v1", "flight-recorder dump",
       {"schema", "reason", "records", "overwritten"},
       {{"", {"seq", "ts_ns", "comp", "name", "track"}}}},
      {"xunet.health.v1", "health alert stream",
       {"schema", "rules", "alerts", "ticks"},
       {{"", {"ts_ns", "rule", "metric", "value", "state"}}}},
      {"xunet.chaos.v1", "chaos repro",
       {"schema", "seed", "routers", "calls", "events", "violations"},
       {{"event", {"kind", "at_ns", "duration_ns", "node"}},
        {"violation", {"rule", "detail"}},
        {"result", {"opened", "delivered", "failed", "unresolved"}},
        {"post_mortem", {"trace"}}},
       "rec"},
  };
  return profiles;
}

bool check_jsonl(const char* path, const std::string& s,
                 const JsonlProfile& p) {
  bool ok = true;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t eol = s.find('\n', pos);
    if (eol == std::string::npos) eol = s.size();
    const std::string_view line = std::string_view(s).substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    ++line_no;
    if (!json_object(line)) {
      std::fprintf(stderr, "FAIL %s: line %zu is not a strict JSON object\n",
                   path, line_no);
      return false;
    }
    const std::string where =
        std::string(p.kind) + " line " + std::to_string(line_no);
    if (line_no == 1) {
      ok &= require(path, where, line, p.header);
      continue;
    }
    const std::string rec =
        p.rec_field
            ? json_field(line, p.rec_field, /*string_only=*/true).value_or("")
            : "";
    auto it = p.records.find(rec);
    if (it == p.records.end()) {
      std::fprintf(stderr, "FAIL %s: %s has unknown or missing %s \"%s\"\n",
                   path, where.c_str(), p.rec_field, rec.c_str());
      ok = false;
      continue;
    }
    ok &= require(path, where, line, it->second);
  }
  if (line_no == 0) {
    std::fprintf(stderr, "FAIL %s: empty %s document\n", path, p.kind);
    return false;
  }
  if (ok) {
    std::printf("OK   %s (%s, %zu lines, %s)\n", path, p.kind, line_no,
                p.schema);
  }
  return ok;
}

bool check_file(const char* path) {
  bool read_ok = false;
  const std::string s = slurp(path, read_ok);
  if (!read_ok) {
    std::fprintf(stderr, "FAIL %s: cannot read\n", path);
    return false;
  }
  // JSONL schemas first: their marker must be on the header line, and the
  // document is validated line-by-line rather than as one object.
  const std::string_view first_line =
      std::string_view(s).substr(0, s.find('\n'));
  for (const JsonlProfile& p : jsonl_profiles()) {
    const std::string marker = "\"" + std::string(p.schema) + "\"";
    if (first_line.find(marker) != std::string_view::npos) {
      return check_jsonl(path, s, p);
    }
  }
  if (!json_object(s)) {
    std::fprintf(stderr, "FAIL %s: not a strict JSON object\n", path);
    return false;
  }
  if (s.find("\"xunet.model.v1\"") != std::string::npos) {
    // Model-checker report from tools/xunet_model --json.
    const bool ok = require(path, "model report", s,
                            {"tool", "states", "edges", "sighost_declared",
                             "sighost_reached", "kern_declared", "kern_reached",
                             "ok", "findings", "notes"});
    if (ok) std::printf("OK   %s (model report)\n", path);
    return ok;
  }
  if (s.find("\"xunet.lint.v1\"") != std::string::npos) {
    // Static-analysis report from tools/xunet_lint --json.
    const bool ok = require(path, "lint report", s,
                            {"tool", "files_scanned", "total", "unsuppressed",
                             "findings"});
    if (ok) std::printf("OK   %s (lint report)\n", path);
    return ok;
  }
  if (s.find("\"xunet.bench.v1\"") == std::string::npos) {
    std::fprintf(stderr,
                 "FAIL %s: missing schema marker (xunet.bench.v1, "
                 "xunet.lint.v1, xunet.model.v1, xunet.trace.v1, "
                 "xunet.health.v1 or xunet.chaos.v1)\n",
                 path);
    return false;
  }
  // Only a string names the bench: "bench": 7, null or true is as good as
  // no name, not an unknown one.
  const std::string name = json_field(s, "bench", /*string_only=*/true)
                               .value_or("");
  if (name.empty()) {
    std::fprintf(stderr, "FAIL %s: missing \"bench\" name\n", path);
    return false;
  }
  auto it = bench_keys().find(name);
  if (it == bench_keys().end()) {
    // Unknown bench names are allowed (new reports predate their checks)
    // as long as the envelope is valid.
    std::printf("OK   %s (bench \"%s\", no key profile)\n", path,
                name.c_str());
    return true;
  }
  const bool ok = require(path, "bench \"" + name + "\"", s, it->second);
  if (ok) std::printf("OK   %s (bench \"%s\")\n", path, name.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_json_check FILE...\n");
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) all_ok &= check_file(argv[i]);
  return all_ok ? 0 : 1;
}
