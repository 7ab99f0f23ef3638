// bench_json_check — CI gate for machine-readable trajectory files
// (BENCH_*.json benchmark reports, LINT_findings.json lint reports,
// MODEL_findings.json model-checker reports, and the JSONL artifacts:
// flight-recorder dumps, health alert streams, and chaos-harness repro
// schedules).
//
// Usage: bench_json_check FILE...
//
// For each file: verify it is well-formed enough to trust (single JSON
// object — or, for JSONL schemas, one object per line — balanced
// structure, no truncation), carries a known schema marker
// ("xunet.bench.v1", "xunet.lint.v1", "xunet.model.v1",
// "xunet.trace.v1", "xunet.health.v1" or "xunet.chaos.v1"), and
// contains every key required for its profile.
// Exit 0 only when every file passes; a missing file is a failure (the
// tool silently not writing its report is exactly the regression this
// gate exists to catch).
#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace {

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

/// Structural check: one top-level object, braces/brackets balanced,
/// strings closed, nothing after the final brace but whitespace.
bool well_formed(const std::string& s, std::string& why) {
  std::size_t i = 0;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  if (i == s.size() || s[i] != '{') {
    why = "does not start with '{'";
    return false;
  }
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  std::size_t end = std::string::npos;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      if (depth < 0) {
        why = "unbalanced close at byte " + std::to_string(i);
        return false;
      }
      if (depth == 0) {
        end = i;
        break;
      }
    }
  }
  if (in_string) {
    why = "unterminated string";
    return false;
  }
  if (end == std::string::npos) {
    why = "truncated (object never closes)";
    return false;
  }
  for (std::size_t j = end + 1; j < s.size(); ++j) {
    if (!std::isspace(static_cast<unsigned char>(s[j]))) {
      why = "trailing garbage after the object";
      return false;
    }
  }
  return true;
}

bool has_key(const std::string& s, const std::string& key) {
  return s.find("\"" + key + "\":") != std::string::npos;
}

/// Extract the value of "bench" (the report's name).
std::string bench_name(const std::string& s) {
  const std::string tag = "\"bench\": \"";
  auto p = s.find(tag);
  if (p == std::string::npos) return {};
  p += tag.size();
  auto q = s.find('"', p);
  if (q == std::string::npos) return {};
  return s.substr(p, q - p);
}

const std::map<std::string, std::vector<std::string>>& required_keys() {
  static const std::map<std::string, std::vector<std::string>> keys = {
      {"datapath",
       {"baseline_cells_per_sec", "cells_per_sec_wall", "speedup",
        "peak_event_queue_depth", "allocs_per_cell"}},
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

/// JSONL observability artifacts: a header object on line 1 carrying the
/// schema marker, then one record object per line.  Every line must be a
/// well-formed object; header and records each have a required-key profile.
bool check_jsonl(const char* path, const std::string& s,
                 const char* schema_name, const char* kind,
                 const std::vector<std::string>& header_keys,
                 const std::vector<std::string>& record_keys) {
  bool ok = true;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t eol = s.find('\n', pos);
    if (eol == std::string::npos) eol = s.size();
    const std::string line = s.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++line_no;
    std::string why;
    if (!well_formed(line, why)) {
      std::fprintf(stderr, "FAIL %s: line %zu malformed: %s\n", path, line_no,
                   why.c_str());
      return false;
    }
    const std::vector<std::string>& keys =
        line_no == 1 ? header_keys : record_keys;
    for (const std::string& key : keys) {
      if (!has_key(line, key)) {
        std::fprintf(stderr, "FAIL %s: %s line %zu missing required key %s\n",
                     path, kind, line_no, key.c_str());
        ok = false;
      }
    }
  }
  if (line_no == 0) {
    std::fprintf(stderr, "FAIL %s: empty %s document\n", path, kind);
    return false;
  }
  if (ok) {
    std::printf("OK   %s (%s, %zu lines, %s)\n", path, kind, line_no,
                schema_name);
  }
  return ok;
}

/// xunet.chaos.v1 — chaos-harness repro artifacts.  Header line carries the
/// case (topology + workload + seed); every record line declares its type
/// in "rec" and must carry that type's keys.
bool check_chaos_jsonl(const char* path, const std::string& s) {
  static const std::map<std::string, std::vector<std::string>> rec_keys = {
      {"event", {"kind", "at_ns", "duration_ns", "node"}},
      {"violation", {"rule", "detail"}},
      {"result", {"opened", "delivered", "failed", "unresolved"}},
      {"post_mortem", {"trace"}},
  };
  bool ok = true;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t eol = s.find('\n', pos);
    if (eol == std::string::npos) eol = s.size();
    const std::string line = s.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++line_no;
    std::string why;
    if (!well_formed(line, why)) {
      std::fprintf(stderr, "FAIL %s: line %zu malformed: %s\n", path, line_no,
                   why.c_str());
      return false;
    }
    if (line_no == 1) {
      for (const char* key :
           {"schema", "seed", "routers", "calls", "events", "violations"}) {
        if (!has_key(line, key)) {
          std::fprintf(stderr,
                       "FAIL %s: chaos header missing required key %s\n", path,
                       key);
          ok = false;
        }
      }
      continue;
    }
    const std::string tag = "\"rec\":\"";
    const std::size_t p = line.find(tag);
    const std::size_t q =
        p == std::string::npos ? p : line.find('"', p + tag.size());
    if (p == std::string::npos || q == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: chaos line %zu has no \"rec\" type\n",
                   path, line_no);
      ok = false;
      continue;
    }
    const std::string rec = line.substr(p + tag.size(), q - p - tag.size());
    auto it = rec_keys.find(rec);
    if (it == rec_keys.end()) {
      std::fprintf(stderr, "FAIL %s: chaos line %zu unknown rec \"%s\"\n",
                   path, line_no, rec.c_str());
      ok = false;
      continue;
    }
    for (const std::string& key : it->second) {
      if (!has_key(line, key)) {
        std::fprintf(stderr,
                     "FAIL %s: chaos %s line %zu missing required key %s\n",
                     path, rec.c_str(), line_no, key.c_str());
        ok = false;
      }
    }
  }
  if (line_no == 0) {
    std::fprintf(stderr, "FAIL %s: empty chaos document\n", path);
    return false;
  }
  if (ok) {
    std::printf("OK   %s (chaos repro, %zu lines, xunet.chaos.v1)\n", path,
                line_no);
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
  const std::size_t first_eol = s.find('\n');
  const std::string first_line =
      first_eol == std::string::npos ? s : s.substr(0, first_eol);
  if (first_line.find("\"xunet.trace.v1\"") != std::string::npos) {
    return check_jsonl(path, s, "xunet.trace.v1", "flight-recorder dump",
                      {"schema", "reason", "records", "overwritten"},
                      {"seq", "ts_ns", "comp", "name", "track"});
  }
  if (first_line.find("\"xunet.health.v1\"") != std::string::npos) {
    return check_jsonl(path, s, "xunet.health.v1", "health alert stream",
                      {"schema", "rules", "alerts", "ticks"},
                      {"ts_ns", "rule", "metric", "value", "state"});
  }
  if (first_line.find("\"xunet.chaos.v1\"") != std::string::npos) {
    return check_chaos_jsonl(path, s);
  }
  std::string why;
  if (!well_formed(s, why)) {
    std::fprintf(stderr, "FAIL %s: malformed JSON: %s\n", path, why.c_str());
    return false;
  }
  if (s.find("\"xunet.model.v1\"") != std::string::npos) {
    // Model-checker report from tools/xunet_model --json.
    bool ok = true;
    for (const char* key :
         {"tool", "states", "edges", "sighost_declared", "sighost_reached",
          "kern_declared", "kern_reached", "ok", "findings", "notes"}) {
      if (!has_key(s, key)) {
        std::fprintf(stderr, "FAIL %s: model report missing required key %s\n",
                     path, key);
        ok = false;
      }
    }
    if (ok) std::printf("OK   %s (model report)\n", path);
    return ok;
  }
  if (s.find("\"xunet.lint.v1\"") != std::string::npos) {
    // Static-analysis report from tools/xunet_lint --json.
    bool ok = true;
    for (const char* key :
         {"tool", "files_scanned", "total", "unsuppressed", "findings"}) {
      if (!has_key(s, key)) {
        std::fprintf(stderr, "FAIL %s: lint report missing required key %s\n",
                     path, key);
        ok = false;
      }
    }
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
  const std::string name = bench_name(s);
  if (name.empty()) {
    std::fprintf(stderr, "FAIL %s: missing \"bench\" name\n", path);
    return false;
  }
  auto it = required_keys().find(name);
  if (it == required_keys().end()) {
    // Unknown bench names are allowed (new reports predate their checks)
    // as long as the envelope is valid.
    std::printf("OK   %s (bench \"%s\", no key profile)\n", path,
                name.c_str());
    return true;
  }
  bool ok = true;
  for (const std::string& key : it->second) {
    if (!has_key(s, key)) {
      std::fprintf(stderr, "FAIL %s: bench \"%s\" missing required key %s\n",
                   path, name.c_str(), key.c_str());
      ok = false;
    }
  }
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
