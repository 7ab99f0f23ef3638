#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace xunet::obs {

using util::Errc;
using util::json_escape;

std::string us_fixed(std::int64_t ns) {
  // Negative spans never happen in a trace, but a waterfall offset of an
  // orphaned hop may precede its root; keep the sign and the padding.
  const std::uint64_t mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns)
                                   : static_cast<std::uint64_t>(ns);
  std::string f = std::to_string(mag % 1000);
  return (ns < 0 ? "-" : "") + std::to_string(mag / 1000) + "." +
         std::string(3 - f.size(), '0') + f;
}

namespace {

void append_ids(std::string& out, const TraceIds& ids) {
  if (!ids.call_id.empty()) out += ",\"call\":\"" + json_escape(ids.call_id) + "\"";
  if (ids.vci >= 0) out += ",\"vci\":" + std::to_string(ids.vci);
  if (ids.fd >= 0) out += ",\"fd\":" + std::to_string(ids.fd);
  if (ids.pid >= 0) out += ",\"proc\":" + std::to_string(ids.pid);
  if (ids.trace_id != 0) out += ",\"trace\":" + std::to_string(ids.trace_id);
  if (ids.parent_span != kInvalidSpan)
    out += ",\"parent\":" + std::to_string(ids.parent_span);
}

}  // namespace

// Counter values are doubles in the event record but every producer stores
// integral levels; render without a fractional part when exact.  The range
// test comes first: casting NaN, ±inf or |v| >= 2^63 to int64 is undefined.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v >= -0x1p63 && v < 0x1p63) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v) return std::to_string(i);
  }
  char buf[320];  // "%.6f" of DBL_MAX: 309 integer digits
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string to_chrome_trace(const TraceBuffer& buf) {
  // Tracks become Chrome processes, components become threads.  Ids are
  // assigned in first-appearance order, which is deterministic because the
  // event stream is.
  std::map<std::string, int> track_pid;
  std::map<std::pair<std::string, std::string>, int> thread_tid;
  std::vector<std::string> meta;
  auto pid_of = [&](const std::string& track) {
    auto it = track_pid.find(track);
    if (it != track_pid.end()) return it->second;
    int pid = static_cast<int>(track_pid.size()) + 1;
    track_pid.emplace(track, pid);
    meta.push_back("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                   ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
                   json_escape(track) + "\"}}");
    return pid;
  };
  auto tid_of = [&](const std::string& track, const char* component) {
    int pid = pid_of(track);
    auto key = std::make_pair(track, std::string(component));
    auto it = thread_tid.find(key);
    if (it != thread_tid.end()) return std::make_pair(pid, it->second);
    int tid = static_cast<int>(thread_tid.size()) + 1;
    thread_tid.emplace(std::move(key), tid);
    meta.push_back("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                   ",\"tid\":" + std::to_string(tid) +
                   ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                   json_escape(component) + "\"}}");
    return std::make_pair(pid, tid);
  };

  std::vector<std::string> lines;
  lines.reserve(buf.events().size());
  for (const TraceEvent& e : buf.events()) {
    auto [pid, tid] = tid_of(e.track, e.component);
    std::string line = "{\"ph\":\"" + std::string(to_string(e.phase)) +
                       "\",\"pid\":" + std::to_string(pid) +
                       ",\"tid\":" + std::to_string(tid) +
                       ",\"ts\":" + us_fixed(e.ts.ns()) + ",\"name\":\"" +
                       json_escape(e.name) + "\",\"cat\":\"" +
                       json_escape(e.component) + "\"";
    if (e.phase == Phase::complete) line += ",\"dur\":" + us_fixed(e.dur.ns());
    if (e.phase == Phase::instant) line += ",\"s\":\"t\"";
    line += ",\"args\":{";
    if (e.phase == Phase::counter) {
      line += "\"value\":" + json_number(e.value);
    } else {
      std::string ids;
      append_ids(ids, e.ids);
      if (!ids.empty()) ids.erase(0, 1);  // drop the leading comma
      line += ids;
    }
    line += "}}";
    lines.push_back(std::move(line));
  }

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const std::string& m : meta) {
    out += (first ? "" : ",\n") + m;
    first = false;
  }
  for (const std::string& l : lines) {
    out += (first ? "" : ",\n") + l;
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string to_jsonl(const TraceBuffer& buf, const MetricsRegistry& metrics) {
  std::string out = "{\"schema\":\"" + std::string(kJsonlSchema) +
                    "\",\"events\":" + std::to_string(buf.size()) +
                    ",\"dropped\":" + std::to_string(buf.dropped()) + "}\n";
  for (const TraceEvent& e : buf.events()) {
    out += "{\"ph\":\"" + std::string(to_string(e.phase)) +
           "\",\"ts_ns\":" + std::to_string(e.ts.ns()) + ",\"comp\":\"" +
           json_escape(e.component) + "\",\"name\":\"" + json_escape(e.name) +
           "\",\"track\":\"" + json_escape(e.track) + "\"";
    if (e.span != kInvalidSpan) out += ",\"span\":" + std::to_string(e.span);
    if (e.phase == Phase::complete)
      out += ",\"dur_ns\":" + std::to_string(e.dur.ns());
    if (e.phase == Phase::counter) out += ",\"value\":" + json_number(e.value);
    append_ids(out, e.ids);
    out += "}\n";
  }
  for (const auto& [name, c] : metrics.counters()) {
    out += "{\"metric\":\"" + json_escape(name) +
           "\",\"type\":\"counter\",\"value\":" + std::to_string(c.value()) +
           "}\n";
  }
  for (const auto& [name, g] : metrics.gauges()) {
    out += "{\"metric\":\"" + json_escape(name) +
           "\",\"type\":\"gauge\",\"value\":" + std::to_string(g.value()) +
           "}\n";
  }
  for (const auto& [name, h] : metrics.histograms()) {
    out += "{\"metric\":\"" + json_escape(name) +
           "\",\"type\":\"histogram\",\"count\":" + std::to_string(h.count());
    if (h.count() > 0) {
      // Samples are simulated-time derived, so fixed-point µs keeps this
      // deterministic: store as integer nanoseconds when callers observe ns.
      out += ",\"mean\":" + json_number(h.mean()) + ",\"max\":" + json_number(h.max());
    }
    out += "}\n";
  }
  return out;
}

// ------------------------------------------------------------ JSONL check

util::Result<void> validate_jsonl(std::string_view text) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (!util::validate_json(line).ok()) return Errc::protocol_error;
    if (line_no == 0) {
      if (!util::json_field(line, "schema")) return Errc::protocol_error;
    } else if (util::json_field(line, "metric")) {
      if (!util::json_field(line, "type")) return Errc::protocol_error;
    } else {
      // Trace event: phase, timestamp, component, name, track are required.
      for (std::string_view k : {"ph", "ts_ns", "comp", "name", "track"}) {
        if (!util::json_field(line, k)) return Errc::protocol_error;
      }
    }
    ++line_no;
  }
  if (line_no == 0) return Errc::protocol_error;
  return {};
}

}  // namespace xunet::obs
