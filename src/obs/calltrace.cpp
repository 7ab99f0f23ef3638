#include "obs/calltrace.hpp"

#include <algorithm>

#include "obs/export.hpp"

namespace xunet::obs {

CallTraceIndex::CallTraceIndex(const TraceBuffer& buf) {
  // Complete events carry their duration; begin events need their matching
  // end.  Both were minted a SpanId, so both can be tree nodes.
  std::unordered_map<SpanId, sim::SimTime> ends;
  for (const TraceEvent& e : buf.events()) {
    if (e.phase == Phase::span_end) ends[e.span] = e.ts;
  }
  for (const TraceEvent& e : buf.events()) {
    if (e.ids.trace_id == 0 || e.span == kInvalidSpan) continue;
    if (e.phase != Phase::complete && e.phase != Phase::span_begin) continue;
    CallTraceNode n;
    n.span = e.span;
    n.parent = e.ids.parent_span;
    n.trace = e.ids.trace_id;
    n.component = e.component;
    n.name = e.name;
    n.track = e.track;
    n.call_id = e.ids.call_id;
    n.ts = e.ts;
    if (e.phase == Phase::complete) {
      n.dur = e.dur;
    } else if (auto it = ends.find(e.span); it != ends.end()) {
      n.dur = it->second - e.ts;
    }
    nodes_.emplace(n.span, std::move(n));
  }

  // Link children; a parent recorded outside the buffer (dropped, or a
  // foreign span) orphans the node, which then competes for root.
  for (auto& [span, n] : nodes_) {
    auto pit = n.parent != kInvalidSpan ? nodes_.find(n.parent) : nodes_.end();
    if (pit != nodes_.end() && pit->second.trace == n.trace) {
      pit->second.children.push_back(span);
    } else {
      auto rit = roots_.find(n.trace);
      if (rit == roots_.end() || span < rit->second) roots_[n.trace] = span;
    }
    ++counts_[n.trace];
  }
  for (auto& [span, n] : nodes_) {
    (void)span;
    std::sort(n.children.begin(), n.children.end());
  }
  traces_.reserve(counts_.size());
  for (const auto& [trace, count] : counts_) {
    (void)count;
    traces_.push_back(trace);
  }
  std::sort(traces_.begin(), traces_.end());
}

std::size_t CallTraceIndex::span_count(std::uint64_t trace) const {
  auto it = counts_.find(trace);
  return it == counts_.end() ? 0 : it->second;
}

const CallTraceNode* CallTraceIndex::node(SpanId span) const {
  auto it = nodes_.find(span);
  return it == nodes_.end() ? nullptr : &it->second;
}

const CallTraceNode* CallTraceIndex::root(std::uint64_t trace) const {
  auto it = roots_.find(trace);
  return it == roots_.end() ? nullptr : node(it->second);
}

const CallTraceNode* CallTraceIndex::find(std::uint64_t trace,
                                          std::string_view component,
                                          std::string_view name) const {
  const CallTraceNode* best = nullptr;
  for (const auto& [span, n] : nodes_) {
    (void)span;
    if (n.trace != trace || n.component != component || n.name != name) continue;
    if (best == nullptr || n.span < best->span) best = &n;
  }
  return best;
}

void CallTraceIndex::render(std::string& out, const CallTraceNode& n,
                            sim::SimTime origin, int depth) const {
  out += std::string(static_cast<std::size_t>(depth) * 2, ' ');
  out += n.component + " " + n.name + " [" + n.track + "]";
  out += " @" + us_fixed((n.ts - origin).ns()) + "us";
  out += " +" + us_fixed(n.dur.ns()) + "us";
  if (!n.call_id.empty()) out += " call=" + n.call_id;
  out += "\n";
  for (SpanId c : n.children) {
    if (const CallTraceNode* child = node(c)) {
      render(out, *child, origin, depth + 1);
    }
  }
}

std::string CallTraceIndex::waterfall(std::uint64_t trace) const {
  std::string out;
  const CallTraceNode* r = root(trace);
  if (r == nullptr) return out;
  out += "trace " + std::to_string(trace) + " (" +
         std::to_string(span_count(trace)) + " hops)\n";
  render(out, *r, r->ts, 1);
  // Fragments whose parent never made it into the buffer still render, as
  // extra top-level hops, so nothing silently disappears.
  std::vector<SpanId> orphans;
  for (const auto& [span, n] : nodes_) {
    if (n.trace != trace || span == r->span) continue;
    auto pit = n.parent != kInvalidSpan ? nodes_.find(n.parent) : nodes_.end();
    if (pit == nodes_.end() || pit->second.trace != n.trace) {
      orphans.push_back(span);
    }
  }
  std::sort(orphans.begin(), orphans.end());
  for (SpanId s : orphans) render(out, *node(s), r->ts, 1);
  return out;
}

std::string CallTraceIndex::waterfall() const {
  std::string out = "== causal call-trace waterfall ==\n";
  for (std::uint64_t t : traces_) out += waterfall(t);
  if (traces_.empty()) out += "(no causal traces recorded)\n";
  return out;
}

}  // namespace xunet::obs
