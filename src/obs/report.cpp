#include "obs/report.hpp"

#include <cstdio>
#include <string_view>

#include "obs/calltrace.hpp"

namespace xunet::obs {

namespace {

std::string ms_fixed(sim::SimDuration d) {
  // Integer-exact milliseconds with three decimals (µs resolution).
  std::int64_t us = d.ns() / 1000;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(us / 1000),
                static_cast<long long>(us % 1000 < 0 ? -(us % 1000) : us % 1000));
  return buf;
}

std::string pct(sim::SimDuration part, sim::SimDuration total) {
  if (total.ns() <= 0) return "  0.0%";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%5.1f%%",
                100.0 * static_cast<double>(part.ns()) /
                    static_cast<double>(total.ns()));
  return buf;
}

std::string pad(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out += std::string(width - out.size(), ' ');
  return out;
}

}  // namespace

std::vector<CallBreakdown> per_call_breakdown(const TraceBuffer& buf) {
  const CallTraceIndex idx(buf);
  std::vector<CallBreakdown> calls;
  std::vector<const CallTraceNode*> stack;
  // Trace ids are minted as calls open, so ascending trace order is
  // call-open order.
  for (std::uint64_t t : idx.traces()) {
    const CallTraceNode* root = idx.root(t);
    // Only a finished client-side open has a setup latency to decompose.
    if (root->component != "stub" || root->name != "call.open" ||
        root->call_id.empty() || root->dur.ns() <= 0) {
      continue;
    }
    CallBreakdown c;
    c.call_id = root->call_id;
    c.total = root->dur;
    const sim::SimTime end = root->ts + root->dur;
    stack.assign(1, root);
    while (!stack.empty()) {
      const CallTraceNode* n = stack.back();
      stack.pop_back();
      for (SpanId kid : n->children) stack.push_back(idx.node(kid));
      // Hops that start outside the open window belong to another phase of
      // the call's life.  The sighost "call.setup" span is that entity's
      // view of the whole setup: it overlaps every other part, so it is not
      // itself one.  Stub, kernel and Orc hops fall into the remainder.
      if (n->ts < root->ts || n->ts > end) continue;
      if (n->component == "sighost") {
        if (n->name == "maint.log") {
          c.maint_log += n->dur;
        } else if (n->name != "call.setup") {
          c.sighost_proc += n->dur;
        }
      } else if (n->component == "atm" &&
                 (n->name == "vc.setup" || n->name == "vc.setup_denied")) {
        c.vc_install += n->dur;
      }
    }
    const sim::SimDuration parts = c.maint_log + c.vc_install + c.sighost_proc;
    if (c.total < parts) c.total = parts;
    c.stub_rpc = c.total - parts;
    calls.push_back(std::move(c));
  }
  return calls;
}

std::string breakdown_report(const TraceBuffer& buf) {
  std::vector<CallBreakdown> calls = per_call_breakdown(buf);
  std::string out =
      "== per-call setup latency breakdown (paper §9 decomposition) ==\n";
  if (calls.empty()) {
    out += "(no calls traced)\n";
    return out;
  }
  std::size_t dominated = 0;
  double pct_sum = 0.0;
  for (const CallBreakdown& c : calls) {
    out += "call " + c.call_id + ": total " + ms_fixed(c.total) + " ms\n";
    struct Row {
      std::string_view label;
      sim::SimDuration d;
      bool dominant_mark;
    } rows[] = {
        {"maintenance logging (sighost)", c.maint_log, c.logging_dominant()},
        {"kernel VC install (atm)", c.vc_install, false},
        {"sighost processing", c.sighost_proc, false},
        {"stub RPC + transit (remainder)", c.stub_rpc, false},
    };
    for (const Row& r : rows) {
      out += "  " + pad(r.label, 34) + pad(ms_fixed(r.d) + " ms", 14) +
             pct(r.d, c.total);
      if (r.dominant_mark && r.d.ns() > 0) out += "   <- dominant";
      out += "\n";
    }
    if (c.logging_dominant()) ++dominated;
    if (c.total.ns() > 0) {
      pct_sum += 100.0 * static_cast<double>(c.maint_log.ns()) /
                 static_cast<double>(c.total.ns());
    }
  }
  char buf2[160];
  std::snprintf(buf2, sizeof buf2,
                "aggregate: %zu/%zu calls dominated by maintenance logging "
                "(mean %.1f%% of setup time)\n",
                dominated, calls.size(),
                pct_sum / static_cast<double>(calls.size()));
  out += buf2;
  return out;
}

}  // namespace xunet::obs
