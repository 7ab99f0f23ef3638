// report.hpp — the §9 per-call latency-breakdown report.
//
// The paper decomposes its ~330 ms router-to-router call-establishment time
// and attributes the bulk to "the large amount of maintenance information
// logged per call by the signaling entities".  This report reproduces that
// decomposition as a fold over the causal call tree (obs/calltrace.hpp):
// for every trace rooted at a finished stub "call.open" span it splits the
// client-observed setup latency into
//
//   maintenance logging   — sighost "maint.log" hops (both entities),
//   kernel VC install     — the atm "vc.setup" hop (switch programming),
//   sighost processing    — other sighost hops except "call.setup",
//   stub RPC + transit    — the remainder: user-kernel crossings of the
//                           five RPC legs plus signaling-PVC propagation.
//
// Only hops that start inside the open window count.  Teardown writes its
// maintenance record without a trace id, so it never joins the tree.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace xunet::obs {

/// One call's decomposition.  All components sum to `total`.
struct CallBreakdown {
  std::string call_id;
  sim::SimDuration total{};         ///< client-observed open_connection time
  sim::SimDuration maint_log{};     ///< Σ sighost maintenance-log spans
  sim::SimDuration vc_install{};    ///< Σ atm vc.setup spans
  sim::SimDuration sighost_proc{};  ///< Σ other sighost spans
  sim::SimDuration stub_rpc{};      ///< remainder (RPC legs + transit)
  /// True when maintenance logging is the largest single component.
  [[nodiscard]] bool logging_dominant() const noexcept {
    return maint_log >= vc_install && maint_log >= sighost_proc &&
           maint_log >= stub_rpc;
  }
};

/// Extract breakdowns for every call with a recorded end-to-end setup span,
/// in call-open order (ascending trace id).
[[nodiscard]] std::vector<CallBreakdown> per_call_breakdown(
    const TraceBuffer& buf);

/// Render the human-readable report (one block per call + an aggregate).
[[nodiscard]] std::string breakdown_report(const TraceBuffer& buf);

}  // namespace xunet::obs
