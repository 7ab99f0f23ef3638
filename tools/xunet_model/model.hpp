// model.hpp — xunet_model: explicit-state model checking of the declared
// protocol state machines.
//
// PAPER.md §5's core claim is that call state is kernel-mediated — "the
// kernel always knows".  xunet_lint proves the CODE matches the declared
// transition tables (sighost_state.tbl, kern_socket_state.tbl); this tool
// proves the TABLES themselves are sound.  It composes
//
//   originator sighost × callee sighost × kernel sockets (one per endpoint)
//
// into a product machine for one call against one exported service, with a
// lossy / duplicating / reordering message channel between the sighosts
// (matching the FaultPlan drop/dup/reorder envelope) and a lossy bounded
// anand indication queue between each kernel and its sighost (§10: bind
// indications are lost under burst; process_terminated is durably retried
// by the kernel, so it is modeled reliable).  Sighost crash+recover is one
// atomic event per side, taken only at channel-quiescent states, mirroring
// the chaos harness's crash schedule — including the recovery audit that
// rebuilds vci_mapping from the kernel/network view.
//
// Exhaustive breadth-first exploration then reports:
//
//   MODEL-UNREACHABLE  a declared transition no reachable product state
//                      fires (dead table entry — or the model is out of
//                      date; either way a human must look)
//   MODEL-STUCK        a state with no outgoing transition that is not an
//                      accepted terminal (call resolved, channels empty,
//                      sockets released, no leaked network VC) — a protocol
//                      deadlock or a resource leak
//   MODEL-DIVERGENCE   a channel-quiescent state where a sighost holds a
//                      CONFIRMED vci_mapping entry whose endpoint socket is
//                      not bound/connected — the §5.3 cross-layer
//                      consistency claim, violated
//   MODEL-BADSOURCE    a kernel assignment fired from a source state the
//                      table's from-list does not cover
//   MODEL-CONFIG       exploration exceeded the state bound (fail loudly,
//                      never silently truncate)
//
// Events are GATED on their table entries: an event that would fire an
// undeclared transition is disabled.  This is what makes the seeded-defect
// self-tests work — deleting close_xunet from a fixture table removes the
// only exit from disconnected sockets and the checker must report the
// resulting stuck states; adding a bogus entry must be reported unreachable.
// No reachability obligation can be waived: a declared row the product never
// fires is either dead or a gap in this model, and both need a human.
//
// Options::sabotage_recover mirrors the chaos harness's sabotage seam
// (SighostConfig::recovery_skip_audit): recovery rebuilds nothing and skips
// the orphan audit.  The checker must then find leaked VCs / stuck states —
// the self-test that the detector actually detects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "xunet_lint/statemachine.hpp"

namespace xunet::model {

struct Finding {
  std::string kind;    ///< MODEL-UNREACHABLE / MODEL-STUCK / ...
  std::string detail;  ///< human-readable; decoded state for STUCK/DIVERGENCE
};

struct Options {
  /// Crash recovery rebuilds nothing (the planted defect; self-test only).
  bool sabotage_recover = false;
  /// Exploration bound; exceeding it is a MODEL-CONFIG finding.
  std::size_t max_states = 4u * 1000u * 1000u;
  /// Cap on reported stuck/divergent example states per kind.
  std::size_t max_examples = 8;
};

struct Result {
  std::vector<Finding> findings;  ///< deterministic order
  std::size_t states = 0;         ///< distinct product states explored
  std::size_t edges = 0;          ///< product transitions taken
  std::size_t sighost_declared = 0;
  std::size_t sighost_reached = 0;
  std::size_t kern_declared = 0;
  std::size_t kern_reached = 0;
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const { return findings.empty(); }
};

/// Explore the product machine of the two declared tables.
[[nodiscard]] Result check(const std::vector<lint::Transition>& sighost_table,
                           const std::vector<lint::MachineEdge>& kern_table,
                           const Options& opt = {});

/// Human-readable report.
[[nodiscard]] std::string render_text(const Result& r);

/// Machine-readable report, schema "xunet.model.v1" (validated by
/// tools/bench_json_check alongside the lint and bench reports).
[[nodiscard]] std::string render_json(const Result& r);

}  // namespace xunet::model
