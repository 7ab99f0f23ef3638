// statemachine.hpp — the shared state-machine IR.
//
// PR 4 taught the linter to diff the sighost's five-list mutations against a
// declared transition table.  Two consumers now need the same extraction:
//
//   * xunet_lint (STATE-UNDECLARED / STATE-MISSING): code sites vs table,
//     exhaustively in both directions, for BOTH declared machines — the
//     sighost five lists (sighost_state.tbl) and the kernel SocketState
//     machine (kern_socket_state.tbl).
//   * tools/xunet_model: the explicit-state checker that composes the
//     declared tables into a product machine and explores it.
//
// So the extraction lives here, parameterized by a MachineSpec instead of
// hard-coding the sighost:
//
//   * list machines — mutations of named container members
//     (`services_.emplace(...)`, `vci_map_.erase(...)`, `wait_bind_[k] = v`),
//     recorded as (enclosing function, paper list, insert/erase/clear);
//   * assignment machines — enum stores through a named field
//     (`xs.state = SocketState::bound`), recorded as
//     (enclosing function, target state, "assign").
//
// Enclosing-function attribution is span-based: every out-of-class member
// definition (`Cls :: name (...) ... {`) AND every free/static helper
// (`name (...) ... {`) yields a token span, so mutations inside helpers are
// attributed to the helper's name instead of being silently missed or glued
// to the previous member (the PR 4 extractor only knew `Sighost ::`).
//
// Table formats (both `#`-commented, three whitespace-separated fields per
// row, read by one row reader):
//
//   sighost_state.tbl       <fn> <list> <op>           op ∈ insert|erase|clear
//   kern_socket_state.tbl   <fn> <from[,from...]|*> <to>
//
// The richer kern format keeps the source states the code guards on; the
// lint diff only consumes its (fn, to) projection (machine_to_transitions),
// the model checker consumes the full edges.  Tables carry no waivers: a
// declared row the model checker cannot reach is a finding.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "xunet_lint/lint.hpp"
#include "xunet_lint/scan.hpp"

namespace xunet::lint {

/// What to extract from a unit.  A spec may name list members, an enum
/// assignment target, or both.
struct MachineSpec {
  std::string name;  ///< "sighost" / "kern_socket" — used in messages
  /// Container member ident -> declared list name (list machines).
  std::map<std::string, std::string> lists;
  /// Field ident receiving enum stores, e.g. "state" (assignment machines).
  std::string state_field;
  /// Enum type the stores must name, e.g. "SocketState".
  std::string state_enum;
};

/// The sighost five-list machine of PAPER.md §5.
[[nodiscard]] MachineSpec sighost_machine();
/// The kernel PF_XUNET SocketState machine (src/kern/kernel.hpp).
[[nodiscard]] MachineSpec kern_socket_machine();

/// One function body: [begin, end] are the token indices of its braces.
struct FnSpan {
  std::string name;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Every function definition in the token stream — out-of-class members and
/// free helpers alike.  Spans are disjoint and sorted by begin.
[[nodiscard]] std::vector<FnSpan> function_spans(const std::vector<Token>& toks);

/// Extract the machine's transitions from one unit, deduplicated by
/// (fn, list, op).  Assignment machines use list = target state, op="assign".
[[nodiscard]] std::vector<Transition> extract_machine(const Unit& u,
                                                      const MachineSpec& spec);

/// One declared edge of an assignment machine: `fn` drives any state in
/// `from` to `to`.  from == {"*"} means any source state.
struct MachineEdge {
  std::string fn;
  std::vector<std::string> from;
  std::string to;
  int line = 0;
};

/// Parse `<fn> <from[,from...]|*> <to>` per line.  On malformed input `err`
/// is set and the result is empty.
[[nodiscard]] std::vector<MachineEdge> load_machine_table(
    const std::string& path, std::string& err);

/// Project edges to lint transitions {fn, to, "assign"} for the exhaustive
/// both-direction STATE diff.
[[nodiscard]] std::vector<Transition> machine_to_transitions(
    const std::vector<MachineEdge>& edges);

/// Parse the sighost transition table: `fn list op` per line, `#` comments.
/// On malformed input `err` is set.
[[nodiscard]] std::vector<Transition> load_state_table(const std::string& path,
                                                       std::string& err);

}  // namespace xunet::lint
