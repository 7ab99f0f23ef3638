// lint.hpp — xunet_lint: project-specific static analysis for the xunet tree.
//
// The reproduction rests on deterministic replay (byte-identical JSONL
// traces, same-seed fault-recovery runs), on pooled-engine event lifetimes
// (a dangling by-reference capture in a scheduled callback fails silently),
// and on the sighost's five internal lists behaving as the declared state
// machine of PAPER.md §5.  Nothing in the compiler checks any of that, so
// this tool does: a lightweight lexer plus per-rule matchers over the
// repo's own sources.
//
// Rule families (ids are stable; they appear in annotations):
//
//   DET  — determinism.
//     DET-BANNED      wall clocks / libc randomness outside src/util/rng
//     DET-UNORD-ITER  range-for over an unordered container whose body
//                     schedules events, sends wire messages, or builds an
//                     ordered artifact (JSON emission, stream append,
//                     unsorted push_back) in place
//     DET-PTR-KEY     pointer-keyed std::map/std::set (address-dependent order)
//   LIFE — event lifetimes.
//     LIFE-REF-CAPTURE  by-reference lambda capture passed to
//                       Simulator::schedule/schedule_at or Timer::arm
//     LIFE-TIMER-REARM  by-reference capture in a lambda that itself calls
//                       schedule/arm — a self-re-arming chain whose every
//                       firing outlives the capturing frame
//   STATE — the declared state machines (see statemachine.hpp).
//     STATE-UNDECLARED  a sighost five-list mutation (sighost.cpp) or kernel
//                       SocketState assignment (kernel.cpp) with no entry in
//                       its declared transition table
//     STATE-MISSING     a declared transition with no code site (stale table)
//   HYG  — hygiene.
//     HYG-PRAGMA-ONCE    header without #pragma once
//     HYG-BANNED-INCLUDE <chrono>/<thread>/<random>/... in simulation code
//     HYG-REL-INCLUDE    #include "..." path escaping the source root
//   LINT — the tool's own annotations.
//     LINT-ANNOT        malformed allow(...) annotation, one without a
//                       reason, one that suppresses nothing, or a state
//                       table that fails to load
//
// Suppression: inline `// xunet-lint: allow(<rule>[,<rule>...]) -- <reason>`
// (trailing: covers its own line; standalone: covers the next line) is the
// only waiver, and it REQUIRES a written reason.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xunet::lint {

/// One diagnostic.  `file` is root-relative so reports are stable across
/// checkouts.
struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
  bool suppressed = false;
  std::string reason;  ///< why it is allowed (the annotation's reason)
};

/// One extracted sighost state-machine transition: member function `fn`
/// performs `op` (insert/erase/clear) on paper-list `list`.
struct Transition {
  std::string fn;
  std::string list;
  std::string op;
  int line = 0;
};

struct Config {
  /// Paths in findings are reported relative to this directory.
  std::string root = ".";
  /// The file the sighost STATE rule analyzes (root-relative suffix match).
  std::string state_file = "src/signaling/sighost.cpp";
  /// Declared sighost transition table; empty disables that STATE rule.
  std::string state_table;
  /// The file the kernel SocketState rule analyzes (suffix match).
  std::string kern_state_file = "src/kern/kernel.cpp";
  /// Declared kernel SocketState table (`fn from to` machine format);
  /// empty disables that STATE rule.
  std::string kern_state_table;
};

struct Report {
  std::vector<Finding> findings;      ///< sorted by (file, line, rule)
  std::vector<Transition> transitions;///< extracted from the sighost file
  std::vector<Transition> kern_transitions;  ///< extracted from kernel.cpp
  std::size_t files_scanned = 0;
  std::vector<std::string> notes;     ///< non-fatal: unreadable files

  [[nodiscard]] std::size_t unsuppressed() const {
    std::size_t n = 0;
    for (const Finding& f : findings) n += f.suppressed ? 0 : 1;
    return n;
  }
};

/// Run every rule over `paths` (files, or directories scanned recursively
/// for .hpp/.cpp/.h/.cc via util::list_source_files).
[[nodiscard]] Report run_lint(const std::vector<std::string>& paths,
                              const Config& cfg);

/// Human-readable diagnostics (one `file:line: [RULE] message` per finding).
[[nodiscard]] std::string render_text(const Report& r);

/// Machine-readable findings, schema "xunet.lint.v1" (validated by
/// tools/bench_json_check alongside the bench reports).
[[nodiscard]] std::string render_json(const Report& r);

}  // namespace xunet::lint
