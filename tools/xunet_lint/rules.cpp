// rules.cpp — the DET / LIFE / STATE / HYG matchers.
//
// Matchers are token-level heuristics, deliberately simple: each one is
// calibrated against the fixture corpus in tests/lint_fixtures/, and every
// justified real-world exception goes through an allow(...) annotation —
// never through loosening a matcher.
#include "xunet_lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <map>

namespace xunet::lint {
namespace {

bool path_has(const std::string& rel, const char* needle) {
  return rel.find(needle) != std::string::npos;
}

void add(std::vector<Finding>& out, const Unit& u, const std::string& rule,
         int line, std::string msg) {
  Finding f;
  f.rule = rule;
  f.file = u.rel;
  f.line = line;
  f.message = std::move(msg);
  out.push_back(std::move(f));
}

/// Idents whose presence in a loop body means the iteration order reaches
/// the event queue or the wire.
bool effectful_ident(const std::string& s) {
  static const std::set<std::string> kExact = {
      "schedule", "schedule_at", "arm",       "transmit_peer",
      "wire_send", "serialize",  "emit",      "complete",
  };
  if (kExact.count(s) != 0) return true;
  return s.find("send") != std::string::npos;
}

}  // namespace

// ----------------------------------------------------------------- DET

void rule_det_banned(const Unit& u, std::vector<Finding>& out) {
  // The deterministic RNG wrapper is the one place allowed to name the
  // primitives it replaces.
  if (path_has(u.rel, "util/rng")) return;
  static const std::map<std::string, const char*> kBanned = {
      {"rand", "libc rand() is seeded per-process; use util::Rng"},
      {"srand", "libc srand() is process-global; use util::Rng(seed)"},
      {"random_device", "std::random_device is nondeterministic by design; "
                        "use util::Rng"},
      {"mt19937", "std::mt19937 duplicates util::Rng without its seeding "
                  "discipline; use util::Rng"},
      {"mt19937_64", "std::mt19937_64 duplicates util::Rng; use util::Rng"},
      {"system_clock", "wall clocks diverge across runs; use sim::SimTime"},
      {"steady_clock", "wall clocks diverge across runs; use sim::SimTime"},
      {"high_resolution_clock",
       "wall clocks diverge across runs; use sim::SimTime"},
      {"gettimeofday", "wall clocks diverge across runs; use sim::SimTime"},
      {"clock_gettime", "wall clocks diverge across runs; use sim::SimTime"},
  };
  const std::vector<Token>& t = u.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::ident) continue;
    auto it = kBanned.find(t[i].text);
    if (it != kBanned.end()) {
      // Member accesses like `foo.rand` are not the libc symbol.
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
      add(out, u, "DET-BANNED", t[i].line,
          "'" + t[i].text + "': " + it->second);
      continue;
    }
    // `time(nullptr)` / `time(NULL)` / `time(0)` — the bare name is too
    // common to ban outright, so require the wall-clock call shape.
    if (t[i].text == "time" && i + 2 < t.size() && t[i + 1].text == "(" &&
        (t[i + 2].text == "nullptr" || t[i + 2].text == "NULL" ||
         t[i + 2].text == "0") &&
        i + 3 < t.size() && t[i + 3].text == ")") {
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
      add(out, u, "DET-BANNED", t[i].line,
          "time(...) reads the wall clock; use sim::SimTime");
    }
  }
}

namespace {

/// Idents that build an ordered artifact (JSON/JSONL emitters
/// and friends) directly from iteration order.
bool ordered_artifact_ident(const std::string& s) {
  std::string lower;
  lower.reserve(s.size());
  for (char c : s) lower += static_cast<char>(std::tolower(c));
  return lower.find("json") != std::string::npos ||
         lower.find("jsonl") != std::string::npos || lower == "append" ||
         lower == "write_line" || lower == "writeline";
}

/// Ordered-artifact exemption: a loop that fills a sequence and sorts it right
/// after is the CORRECT pattern (snapshot-then-sort); look for sort /
/// stable_sort in the loop body or shortly after it.
bool sorted_nearby(const std::vector<Token>& t, std::size_t body_begin,
                   std::size_t body_end) {
  std::size_t horizon = std::min(t.size(), body_end + 48);
  int depth = 0;
  for (std::size_t j = body_begin; j < horizon; ++j) {
    // Past the loop body the scan must stay inside the enclosing scope: a
    // sort in the NEXT function does not order this loop's artifact.
    if (j > body_end) {
      const std::string& s = t[j].text;
      if (s == "{") ++depth;
      else if (s == "}" && --depth < 0) break;
    }
    if (t[j].kind == Token::Kind::ident &&
        (t[j].text == "sort" || t[j].text == "stable_sort")) {
      return true;
    }
  }
  return false;
}

}  // namespace

void rule_det_unord_iter(const Unit& u, const std::set<std::string>& unordered,
                         std::vector<Finding>& out) {
  const std::vector<Token>& t = u.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "for" || t[i + 1].text != "(") continue;
    std::size_t close = match_forward(t, i + 1);
    if (close >= t.size()) continue;
    // Find the range-for ':' at parenthesis depth 1 ("::" is one token, so
    // it cannot be confused with it).
    std::size_t colon = close;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]" || s == "}") --depth;
      else if (s == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == close) continue;  // classic for, not range-for
    // Only a bare identifier range: `for (... : name_)`.  Expressions like
    // `m.keys()` or `ports_[i]->queues` already pick their own order.
    if (close - colon != 2 || t[colon + 1].kind != Token::Kind::ident) continue;
    const std::string& name = t[colon + 1].text;
    if (unordered.count(name) == 0) continue;
    // Body extent: balanced block or single statement.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < t.size() && t[body_begin].text == "{") {
      body_end = match_forward(t, body_begin);
    } else {
      body_end = body_begin;
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }
    bool flagged = false;
    for (std::size_t j = body_begin; j < body_end && j < t.size(); ++j) {
      if (t[j].kind == Token::Kind::ident && effectful_ident(t[j].text)) {
        add(out, u, "DET-UNORD-ITER", t[i].line,
            "iteration over unordered container '" + name +
                "' reaches the event queue or the wire (via '" + t[j].text +
                "'); hash order is not part of the replayed state — iterate "
                "a sorted snapshot");
        flagged = true;
        break;
      }
    }
    if (flagged) continue;
    // The body builds an ordered artifact in place.  A loop whose result is
    // sorted in or right after the body is the sanctioned snapshot-then-sort
    // idiom and stays clean.
    for (std::size_t j = body_begin; j < body_end && j < t.size(); ++j) {
      // `out << ...` in the body appends to a stream in hash order.
      if (t[j].text == "<<" && !sorted_nearby(t, body_begin, body_end)) {
        add(out, u, "DET-UNORD-ITER", t[i].line,
            "iteration over unordered container '" + name +
                "' appends to a stream in hash order; collect into a "
                "snapshot and sort it before emitting");
        break;
      }
      if (t[j].kind != Token::Kind::ident) continue;
      bool emitter = ordered_artifact_ident(t[j].text) || t[j].text == "puts" ||
                     t[j].text == "printf" || t[j].text == "fprintf";
      bool seq_build =
          (t[j].text == "push_back" || t[j].text == "emplace_back") &&
          !sorted_nearby(t, body_begin, body_end);
      if (emitter || seq_build) {
        add(out, u, "DET-UNORD-ITER", t[i].line,
            "iteration over unordered container '" + name +
                "' builds an ordered artifact (via '" + t[j].text +
                "') in hash order; collect into a snapshot and sort it "
                "before emitting");
        break;
      }
    }
  }
}

void rule_det_ptr_key(const Unit& u, std::vector<Finding>& out) {
  const std::vector<Token>& t = u.toks;
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (t[i].text != "std" || t[i + 1].text != "::") continue;
    const std::string& k = t[i + 2].text;
    if (k != "map" && k != "set" && k != "multimap" && k != "multiset")
      continue;
    if (t[i + 3].text != "<") continue;
    std::size_t close = match_forward(t, i + 3);
    if (close >= t.size()) continue;
    // First template argument: up to the ',' at angle depth 1 (or the close
    // for std::set).
    std::size_t last = i + 3;
    int depth = 0;
    for (std::size_t j = i + 3; j <= close; ++j) {
      const std::string& s = t[j].text;
      if (s == "<" || s == "(" || s == "[") ++depth;
      else if (s == ">" || s == ")" || s == "]") --depth;
      else if (s == ">>") depth -= 2;
      if ((s == "," && depth == 1) || j == close) {
        last = j - 1;
        break;
      }
    }
    if (t[last].text == "*") {
      add(out, u, "DET-PTR-KEY", t[i].line,
          "std::" + k + " keyed by a pointer orders by address, which varies "
          "run to run; key by a stable id instead");
    }
  }
}

// ---------------------------------------------------------------- LIFE

void rule_life_ref_capture(const Unit& u, std::vector<Finding>& out) {
  static const std::set<std::string> kSinks = {"schedule", "schedule_at",
                                               "arm"};
  const std::vector<Token>& t = u.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::ident || kSinks.count(t[i].text) == 0)
      continue;
    if (t[i + 1].text != "(") continue;
    std::size_t close = match_forward(t, i + 1);
    if (close >= t.size()) continue;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].text != "[") continue;
      std::size_t cb = match_forward(t, j);
      if (cb >= close) continue;
      // A lambda introducer is a '[...]' followed by '(' , '{' or 'mutable'.
      if (cb + 1 >= t.size()) continue;
      const std::string& nxt = t[cb + 1].text;
      if (nxt != "(" && nxt != "{" && nxt != "mutable") continue;
      bool by_ref = false;
      for (std::size_t c = j + 1; c < cb && !by_ref; ++c) {
        by_ref = (c == j + 1 || t[c - 1].text == ",") &&
                 (t[c].text == "&" || t[c].text == "&&");
      }
      if (by_ref) {
        // Anchor at the sink call, not the capture: that is the statement
        // line an annotation naturally sits above.  One finding per sink
        // call, so a by-reference lambda nested in the scheduled one is not
        // reported a second time at the same line.
        add(out, u, "LIFE-REF-CAPTURE", t[i].line,
            "by-reference lambda capture passed to '" + t[i].text +
                "': the pooled engine runs this after the enclosing frame "
                "is gone — capture by value (or a weak liveness token)");
        break;
      }
      j = cb;  // skip past this lambda's capture list
    }
  }
}

void rule_life_timer_rearm(const Unit& u, std::vector<Finding>& out) {
  static const std::set<std::string> kSinks = {"schedule", "schedule_at",
                                               "arm"};
  const std::vector<Token>& t = u.toks;
  // Argument spans of every sink call: lambdas inside them are
  // LIFE-REF-CAPTURE's territory, not this rule's.
  std::vector<std::pair<std::size_t, std::size_t>> sink_args;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::ident || kSinks.count(t[i].text) == 0)
      continue;
    if (t[i + 1].text != "(") continue;
    std::size_t close = match_forward(t, i + 1);
    if (close < t.size()) sink_args.emplace_back(i + 1, close);
  }
  auto inside_sink = [&](std::size_t k) {
    for (const auto& [b, e] : sink_args) {
      if (b < k && k < e) return true;
    }
    return false;
  };
  for (std::size_t j = 0; j + 1 < t.size(); ++j) {
    if (t[j].text != "[") continue;
    std::size_t cb = match_forward(t, j);
    if (cb + 1 >= t.size()) continue;
    // A lambda introducer is a '[...]' followed by '(', '{' or 'mutable'.
    const std::string& nxt = t[cb + 1].text;
    if (nxt != "(" && nxt != "{" && nxt != "mutable") continue;
    if (inside_sink(j)) {
      j = cb;
      continue;
    }
    bool by_ref = false;
    for (std::size_t c = j + 1; c < cb; ++c) {
      bool capture_pos = c == j + 1 || t[c - 1].text == ",";
      if (capture_pos && (t[c].text == "&" || t[c].text == "&&")) {
        by_ref = true;
        break;
      }
    }
    if (!by_ref) {
      j = cb;
      continue;
    }
    // Locate the lambda body.
    std::size_t b = cb + 1;
    if (b < t.size() && t[b].text == "(") b = match_forward(t, b) + 1;
    while (b < t.size() && t[b].text != "{" && t[b].text != ";" &&
           t[b].text != ")") {
      if (t[b].text == "<" || t[b].text == "(") {
        b = match_forward(t, b) + 1;
        continue;
      }
      ++b;
    }
    if (b >= t.size() || t[b].text != "{") {
      j = cb;
      continue;
    }
    std::size_t body_end = match_forward(t, b);
    for (std::size_t k = b + 1; k < body_end && k < t.size(); ++k) {
      if (t[k].kind == Token::Kind::ident && kSinks.count(t[k].text) != 0) {
        add(out, u, "LIFE-TIMER-REARM", t[j].line,
            "by-reference capture in a lambda that re-arms via '" + t[k].text +
                "': every later firing of the chain runs after the frame the "
                "capture was taken in is gone — capture by value (or a weak "
                "liveness token)");
        break;
      }
    }
    j = cb;
  }
}

// ----------------------------------------------------------------- HYG

void rule_hyg(const Unit& u, std::vector<Finding>& out) {
  if (u.is_header) {
    bool has_pragma = false;
    for (const Directive& d : u.directives) {
      if (d.text.find("#pragma") == 0 &&
          d.text.find("once") != std::string::npos) {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      add(out, u, "HYG-PRAGMA-ONCE", 1,
          "header lacks '#pragma once' (every xunet header uses it)");
    }
  }
  static const std::map<std::string, const char*> kBannedIncl = {
      {"chrono", "wall-clock time; simulation time is sim::SimTime"},
      {"ctime", "wall-clock time; simulation time is sim::SimTime"},
      {"thread", "the simulator is single-threaded by design"},
      {"mutex", "the simulator is single-threaded by design"},
      {"shared_mutex", "the simulator is single-threaded by design"},
      {"condition_variable", "the simulator is single-threaded by design"},
      {"future", "the simulator is single-threaded by design"},
      {"random", "randomness flows through util::Rng so runs replay"},
      {"iostream", "components report through obs, not stdio streams"},
  };
  for (const Directive& d : u.directives) {
    if (d.text.find("#include") != 0) continue;
    std::size_t lt = d.text.find('<');
    std::size_t gt = d.text.find('>', lt == std::string::npos ? 0 : lt);
    if (lt != std::string::npos && gt != std::string::npos) {
      std::string hdr = d.text.substr(lt + 1, gt - lt - 1);
      auto it = kBannedIncl.find(hdr);
      if (it != kBannedIncl.end() &&
          !(hdr == "random" && path_has(u.rel, "util/rng"))) {
        add(out, u, "HYG-BANNED-INCLUDE", d.line,
            "<" + hdr + ">: " + it->second);
      }
      continue;
    }
    std::size_t q1 = d.text.find('"');
    std::size_t q2 = d.text.find('"', q1 == std::string::npos ? 0 : q1 + 1);
    if (q1 != std::string::npos && q2 != std::string::npos) {
      std::string hdr = d.text.substr(q1 + 1, q2 - q1 - 1);
      if (hdr.find("../") != std::string::npos) {
        add(out, u, "HYG-REL-INCLUDE", d.line,
            "\"" + hdr + "\" escapes the include root; include "
            "root-relative (\"kern/kernel.hpp\") instead");
      }
    }
  }
}

// --------------------------------------------------------------- STATE
//
// Extraction and table parsing live in statemachine.cpp (shared with
// tools/xunet_model); only the exhaustive both-direction diff is a rule.

void rule_state(const Unit& u, const std::vector<Transition>& extracted,
                const std::vector<Transition>& declared,
                const std::string& machine, const std::string& table,
                std::vector<Finding>& out) {
  auto key = [](const Transition& t) { return t.fn + "|" + t.list + "|" + t.op; };
  auto describe = [](const Transition& t) {
    // Assignment machines read better as "sets state 'x'" than as an op on
    // a list.
    if (t.op == "assign") return "sets state '" + t.list + "'";
    return "does '" + t.op + "' on " + t.list;
  };
  std::set<std::string> decl;
  for (const Transition& t : declared) decl.insert(key(t));
  std::set<std::string> got;
  for (const Transition& t : extracted) got.insert(key(t));
  for (const Transition& t : extracted) {
    if (decl.count(key(t)) == 0) {
      add(out, u, "STATE-UNDECLARED", t.line,
          "undeclared " + machine + " transition: " + t.fn + " " +
              describe(t) + " — declare it in the transition table (" +
              table + ") or remove the mutation");
    }
  }
  for (const Transition& t : declared) {
    if (got.count(key(t)) == 0) {
      add(out, u, "STATE-MISSING", 1,
          "declared " + machine + " transition has no code site: " + t.fn +
              " " + describe(t) + " (stale table entry, line " +
              std::to_string(t.line) + ")");
    }
  }
}

}  // namespace xunet::lint
