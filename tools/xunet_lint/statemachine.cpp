// statemachine.cpp — machine-parameterized state extraction and the table
// loaders shared by xunet_lint and tools/xunet_model.
#include "xunet_lint/statemachine.hpp"

#include <array>
#include <fstream>
#include <set>
#include <sstream>

namespace xunet::lint {
namespace {

/// Keywords that look like `ident (` but never open a function definition.
/// `constexpr` covers `if constexpr (...)`.
const std::set<std::string>& not_a_function() {
  static const std::set<std::string> k = {
      "if",       "for",      "while",     "switch",   "catch",
      "return",   "sizeof",   "alignof",   "decltype", "static_assert",
      "assert",   "throw",    "new",       "delete",   "case",
      "co_await", "co_return","co_yield",  "constexpr",
  };
  return k;
}

/// After a definition's parameter close paren, find the body '{' — skipping
/// cv/ref qualifiers, noexcept(...), trailing return types, and constructor
/// init lists.  Returns toks.size() when the construct is a call, a
/// declaration, or anything else without a body.
std::size_t find_body_open(const std::vector<Token>& t, std::size_t close) {
  std::size_t n = t.size();
  bool in_init = false;  // inside a constructor initializer list
  for (std::size_t j = close + 1; j < n;) {
    const std::string& s = t[j].text;
    if (s == ";" || s == "=") return n;  // declaration / `= default` / call
    if (s == "{") {
      // In an init list, `member{args}` braces are initializers, not the
      // body; the body brace follows a ')' or '}' initializer.
      if (in_init && t[j - 1].text != ")" && t[j - 1].text != "}") {
        std::size_t m = match_forward(t, j);
        if (m >= n) return n;
        j = m + 1;
        continue;
      }
      return j;
    }
    if (s == "(" || s == "[" || s == "<") {
      std::size_t m = match_forward(t, j);
      if (m >= n) return n;
      j = m + 1;
      continue;
    }
    if (s == ":") {
      in_init = true;
      ++j;
      continue;
    }
    if (s == "," || s == "::" || s == "&" || s == "&&" || s == "*" ||
        s == "..." || s == "->" || t[j].kind == Token::Kind::ident ||
        t[j].kind == Token::Kind::number) {
      ++j;
      continue;
    }
    return n;  // any other operator: this was a call expression
  }
  return n;
}

const std::map<std::string, const char*>& list_ops() {
  static const std::map<std::string, const char*> k = {
      {"emplace", "insert"}, {"try_emplace", "insert"}, {"insert", "insert"},
      {"insert_or_assign", "insert"}, {"erase", "erase"}, {"extract", "erase"},
      {"clear", "clear"},
  };
  return k;
}

/// One row of a three-field table.
struct TableRow {
  std::array<std::string, 3> field;
  int line = 0;
};

/// Read a `#`-commented table of whitespace-separated three-field rows,
/// skipping blank and comment-only lines.  `kind` names the table in
/// errors; `expected` and `shape` spell the row for a short and a long row.
/// On a malformed row `err` is set and the result is empty.
std::vector<TableRow> read_rows(const std::string& path, const char* kind,
                                const char* expected, const char* shape,
                                std::string& err) {
  std::vector<TableRow> out;
  std::ifstream in(path);
  if (!in) {
    err = std::string("cannot read ") + kind + " table: " + path;
    return out;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    TableRow r;
    r.line = lineno;
    if (!(ss >> r.field[0])) continue;  // blank / comment-only line
    const std::string at =
        std::string(kind) + " table line " + std::to_string(lineno);
    if (!(ss >> r.field[1] >> r.field[2])) {
      err = at + ": expected '" + expected + "'";
      return {};
    }
    std::string extra;
    if (ss >> extra) {
      err = at + ": trailing tokens after '" + shape + "'";
      return {};
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

MachineSpec sighost_machine() {
  MachineSpec s;
  s.name = "sighost";
  // Member-list name -> the paper's list name (PAPER.md §5).
  s.lists = {
      {"services_", "service_list"},
      {"outgoing_", "outgoing_requests"},
      {"incoming_", "incoming_requests"},
      {"wait_bind_", "wait_for_bind"},
      {"vci_map_", "vci_mapping"},
  };
  return s;
}

MachineSpec kern_socket_machine() {
  MachineSpec s;
  s.name = "kern_socket";
  s.state_field = "state";
  s.state_enum = "SocketState";
  return s;
}

std::vector<FnSpan> function_spans(const std::vector<Token>& t) {
  std::vector<FnSpan> spans;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::ident || t[i + 1].text != "(") continue;
    if (not_a_function().count(t[i].text) != 0) continue;
    // Member calls (`obj.fn(`, `p->fn(`) are never definitions.
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
    std::size_t close = match_forward(t, i + 1);
    if (close >= t.size()) continue;
    std::size_t body = find_body_open(t, close);
    if (body >= t.size()) continue;
    std::size_t end = match_forward(t, body);
    if (end >= t.size()) continue;
    spans.push_back({t[i].text, body, end});
    // Skip the whole body: C++ has no nested named definitions worth
    // tracking, and skipping prevents `ident (...) {` shapes inside the
    // body from masquerading as inner functions.
    i = end;
  }
  return spans;
}

std::vector<Transition> extract_machine(const Unit& u,
                                        const MachineSpec& spec) {
  const std::vector<Token>& t = u.toks;
  std::vector<FnSpan> spans = function_spans(t);
  auto fn_at = [&](std::size_t k) -> std::string {
    for (const FnSpan& s : spans) {
      if (s.begin < k && k < s.end) return s.name;
    }
    return "<file-scope>";
  };
  std::vector<Transition> out;
  std::set<std::string> seen;
  auto record = [&](std::string fn, const std::string& list,
                    const std::string& op, int line) {
    std::string key = fn + "|" + list + "|" + op;
    if (!seen.insert(key).second) return;
    Transition tr;
    tr.fn = std::move(fn);
    tr.list = list;
    tr.op = op;
    tr.line = line;
    out.push_back(std::move(tr));
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::ident) continue;
    auto lit = spec.lists.find(t[i].text);
    if (lit != spec.lists.end() && i + 2 < t.size()) {
      if (t[i + 1].text == "." && t[i + 2].kind == Token::Kind::ident) {
        auto oit = list_ops().find(t[i + 2].text);
        if (oit != list_ops().end()) {
          record(fn_at(i), lit->second, oit->second, t[i].line);
        }
        continue;
      }
      // `list_[key] = value;` inserts through operator[].
      if (t[i + 1].text == "[") {
        std::size_t cb = match_forward(t, i + 1);
        if (cb + 1 < t.size() && t[cb + 1].text == "=") {
          record(fn_at(i), lit->second, "insert", t[i].line);
        }
        continue;
      }
    }
    // `obj.state = SocketState::bound` — the `.`/`->` requirement excludes
    // default member initializers (`SocketState state = SocketState::...`).
    if (!spec.state_enum.empty() && t[i].text == spec.state_field && i > 0 &&
        (t[i - 1].text == "." || t[i - 1].text == "->") && i + 4 < t.size() &&
        t[i + 1].text == "=" && t[i + 2].text == spec.state_enum &&
        t[i + 3].text == "::" && t[i + 4].kind == Token::Kind::ident) {
      record(fn_at(i), t[i + 4].text, "assign", t[i].line);
    }
  }
  return out;
}

std::vector<Transition> load_state_table(const std::string& path,
                                         std::string& err) {
  std::vector<Transition> out;
  for (TableRow& r : read_rows(path, "state", "<fn> <list> <op>",
                               "<fn> <list> <op>", err)) {
    Transition tr;
    tr.fn = std::move(r.field[0]);
    tr.list = std::move(r.field[1]);
    tr.op = std::move(r.field[2]);
    tr.line = r.line;
    out.push_back(std::move(tr));
  }
  return out;
}

std::vector<MachineEdge> load_machine_table(const std::string& path,
                                            std::string& err) {
  std::vector<MachineEdge> out;
  for (TableRow& r : read_rows(path, "machine", "<fn> <from[,from...]|*> <to>",
                               "<fn> <from> <to>", err)) {
    MachineEdge e;
    e.fn = std::move(r.field[0]);
    e.to = std::move(r.field[2]);
    e.line = r.line;
    const std::string& from = r.field[1];
    std::size_t b = 0;
    while (b <= from.size()) {
      std::size_t c = from.find(',', b);
      std::string one =
          from.substr(b, c == std::string::npos ? c : c - b);
      if (one.empty()) {
        err = "machine table line " + std::to_string(r.line) +
              ": empty source state in '" + from + "'";
        return {};
      }
      e.from.push_back(std::move(one));
      if (c == std::string::npos) break;
      b = c + 1;
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<Transition> machine_to_transitions(
    const std::vector<MachineEdge>& edges) {
  std::vector<Transition> out;
  std::set<std::string> seen;
  for (const MachineEdge& e : edges) {
    if (!seen.insert(e.fn + "|" + e.to).second) continue;
    Transition tr;
    tr.fn = e.fn;
    tr.list = e.to;
    tr.op = "assign";
    tr.line = e.line;
    out.push_back(std::move(tr));
  }
  return out;
}

}  // namespace xunet::lint
