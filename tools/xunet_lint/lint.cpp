// lint.cpp — the xunet_lint driver: file discovery, rule composition,
// suppression by inline annotation, and the text / xunet.lint.v1
// renderers.
#include "xunet_lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "util/json.hpp"
#include "util/loc_scan.hpp"
#include "xunet_lint/rules.hpp"
#include "xunet_lint/scan.hpp"

namespace xunet::lint {
namespace {

namespace fs = std::filesystem;

std::string rel_to_root(const std::string& path, const std::string& root) {
  std::error_code ec;
  fs::path p = fs::weakly_canonical(path, ec);
  fs::path r = fs::weakly_canonical(root, ec);
  std::string ps = p.generic_string();
  std::string rs = r.generic_string();
  if (!rs.empty() && rs.back() != '/') rs += '/';
  if (ps.compare(0, rs.size(), rs) == 0) return ps.substr(rs.size());
  return path;
}

/// stem of "a/b/foo.cpp" -> "a/b/foo" (for .cpp <-> .hpp pairing).
std::string stem_of(const std::string& rel) {
  std::size_t dot = rel.find_last_of('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Report run_lint(const std::vector<std::string>& paths, const Config& cfg) {
  Report r;

  // ---- discovery: files as-is, directories via util::list_source_files.
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (std::string& f : util::list_source_files(p, /*recurse=*/true)) {
        files.push_back(std::move(f));
      }
    } else {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // ---- lex everything first: DET-UNORD-ITER needs the sibling header's
  // member declarations when scanning a .cpp.
  std::vector<Unit> units;
  units.reserve(files.size());
  for (const std::string& f : files) {
    bool ok = false;
    Unit u = lex_file(f, rel_to_root(f, cfg.root), ok);
    if (!ok) {
      r.notes.push_back("unreadable: " + f);
      continue;
    }
    units.push_back(std::move(u));
  }
  // Re-sort by rel path so findings are ordered the same from any checkout,
  // and keep one unit per file however many spellings named it.
  std::sort(units.begin(), units.end(),
            [](const Unit& a, const Unit& b) { return a.rel < b.rel; });
  units.erase(std::unique(units.begin(), units.end(),
                          [](const Unit& a, const Unit& b) {
                            return a.rel == b.rel;
                          }),
              units.end());
  r.files_scanned = units.size();
  std::map<std::string, const Unit*> by_stem;
  for (const Unit& u : units) {
    if (u.is_header) by_stem.emplace(stem_of(u.rel), &u);
  }

  // The tool's own inputs are linted too: a table that fails to load and an
  // annotation that is malformed, reason-less or stale are LINT-ANNOT
  // findings.
  auto lint_annot = [&r](const std::string& file, int line,
                         std::string message) {
    Finding f;
    f.rule = "LINT-ANNOT";
    f.file = file;
    f.line = line;
    f.message = std::move(message);
    r.findings.push_back(std::move(f));
  };

  // ---- declared state tables.
  std::vector<Transition> declared;
  bool state_enabled = !cfg.state_table.empty();
  if (state_enabled) {
    std::string err;
    declared = load_state_table(cfg.state_table, err);
    if (!err.empty()) {
      lint_annot(cfg.state_table, 0, err);
      state_enabled = false;
    }
  }
  std::vector<Transition> kern_declared;
  bool kern_enabled = !cfg.kern_state_table.empty();
  if (kern_enabled) {
    std::string err;
    kern_declared = machine_to_transitions(
        load_machine_table(cfg.kern_state_table, err));
    if (!err.empty()) {
      lint_annot(cfg.kern_state_table, 0, err);
      kern_enabled = false;
    }
  }

  // ---- rules.
  for (const Unit& u : units) {
    rule_det_banned(u, r.findings);
    rule_det_ptr_key(u, r.findings);
    rule_life_ref_capture(u, r.findings);
    rule_life_timer_rearm(u, r.findings);
    rule_hyg(u, r.findings);
    std::set<std::string> unordered = u.unordered_names;
    if (!u.is_header) {
      auto hit = by_stem.find(stem_of(u.rel));
      if (hit != by_stem.end()) {
        unordered.insert(hit->second->unordered_names.begin(),
                         hit->second->unordered_names.end());
      }
    }
    rule_det_unord_iter(u, unordered, r.findings);
    if (ends_with(u.rel, cfg.state_file)) {
      r.transitions = extract_machine(u, sighost_machine());
      if (state_enabled) {
        rule_state(u, r.transitions, declared, "sighost",
                   "tools/xunet_lint/sighost_state.tbl", r.findings);
      }
    }
    if (ends_with(u.rel, cfg.kern_state_file)) {
      r.kern_transitions = extract_machine(u, kern_socket_machine());
      if (kern_enabled) {
        rule_state(u, r.kern_transitions, kern_declared, "kern_socket",
                   "tools/xunet_lint/kern_socket_state.tbl", r.findings);
      }
    }
    for (const Allow& a : u.allows) {
      if (a.malformed) {
        lint_annot(u.rel, a.line,
                   "malformed xunet-lint annotation; expected "
                   "'xunet-lint: allow(<rule>[,<rule>...]) -- <reason>'");
      } else if (a.reason.empty()) {
        lint_annot(u.rel, a.line,
                   "allow(...) without a reason; append '-- <why this "
                   "instance is safe>'");
      }
    }
  }

  // ---- suppression: inline annotations.
  std::map<std::string, Unit*> by_rel;
  for (Unit& u : units) by_rel.emplace(u.rel, &u);
  for (Finding& f : r.findings) {
    if (f.rule == "LINT-ANNOT") continue;  // annotations cannot self-allow
    auto uit = by_rel.find(f.file);
    if (uit == by_rel.end()) continue;
    for (Allow& a : uit->second->allows) {
      if (a.malformed || a.reason.empty()) continue;
      if (a.target_line != f.line) continue;
      if (std::find(a.rules.begin(), a.rules.end(), f.rule) == a.rules.end())
        continue;
      f.suppressed = true;
      f.reason = a.reason;
      a.used = true;
      break;
    }
  }

  for (const Unit& u : units) {
    for (const Allow& a : u.allows) {
      if (!a.malformed && !a.reason.empty() && !a.used) {
        lint_annot(u.rel, a.line,
                   "stale allow(...) suppresses nothing; delete it, or name "
                   "the rule its target line is flagged for");
      }
    }
  }

  std::sort(r.findings.begin(), r.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return r;
}

std::string render_text(const Report& r) {
  std::ostringstream out;
  for (const Finding& f : r.findings) {
    if (f.suppressed) continue;
    out << f.file << ":" << f.line << ": error: [" << f.rule << "] "
        << f.message << "\n";
  }
  std::size_t suppressed = r.findings.size() - r.unsuppressed();
  for (const std::string& n : r.notes) out << "note: " << n << "\n";
  out << "xunet_lint: " << r.files_scanned << " files, " << r.unsuppressed()
      << " findings (" << suppressed << " suppressed)\n";
  return out.str();
}

std::string render_json(const Report& r) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"xunet.lint.v1\",\n";
  out += "  \"tool\": \"xunet_lint\",\n";
  out += "  \"files_scanned\": " + std::to_string(r.files_scanned) + ",\n";
  out += "  \"total\": " + std::to_string(r.findings.size()) + ",\n";
  out += "  \"unsuppressed\": " + std::to_string(r.unsuppressed()) + ",\n";
  out += "  \"findings\": [";
  bool first = true;
  for (const Finding& f : r.findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": \"";
    out += util::json_escape(f.rule);
    out += "\", \"file\": \"";
    out += util::json_escape(f.file);
    out += "\", \"line\": " + std::to_string(f.line);
    out += ", \"suppressed\": ";
    out += f.suppressed ? "true" : "false";
    out += ", \"reason\": \"";
    out += util::json_escape(f.reason);
    out += "\", \"message\": \"";
    out += util::json_escape(f.message);
    out += "\"}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace xunet::lint
