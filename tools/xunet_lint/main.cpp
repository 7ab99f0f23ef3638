// main.cpp — xunet_lint CLI.
//
// Usage:
//   xunet_lint [options] [path...]
//     --root DIR              report paths relative to DIR (default ".")
//     --state-table FILE      declared sighost transitions (fn list op)
//     --kern-state-table FILE declared kernel SocketState transitions
//                             (fn from[,from...]|* to)
//     --compile-commands FILE add the translation units listed in a
//                             compile_commands.json (build-derived file list)
//     --filter PREFIX         keep only files whose root-relative path starts
//                             with PREFIX (e.g. `src`); repeatable.  Scopes a
//                             compile_commands-derived list to product code,
//                             excluding the linter's own sources and test
//                             fixtures, which intentionally contain the
//                             patterns the rules hunt.
//     --json FILE             also write machine-readable findings
//                             (schema xunet.lint.v1)
//     --dump-state            print the transitions extracted from the
//                             sighost source and exit (used to seed/refresh
//                             the table)
//
// Paths may be files or directories (scanned recursively for
// .hpp/.cpp/.h/.cc).  With no paths, `<root>/src` is scanned.
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage/configuration error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "xunet_lint/lint.hpp"

namespace {

/// Pull the "file" entries out of a compile_commands.json.  This is not a
/// JSON parser: compile_commands is machine-written with one "file" key per
/// entry, which a string scan extracts reliably.
std::vector<std::string> files_from_compile_commands(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  const std::string tag = "\"file\"";
  std::size_t p = 0;
  while ((p = s.find(tag, p)) != std::string::npos) {
    p += tag.size();
    std::size_t q1 = s.find('"', p);
    if (q1 == std::string::npos) break;
    std::size_t q2 = s.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    out.push_back(s.substr(q1 + 1, q2 - q1 - 1));
    p = q2 + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  xunet::lint::Config cfg;
  std::vector<std::string> paths;
  std::vector<std::string> filters;
  std::string json_path;
  std::string compile_commands;
  bool dump_state = false;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need_val = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xunet_lint: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--root") cfg.root = need_val("--root");
    else if (a == "--state-table") cfg.state_table = need_val("--state-table");
    else if (a == "--kern-state-table")
      cfg.kern_state_table = need_val("--kern-state-table");
    else if (a == "--compile-commands")
      compile_commands = need_val("--compile-commands");
    else if (a == "--filter") filters.push_back(need_val("--filter"));
    else if (a == "--json") json_path = need_val("--json");
    else if (a == "--dump-state") dump_state = true;
    else if (a == "--help" || a == "-h") {
      std::fprintf(stderr,
                   "usage: xunet_lint [--root DIR] [--state-table FILE]\n"
                   "                  [--kern-state-table FILE] "
                   "[--compile-commands FILE]\n"
                   "                  [--filter PREFIX] [--json FILE] "
                   "[--dump-state] [path...]\n");
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "xunet_lint: unknown option %s\n", a.c_str());
      return 2;
    } else {
      paths.push_back(a);
    }
  }
  if (!compile_commands.empty()) {
    std::error_code ec;
    for (const std::string& f : files_from_compile_commands(compile_commands)) {
      // Only lint translation units inside the tree (skip _deps etc.).
      auto canon = std::filesystem::weakly_canonical(f, ec).generic_string();
      auto root = std::filesystem::weakly_canonical(cfg.root, ec).generic_string();
      if (canon.compare(0, root.size(), root) == 0 &&
          canon.find("/_deps/") == std::string::npos &&
          std::filesystem::is_regular_file(f, ec)) {
        paths.push_back(f);
      }
    }
  }
  if (paths.empty()) paths.push_back(cfg.root + "/src");
  if (!filters.empty()) {
    std::error_code ec;
    auto root = std::filesystem::weakly_canonical(cfg.root, ec).generic_string();
    std::vector<std::string> kept;
    for (const std::string& p : paths) {
      auto canon = std::filesystem::weakly_canonical(p, ec).generic_string();
      std::string rel = canon.compare(0, root.size() + 1, root + "/") == 0
                            ? canon.substr(root.size() + 1)
                            : canon;
      for (const std::string& pre : filters) {
        if (rel.compare(0, pre.size(), pre) == 0) {
          kept.push_back(p);
          break;
        }
      }
    }
    paths = std::move(kept);
  }

  xunet::lint::Report r = xunet::lint::run_lint(paths, cfg);
  if (dump_state) {
    for (const auto& t : r.transitions) {
      std::printf("%-28s %-20s %s\n", t.fn.c_str(), t.list.c_str(),
                  t.op.c_str());
    }
    for (const auto& t : r.kern_transitions) {
      std::printf("%-28s %-20s %s\n", t.fn.c_str(), t.list.c_str(),
                  t.op.c_str());
    }
    return 0;
  }
  std::fputs(xunet::lint::render_text(r).c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "xunet_lint: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << xunet::lint::render_json(r);
  }
  return r.unsuppressed() == 0 ? 0 : 1;
}
