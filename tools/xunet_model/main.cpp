// main.cpp — xunet_model CLI.
//
// Usage:
//   xunet_model --sighost-table FILE --kern-table FILE [options]
//     --sighost-table FILE   declared sighost transitions (fn list op)
//     --kern-table FILE      declared kernel SocketState edges
//                            (fn from[,from...]|* to)
//     --json FILE            also write the xunet.model.v1 report
//     --sabotage-recover     self-test mode: crash recovery rebuilds nothing
//                            (the checker must then produce findings)
//     --max-states N         exploration bound (default 4000000)
//
// Exit status: 0 clean, 1 findings, 2 usage/configuration error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "xunet_model/model.hpp"

int main(int argc, char** argv) {
  std::string sighost_table;
  std::string kern_table;
  std::string json_path;
  xunet::model::Options opt;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need_val = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xunet_model: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--sighost-table") sighost_table = need_val("--sighost-table");
    else if (a == "--kern-table") kern_table = need_val("--kern-table");
    else if (a == "--json") json_path = need_val("--json");
    else if (a == "--sabotage-recover") opt.sabotage_recover = true;
    else if (a == "--max-states")
      opt.max_states = std::strtoull(need_val("--max-states"), nullptr, 10);
    else if (a == "--help" || a == "-h") {
      std::fprintf(stderr,
                   "usage: xunet_model --sighost-table FILE --kern-table "
                   "FILE\n"
                   "                   [--json FILE] [--sabotage-recover] "
                   "[--max-states N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "xunet_model: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  if (sighost_table.empty() || kern_table.empty()) {
    std::fprintf(stderr,
                 "xunet_model: --sighost-table and --kern-table are "
                 "required\n");
    return 2;
  }

  std::string err;
  auto sighost = xunet::lint::load_state_table(sighost_table, err);
  if (!err.empty()) {
    std::fprintf(stderr, "xunet_model: %s\n", err.c_str());
    return 2;
  }
  auto kern = xunet::lint::load_machine_table(kern_table, err);
  if (!err.empty()) {
    std::fprintf(stderr, "xunet_model: %s\n", err.c_str());
    return 2;
  }
  xunet::model::Result r = xunet::model::check(sighost, kern, opt);
  std::fputs(xunet::model::render_text(r).c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "xunet_model: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << xunet::model::render_json(r);
  }
  return r.ok() ? 0 : 1;
}
