// bench_table2_code_sizes — reproduces Table 2: "Code sizes for principal
// components at a host".
//
// The paper reports lines of C (with comments) plus text/data/bss sizes for
// sighost, the user library, /dev/anand, PF_XUNET, IPPROTO_ATM and Orc.
// The reproduction scans this library's source tree and reports the same
// component decomposition (lines with comments, code lines, bytes of
// source).  Absolute numbers differ — C++ with doc comments vs. 1994 C —
// but the *relative* structure (sighost dominates; the kernel pieces are
// each a few hundred lines) is the reproducible claim.
#include <algorithm>
#include <filesystem>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "util/loc_scan.hpp"

namespace xunet::bench {
namespace {

void run() {
  banner("Table 2: code sizes of the principal components");

  const std::string root = XUNET_SOURCE_DIR;
  const std::string kern = root + "/src/kern/";
  struct Entry {
    util::ComponentSize size;
    std::string paper_lines;
  };
  // Map this repo onto the paper's exact component rows (Table 2 lists
  // sighost, user lib, /dev/anand, PF_XUNET, IPPROTO_ATM and Orc).
  std::vector<Entry> components;
  components.push_back({util::scan_component("Sighost (src/signaling)",
                                             root + "/src/signaling"),
                        "1204"});
  components.push_back(
      {util::scan_component("User lib (src/userlib)", root + "/src/userlib"),
       "373"});
  components.push_back(
      {util::scan_files("/dev/anand", {kern + "anand.hpp", kern + "anand.cpp"}),
       "382"});
  components.push_back(
      {util::scan_files("PF_XUNET + socket layer",
                        {kern + "kernel.hpp", kern + "kernel.cpp",
                         kern + "mbuf.hpp", kern + "mbuf.cpp",
                         kern + "config.hpp"}),
       "463"});
  components.push_back(
      {util::scan_files("IPPROTO_ATM",
                        {kern + "proto_atm.hpp", kern + "proto_atm.cpp"}),
       "164"});
  components.push_back(
      {util::scan_files("Orc driver + Hobbit model",
                        {kern + "orc.hpp", kern + "orc.cpp",
                         kern + "hobbit.hpp", kern + "hobbit.cpp"}),
       "96"});
  components.push_back(
      {util::scan_component("ATM substrate (src/atm)", root + "/src/atm"),
       "n/a (Hobbit firmware + switches)"});
  components.push_back(
      {util::scan_component("IP substrate (src/ip)", root + "/src/ip"),
       "n/a (kernel IP)"});
  components.push_back(
      {util::scan_component("TCP model (src/tcpsim)", root + "/src/tcpsim"),
       "n/a (kernel TCP)"});

  util::TextTable t("Measured code sizes (this reproduction)");
  t.header({"Component", "Files", "Lines (w/ comments)", "Code lines", "KB",
            "Paper lines (C)"});
  for (const Entry& e : components) {
    t.row({e.size.name, std::to_string(e.size.files),
           std::to_string(e.size.lines), std::to_string(e.size.code_lines),
           util::fmt(double(e.size.bytes) / 1024.0, 1), e.paper_lines});
  }
  t.print();

  // The paper's qualitative claim: "The code size is fairly small compared
  // to the kernel size of ~1.75 MB."
  auto whole = util::scan_component("all", root + "/src", /*recurse=*/true);
  compare("total source (all modules)", "~2.7k lines of C",
          std::to_string(whole.lines) + " lines of C++ (" +
              util::fmt(double(whole.bytes) / 1024.0, 0) + " KB)");
  compare("largest single component", "sighost (1204 lines)",
          "signaling (" +
              std::to_string(
                  util::scan_component("sig", root + "/src/signaling").lines) +
              " lines)");

  // The code-size trajectory: lines per src/ module plus the bench and tool
  // trees, so a change's net line count is a number in BENCH_code_size.json.
  JsonReport rep("code_size");
  auto record = [&rep](const std::string& key, const util::ComponentSize& c) {
    rep.metric(key + "_lines", static_cast<double>(c.lines));
    rep.metric(key + "_code_lines", static_cast<double>(c.code_lines));
  };
  std::vector<std::string> modules;
  for (const auto& e : std::filesystem::directory_iterator(root + "/src")) {
    if (e.is_directory()) modules.push_back(e.path().filename().string());
  }
  std::sort(modules.begin(), modules.end());
  for (const std::string& m : modules) {
    record("src_" + m, util::scan_component(m, root + "/src/" + m, true));
  }
  record("src", whole);
  const auto benches = util::scan_component("bench", root + "/bench", true);
  const auto tools = util::scan_component("tools", root + "/tools", true);
  record("bench", benches);
  record("tools", tools);
  rep.metric("net_lines",
             static_cast<double>(whole.lines + benches.lines + tools.lines));
  rep.info("scope", "*.hpp/*.cpp/*.h/*.cc; lines include comments and blanks");
  rep.write();
}

}  // namespace
}  // namespace xunet::bench

int main() {
  xunet::bench::run();
  return 0;
}
