// model_test.cpp — drives the xunet_model checker: table parsing, exhaustive
// exploration of the real declared tables (which must be clean, with every
// declared transition proved reachable), the seeded-defect fixtures in
// tests/lint_fixtures/model/ (which must be flagged), the sabotage
// self-test, the xunet.model.v1 renderer against a golden report, and
// run-to-run determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "xunet_model/model.hpp"

namespace {

using xunet::lint::load_machine_table;
using xunet::lint::load_state_table;
using xunet::model::Finding;
using xunet::model::Options;
using xunet::model::Result;

const std::string kRepo = XUNET_SOURCE_DIR;
const std::string kSighostTbl = kRepo + "/tools/xunet_lint/sighost_state.tbl";
const std::string kKernTbl =
    kRepo + "/tools/xunet_lint/kern_socket_state.tbl";
const std::string kFix = kRepo + "/tests/lint_fixtures/model";

Result check_tables(const std::string& sighost, const std::string& kern,
                    Options opt = {}) {
  std::string err;
  auto s = load_state_table(sighost, err);
  EXPECT_EQ(err, "");
  auto k = load_machine_table(kern, err);
  EXPECT_EQ(err, "");
  return xunet::model::check(s, k, opt);
}

std::size_t count_kind(const Result& r, const std::string& kind) {
  return static_cast<std::size_t>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.kind == kind; }));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------- table parsing

TEST(ModelTables, KernTableParsesFromListsAndWildcard) {
  std::string err;
  auto edges = load_machine_table(kKernTbl, err);
  ASSERT_EQ(err, "");
  ASSERT_EQ(edges.size(), 4u);
  auto find = [&](const std::string& fn) {
    return std::find_if(edges.begin(), edges.end(),
                        [&](const auto& e) { return e.fn == fn; });
  };
  auto mark = find("mark_vci_disconnected");
  ASSERT_NE(mark, edges.end());
  EXPECT_EQ(mark->from, (std::vector<std::string>{"bound", "connected"}));
  EXPECT_EQ(mark->to, "disconnected");
  auto close = find("close_xunet");
  ASSERT_NE(close, edges.end());
  EXPECT_EQ(close->from, (std::vector<std::string>{"*"}));
}

TEST(ModelTables, MalformedFromListIsAnError) {
  const std::string bad = ::testing::TempDir() + "/bad_kern.tbl";
  {
    std::ofstream out(bad);
    out << "close_xunet bound, created\n";  // empty element in the from list
  }
  std::string err;
  auto edges = load_machine_table(bad, err);
  EXPECT_TRUE(edges.empty());
  EXPECT_NE(err, "");
}

// ---------------------------------------------- the real tables are sound

TEST(ModelCheck, RealTablesExploreCleanAndExhaustive) {
  Result r = check_tables(kSighostTbl, kKernTbl);
  EXPECT_TRUE(r.ok()) << xunet::model::render_text(r);
  // Every declared transition is proved reachable.
  EXPECT_EQ(r.sighost_reached, r.sighost_declared);
  EXPECT_EQ(r.kern_reached, r.kern_declared);
  // The product space must stay non-trivial: a collapsed state space would
  // mean the events stopped composing, not that the protocol got simpler.
  EXPECT_GE(r.states, 100000u);
  EXPECT_GT(r.edges, r.states);
}

// ------------------------------------------------- seeded-defect fixtures

TEST(ModelCheck, SeededUnreachableEntryIsFlagged) {
  Result r = check_tables(kFix + "/sighost_bogus.tbl", kKernTbl);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(count_kind(r, "MODEL-UNREACHABLE"), 1u);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_NE(r.findings[0].detail.find("handle_ghost_resync"),
            std::string::npos);
}

TEST(ModelCheck, SeededMissingCloseDeadlocksTheProduct) {
  // Without close_xunet no socket ever leaves its slot: the model must find
  // stuck non-terminal states (and report the first with a trace).
  Result r = check_tables(kSighostTbl, kFix + "/kern_missing_close.tbl");
  EXPECT_FALSE(r.ok());
  EXPECT_GE(count_kind(r, "MODEL-STUCK"), 1u);
  bool traced = std::any_of(r.findings.begin(), r.findings.end(),
                            [](const Finding& f) {
                              return f.kind == "MODEL-STUCK" &&
                                     f.detail.find("trace:") !=
                                         std::string::npos;
                            });
  EXPECT_TRUE(traced) << "first stuck example must carry its BFS trace";
}

TEST(ModelCheck, SabotagedRecoveryLeaksAreCaught) {
  // The chaos harness's sabotage seam (recovery rebuilds nothing) must not
  // pass the checker: crashed sighosts strand sockets and network VCs.
  Options opt;
  opt.sabotage_recover = true;
  Result r = check_tables(kSighostTbl, kKernTbl, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(count_kind(r, "MODEL-STUCK"), 1u);
  // The recover and resync entries are unreachable too: sabotaged recovery
  // neither audits nor sends PEER_RESYNC.
  EXPECT_EQ(count_kind(r, "MODEL-UNREACHABLE"), 2u);
}

TEST(ModelCheck, TinyStateBoundFailsLoudly) {
  Options opt;
  opt.max_states = 100;
  Result r = check_tables(kSighostTbl, kKernTbl, opt);
  EXPECT_GE(count_kind(r, "MODEL-CONFIG"), 1u)
      << "exceeding the bound must be a finding, never a silent truncation";
}

// ------------------------------------------------------------------ JSON

TEST(ModelJson, GoldenReportForRealTables) {
  Result r = check_tables(kSighostTbl, kKernTbl);
  EXPECT_EQ(xunet::model::render_json(r), slurp(kFix + "/golden_model.json"));
}

TEST(ModelJson, SchemaEnvelopeFields) {
  Result r = check_tables(kSighostTbl, kKernTbl);
  std::string j = xunet::model::render_json(r);
  for (const char* key :
       {"\"schema\": \"xunet.model.v1\"", "\"tool\"", "\"states\"",
        "\"edges\"", "\"sighost_declared\"", "\"kern_declared\"", "\"ok\"",
        "\"findings\"", "\"notes\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

TEST(ModelJson, DeterministicAcrossRuns) {
  // A finding-heavy run is the stronger determinism probe: example order
  // and traces must be stable, not just the summary counts.
  Result a = check_tables(kSighostTbl, kFix + "/kern_missing_close.tbl");
  Result b = check_tables(kSighostTbl, kFix + "/kern_missing_close.tbl");
  EXPECT_EQ(xunet::model::render_json(a), xunet::model::render_json(b));
}

}  // namespace
