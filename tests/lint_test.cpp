// lint_test.cpp — drives the xunet_lint rule engine over the fixture corpus
// in tests/lint_fixtures/ (known-bad and known-good files per rule), checks
// the annotation suppression mechanics, the STATE rule's both directions
// against the mini sighost, the xunet.lint.v1 renderer against a golden
// report, and finally self-checks that the real src/ tree is clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "xunet_lint/lint.hpp"

namespace {

using xunet::lint::Config;
using xunet::lint::Finding;
using xunet::lint::Report;
using xunet::lint::Transition;

const std::string kRepo = XUNET_SOURCE_DIR;
const std::string kFix = kRepo + "/tests/lint_fixtures";

Report lint_files(const std::vector<std::string>& rel_files,
                  Config cfg = Config{}) {
  cfg.root = kFix;
  std::vector<std::string> paths;
  paths.reserve(rel_files.size());
  for (const std::string& f : rel_files) paths.push_back(kFix + "/" + f);
  return xunet::lint::run_lint(paths, cfg);
}

std::vector<const Finding*> with_rule(const Report& r, const std::string& rule) {
  std::vector<const Finding*> out;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) out.push_back(&f);
  }
  return out;
}

std::vector<int> lines_of(const std::vector<const Finding*>& fs) {
  std::vector<int> out;
  out.reserve(fs.size());
  for (const Finding* f : fs) out.push_back(f->line);
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------------- DET

TEST(LintDet, BannedFlagsEveryWallClockAndRngSite) {
  Report r = lint_files({"det_banned_bad.cpp"});
  auto fs = with_rule(r, "DET-BANNED");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{6, 10, 14, 19, 24}));
  EXPECT_EQ(r.findings.size(), 5u);
  EXPECT_EQ(r.unsuppressed(), 5u);
}

TEST(LintDet, BannedIgnoresNearMisses) {
  Report r = lint_files({"det_banned_ok.cpp"});
  EXPECT_TRUE(r.findings.empty()) << xunet::lint::render_text(r);
}

TEST(LintDet, UtilRngIsExemptFromBannedSymbolsAndRandomInclude) {
  Report r = lint_files({"util/rng/rng_like.cpp"});
  EXPECT_TRUE(r.findings.empty()) << xunet::lint::render_text(r);
}

TEST(LintDet, UnordIterFlagsOnlyEffectfulLoops) {
  // The .hpp rides along: the sibling-stem pairing supplies the member
  // declarations the .cpp's loops iterate.
  Report r = lint_files({"det_unord_bad.cpp", "det_unord_bad.hpp"});
  auto fs = with_rule(r, "DET-UNORD-ITER");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{7, 16}));
  // The pure counting loop in count_open() must not be flagged.
  EXPECT_EQ(r.findings.size(), 2u);
}

TEST(LintDet, UnordIterFlagsOrderedArtifactsButNotSortedSnapshots) {
  // None of these loops reach the event queue or the wire.  The rule flags
  // the stream append, the unsorted push_back collection and the JSON
  // emitter — but not snapshot-then-sort or pure aggregation.
  Report r = lint_files({"det_unord_strict.cpp", "det_unord_strict.hpp"});
  auto fs = with_rule(r, "DET-UNORD-ITER");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{17, 24, 46}));
  EXPECT_EQ(r.findings.size(), 3u);
  for (const Finding* f : fs) {
    EXPECT_NE(f->message.find("in hash order"), std::string::npos);
  }
}

TEST(LintDet, PtrKeyFlagsPointerKeysButNotPointerValues) {
  Report r = lint_files({"det_ptr_key.cpp"});
  auto fs = with_rule(r, "DET-PTR-KEY");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{12, 13}));
  EXPECT_EQ(r.findings.size(), 2u);
}

// ------------------------------------------------------------------ LIFE

TEST(LintLife, RefCaptureFlaggedOnlyAtScheduleSinks) {
  Report r = lint_files({"life_capture.cpp"});
  auto fs = with_rule(r, "LIFE-REF-CAPTURE");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{19, 21}));
  EXPECT_EQ(r.findings.size(), 2u);
}

TEST(LintLife, RefCaptureNestedInScheduledLambdaReportedOnce) {
  Report r = lint_files({"life_capture_nested.cpp"});
  auto fs = with_rule(r, "LIFE-REF-CAPTURE");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0]->line, 16);
  EXPECT_EQ(r.findings.size(), 1u);
}

TEST(LintLife, TimerRearmFlagsRefCapturesInSelfArmingChains) {
  Report r = lint_files({"life_rearm.cpp"});
  auto fs = with_rule(r, "LIFE-TIMER-REARM");
  EXPECT_EQ(lines_of(fs), (std::vector<int>{26, 34}));
  // The lambda handed straight to the sink is LIFE-REF-CAPTURE's finding.
  auto refs = with_rule(r, "LIFE-REF-CAPTURE");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0]->line, 49);
  EXPECT_EQ(r.findings.size(), 3u);
}

// ------------------------------------------------------------------- HYG

TEST(LintHyg, HeaderViolationsAndCleanHeader) {
  Report r = lint_files({"hyg_bad.hpp", "hyg_ok.hpp"});
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].rule, "HYG-PRAGMA-ONCE");
  EXPECT_EQ(r.findings[1].rule, "HYG-BANNED-INCLUDE");
  EXPECT_EQ(r.findings[2].rule, "HYG-REL-INCLUDE");
  for (const Finding& f : r.findings) EXPECT_EQ(f.file, "hyg_bad.hpp");
}

// ----------------------------------------------------------- annotations

TEST(LintAnnot, TrailingAndStandaloneSuppressReasonlessDoesNot) {
  Report r = lint_files({"annot.cpp"});
  auto banned = with_rule(r, "DET-BANNED");
  ASSERT_EQ(banned.size(), 3u);
  EXPECT_TRUE(banned[0]->suppressed);  // trailing form, line 9
  EXPECT_EQ(banned[0]->reason, "fixture: trailing form");
  EXPECT_TRUE(banned[1]->suppressed);  // standalone form across a comment gap
  EXPECT_FALSE(banned[2]->suppressed) << "reason-less allow must not suppress";

  auto annot = with_rule(r, "LINT-ANNOT");
  ASSERT_EQ(annot.size(), 2u);
  EXPECT_NE(annot[0]->message.find("without a reason"), std::string::npos);
  EXPECT_NE(annot[1]->message.find("malformed"), std::string::npos);
  EXPECT_EQ(r.unsuppressed(), 3u);  // live DET-BANNED + two LINT-ANNOT
}

TEST(LintAnnot, StaleAllowIsAFinding) {
  Report r = lint_files({"annot_stale.cpp"});
  auto annot = with_rule(r, "LINT-ANNOT");
  ASSERT_EQ(annot.size(), 1u);
  EXPECT_EQ(annot[0]->line, 6);
  EXPECT_NE(annot[0]->message.find("suppresses nothing"), std::string::npos);
  auto banned = with_rule(r, "DET-BANNED");
  ASSERT_EQ(banned.size(), 1u);
  EXPECT_TRUE(banned[0]->suppressed);
  EXPECT_EQ(r.unsuppressed(), 1u);
}

// The same file named twice (relative and absolute) is one unit: its used
// allow is not reported stale through the second copy.
TEST(LintAnnot, FileNamedTwiceIsLintedOnce) {
  Config cfg;
  cfg.root = kFix;
  Report r = xunet::lint::run_lint(
      {kFix + "/annot_stale.cpp", kFix + "/./annot_stale.cpp"}, cfg);
  EXPECT_EQ(r.files_scanned, 1u);
  EXPECT_EQ(with_rule(r, "LINT-ANNOT").size(), 1u);
  EXPECT_EQ(with_rule(r, "DET-BANNED").size(), 1u);
}

// ----------------------------------------------------------------- STATE

Config mini_cfg(const std::string& table) {
  Config cfg;
  cfg.state_file = "mini_sighost/sighost.cpp";
  cfg.state_table = kFix + "/mini_sighost/" + table;
  return cfg;
}

TEST(LintState, ExactTableIsClean) {
  Report r = lint_files({"mini_sighost/sighost.cpp"}, mini_cfg("state_good.tbl"));
  EXPECT_TRUE(r.findings.empty()) << xunet::lint::render_text(r);
  // The extraction itself is the ground truth the tables are written against.
  ASSERT_EQ(r.transitions.size(), 6u);
  auto has = [&](const char* fn, const char* list, const char* op) {
    return std::any_of(r.transitions.begin(), r.transitions.end(),
                       [&](const Transition& t) {
                         return t.fn == fn && t.list == list && t.op == op;
                       });
  };
  EXPECT_TRUE(has("handle_export_srv", "service_list", "insert"));
  EXPECT_TRUE(has("handle_withdraw_srv", "service_list", "erase"));
  EXPECT_TRUE(has("establish_vc", "outgoing_requests", "erase"));
  EXPECT_TRUE(has("establish_vc", "vci_mapping", "insert"));
  EXPECT_TRUE(has("reset", "vci_mapping", "clear"));
  // The free helper's mutation is attributed to the helper itself.
  EXPECT_TRUE(has("sweep_expired", "vci_mapping", "erase"));
}

TEST(LintState, UndeclaredTransitionFails) {
  Report r = lint_files({"mini_sighost/sighost.cpp"},
                        mini_cfg("state_undeclared.tbl"));
  auto fs = with_rule(r, "STATE-UNDECLARED");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0]->message.find("reset"), std::string::npos);
  EXPECT_NE(fs[0]->message.find("clear"), std::string::npos);
  EXPECT_NE(fs[0]->message.find("vci_mapping"), std::string::npos);
}

TEST(LintState, StaleTableEntryFails) {
  Report r = lint_files({"mini_sighost/sighost.cpp"},
                        mini_cfg("state_stale.tbl"));
  auto fs = with_rule(r, "STATE-MISSING");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0]->message.find("handle_peer_resync"), std::string::npos);
}

// ---------------------------------------------------- STATE (kern_socket)

Config kern_cfg(const std::string& table) {
  Config cfg;
  cfg.kern_state_file = "mini_kern/kernel.cpp";
  cfg.kern_state_table = kFix + "/mini_kern/" + table;
  return cfg;
}

TEST(LintKernState, ExactTableIsClean) {
  Report r = lint_files({"mini_kern/kernel.cpp"}, kern_cfg("kern_good.tbl"));
  EXPECT_TRUE(r.findings.empty()) << xunet::lint::render_text(r);
  ASSERT_EQ(r.kern_transitions.size(), 4u);
  auto has = [&](const char* fn, const char* to) {
    return std::any_of(r.kern_transitions.begin(), r.kern_transitions.end(),
                       [&](const Transition& t) {
                         return t.fn == fn && t.list == to && t.op == "assign";
                       });
  };
  EXPECT_TRUE(has("xunet_bind", "bound"));
  EXPECT_TRUE(has("xunet_connect", "connected"));
  // Via `->` inside a helper loop, still attributed to the member function.
  EXPECT_TRUE(has("mark_vci_disconnected", "disconnected"));
  EXPECT_TRUE(has("close_xunet", "created"));
  // The default member initializer is NOT a transition.
  EXPECT_EQ(r.kern_transitions.size(), 4u);
}

TEST(LintKernState, UndeclaredAssignmentFails) {
  Report r =
      lint_files({"mini_kern/kernel.cpp"}, kern_cfg("kern_undeclared.tbl"));
  auto fs = with_rule(r, "STATE-UNDECLARED");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0]->message.find("close_xunet"), std::string::npos);
  EXPECT_NE(fs[0]->message.find("created"), std::string::npos);
}

TEST(LintKernState, StaleTableEntryFails) {
  Report r = lint_files({"mini_kern/kernel.cpp"}, kern_cfg("kern_stale.tbl"));
  auto fs = with_rule(r, "STATE-MISSING");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0]->message.find("xunet_abort"), std::string::npos);
}

// ------------------------------------------------------------------ JSON

TEST(LintJson, GoldenReportForPtrKeyFixture) {
  Report r = lint_files({"det_ptr_key.cpp"});
  EXPECT_EQ(xunet::lint::render_json(r), slurp(kFix + "/golden_ptr_key.json"));
}

TEST(LintJson, SchemaEnvelopeFields) {
  Report r = lint_files({"det_banned_ok.cpp"});
  std::string j = xunet::lint::render_json(r);
  for (const char* key : {"\"schema\": \"xunet.lint.v1\"", "\"tool\"",
                          "\"files_scanned\"", "\"total\"", "\"unsuppressed\"",
                          "\"findings\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

// A finding message carrying a quote and a raw control byte renders through
// the shared escaper into a report that bench_json_check (the CI validator)
// accepts.
TEST(LintJson, HostileFindingMessageStillValidates) {
  Report r;
  r.files_scanned = 1;
  Finding f;
  f.rule = "DET-BANNED";
  f.file = "src/x.cpp";
  f.line = 3;
  f.message = "call \"rand\"\x01 here";
  r.findings.push_back(f);
  const std::string j = xunet::lint::render_json(r);
  EXPECT_NE(j.find(R"("message": "call \"rand\"\u0001 here")"),
            std::string::npos)
      << j;
  EXPECT_TRUE(xunet::util::validate_json(j).ok()) << j;
  const std::string path = testing::TempDir() + "lint_hostile_message.json";
  { std::ofstream(path) << j; }
  const std::string cmd =
      std::string(XUNET_BENCH_JSON_CHECK) + " " + path + " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << j;
}

// The validator is a strict parser, not a bracket counter: reports whose
// braces balance but whose values are not JSON must fail the gate.
TEST(BenchJsonCheck, RejectsBalancedButMalformedReports) {
  const std::string head = R"({"schema": "xunet.bench.v1", "bench": "demo", )";
  const std::vector<std::string> bad = {
      head + R"("metrics": {"a":}})",
      head + R"("metrics": {"a": [1,2,]}})",
      head + R"("metrics": {"x": nan}})",
      "{\"schema\":\"xunet.trace.v1\",\"reason\":\"r\",\"records\":1,"
      "\"overwritten\":0}\n"
      "{\"seq\":1,\"ts_ns\":0,\"comp\":\"c\",\"name\":\"n\","
      "\"track\":\"t\",\"v\":inf}\n",
  };
  auto run = [](const std::string& doc, int i) {
    const std::string path =
        testing::TempDir() + "bench_json_check_" + std::to_string(i) + ".json";
    { std::ofstream(path) << doc; }
    const std::string cmd = std::string(XUNET_BENCH_JSON_CHECK) + " " + path +
                            " > /dev/null 2>&1";
    return std::system(cmd.c_str());
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_NE(run(bad[i], static_cast<int>(i)), 0) << bad[i];
  }
  // The same envelope with a well-formed body passes.
  EXPECT_EQ(run(head + R"("metrics": {"a": 1, "b": [1, 2]}})", 99), 0);
}

// A bench report is named only by a string: a number, null or boolean
// "bench" value fails the gate as a missing name instead of passing as an
// unknown bench with no key profile.  Likewise a chaos repro record whose
// "rec" is not a string is an unknown record.
TEST(BenchJsonCheck, RejectsNonStringNames) {
  auto run = [](const std::string& doc, const std::string& tag) {
    const std::string path =
        testing::TempDir() + "bench_json_check_name_" + tag + ".json";
    { std::ofstream(path) << doc; }
    const std::string cmd = std::string(XUNET_BENCH_JSON_CHECK) + " " + path +
                            " > /dev/null 2>&1";
    return std::system(cmd.c_str());
  };
  for (const char* name : {"7", "null", "true"}) {
    EXPECT_NE(run(std::string(R"({"schema": "xunet.bench.v1", "bench": )") +
                      name + R"(, "metrics": {}})",
                  name),
              0)
        << name;
  }
  const std::string chaos_head =
      R"({"schema":"xunet.chaos.v1","seed":1,"routers":2,"calls":1,)"
      R"("events":0,"violations":0})"
      "\n";
  EXPECT_NE(run(chaos_head + R"({"rec":7,"rule":"r","detail":"d"})" "\n",
                "rec7"),
            0);
  // The string-named forms of the same documents pass.
  EXPECT_EQ(run(R"({"schema": "xunet.bench.v1", "bench": "demo", )"
                R"("metrics": {}})",
                "demo"),
            0);
  EXPECT_EQ(run(chaos_head +
                    R"({"rec":"violation","rule":"r","detail":"d"})" "\n",
                "recstr"),
            0);
}

// ------------------------------------------------------------- self-check

// The tree is clean with no baseline at all: inline allow(...) annotations
// are the only waiver, and DET-UNORD-ITER has one (strict) mode.
TEST(LintSelfCheck, SrcTreeCleanModuloBaselineAndStateTable) {
  Config cfg;
  cfg.root = kRepo;
  cfg.state_table = kRepo + "/tools/xunet_lint/sighost_state.tbl";
  cfg.kern_state_table = kRepo + "/tools/xunet_lint/kern_socket_state.tbl";
  Report r = xunet::lint::run_lint({kRepo + "/src"}, cfg);
  EXPECT_EQ(r.unsuppressed(), 0u) << xunet::lint::render_text(r);
  EXPECT_GE(r.files_scanned, 90u);
  // The real sighost's transition extraction must stay non-trivial: the
  // STATE rule is only exhaustive if it is actually seeing the mutations.
  EXPECT_GE(r.transitions.size(), 15u);
  // Same for the kernel SocketState machine.
  EXPECT_GE(r.kern_transitions.size(), 4u);
  // Every suppression in the tree carries a reason.
  for (const Finding& f : r.findings) {
    if (f.suppressed) {
      EXPECT_FALSE(f.reason.empty()) << f.file << ":" << f.line;
    }
  }
}

}  // namespace
