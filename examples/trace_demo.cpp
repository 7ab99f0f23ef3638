// trace_demo.cpp — the observability subsystem end to end: run a traced
// call over the canonical testbed, export the timeline as Chrome
// trace_event JSON (load trace_demo.json in chrome://tracing or
// https://ui.perfetto.dev), and print the §9 per-call latency breakdown
// showing maintenance logging as the dominant setup cost.
//
// The demo is also the determinism check: it runs the identical scenario
// twice and exits non-zero unless the two JSONL exports are byte-identical
// — the trace is a regression artifact, not just a debugging aid.
//
// Build & run:   ./examples/trace_demo
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "core/apps.hpp"
#include "core/testbed.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "util/json.hpp"

using namespace xunet;

namespace {

struct RunArtifacts {
  std::string jsonl;
  std::string chrome;
  std::string report;
  std::set<std::string> components;
  bool ok = false;
  bool logging_dominant = false;
};

// One traced scenario: bring up the testbed, register a service on
// berkeley.rt, open a call from mh.rt, push a few data frames through the
// PF_XUNET datapath, tear down.  Everything is simulated time, so two
// invocations replay the exact same event sequence.
RunArtifacts traced_run() {
  RunArtifacts out;
  auto tb = core::TestbedConfig{}.build_deferred();
  tb->sim().obs().set_tracing(true);  // before bring-up: trace it all
  if (!tb->bring_up().ok()) return out;

  auto& mh = *tb->router(0).kernel;
  auto& berkeley = *tb->router(1).kernel;

  core::CallServer server(berkeley, berkeley.ip_node().address(), "traced",
                          4800);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  core::CallClient client(mh, mh.ip_node().address());
  bool sent = false;
  client.open("berkeley.rt", "traced", "",
              [&](util::Result<core::CallClient::Call> r) {
                if (!r.ok()) return;
                const char payload[] = "traced frame";
                for (int i = 0; i < 3; ++i) {
                  (void)client.send(*r, util::BytesView(
                                            reinterpret_cast<const std::uint8_t*>(
                                                payload),
                                            sizeof payload - 1));
                }
                sent = true;
              });
  tb->sim().run_for(sim::seconds(5));
  if (!sent || server.frames_received() == 0) return out;

  const obs::Observability& o = tb->sim().obs();
  out.jsonl = obs::to_jsonl(o.trace(), o.metrics());
  out.chrome = obs::to_chrome_trace(o.trace());
  out.report = obs::breakdown_report(o.trace());
  for (const obs::TraceEvent& e : o.trace().events()) {
    out.components.insert(e.component);
  }
  std::vector<obs::CallBreakdown> calls = obs::per_call_breakdown(o.trace());
  out.logging_dominant =
      !calls.empty() && calls.front().logging_dominant();
  out.ok = true;
  return out;
}

bool write_file(const char* path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return f.good();
}

}  // namespace

int main() {
  std::printf("== trace_demo: end-to-end tracing of one native-mode call ==\n\n");

  RunArtifacts first = traced_run();
  if (!first.ok) {
    std::fprintf(stderr, "FAIL: traced scenario did not complete\n");
    return 1;
  }

  // 1. Structural validity of both exports.
  if (!util::validate_json(first.chrome).ok()) {
    std::fprintf(stderr, "FAIL: Chrome trace is not valid JSON\n");
    return 1;
  }
  if (!obs::validate_jsonl(first.jsonl).ok()) {
    std::fprintf(stderr, "FAIL: JSONL export failed validation\n");
    return 1;
  }

  // 2. Coverage: the call path crosses every layer, so the trace must hold
  //    events from the stub, the signaling entity, the kernel, the Orc
  //    driver and the ATM network.
  for (const char* comp : {"stub", "sighost", "kern", "orc", "atm"}) {
    if (first.components.count(comp) == 0) {
      std::fprintf(stderr, "FAIL: no trace events from component \"%s\"\n",
                   comp);
      return 1;
    }
  }
  std::printf("trace covers %zu components across the call path\n",
              first.components.size());

  // 3. Determinism: the identical scenario replays byte-identically.
  RunArtifacts second = traced_run();
  if (!second.ok || second.jsonl != first.jsonl) {
    std::fprintf(stderr,
                 "FAIL: identically-seeded runs diverged (%zu vs %zu bytes)\n",
                 first.jsonl.size(), second.jsonl.size());
    return 1;
  }
  std::printf("two identically-seeded runs: byte-identical JSONL (%zu bytes)\n\n",
              first.jsonl.size());

  // 4. The §9 decomposition: maintenance logging dominates call setup.
  std::printf("%s\n", first.report.c_str());
  if (!first.logging_dominant) {
    std::fprintf(stderr,
                 "FAIL: maintenance logging is not the dominant setup cost\n");
    return 1;
  }

  // 5. Leave the artifacts on disk for a human to load.
  if (write_file("trace_demo.json", first.chrome) &&
      write_file("trace_demo.jsonl", first.jsonl)) {
    std::printf(
        "wrote trace_demo.json (chrome://tracing / ui.perfetto.dev) and "
        "trace_demo.jsonl\n");
  }

  std::printf("\nOK\n");
  return 0;
}
