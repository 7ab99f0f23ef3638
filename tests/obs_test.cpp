// obs_test.cpp — the observability subsystem: trace buffer, metrics
// registry, exporters, the §9 breakdown report, the causal cross-hop call
// tree, the flight recorder, the health monitor, the bounded-memory
// quantile sketch, and the determinism guarantee (two identically-seeded
// runs produce byte-identical traces, waterfalls, dumps and alert streams).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <random>

#include "core/apps.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "obs/calltrace.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/report.hpp"
#include "util/alloc_hook.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace xunet {
namespace {

using core::CallClient;
using core::CallServer;
using core::Testbed;
using core::TestbedConfig;

// ---------------------------------------------------------------- TraceBuffer

TEST(TraceBuffer, SpanNestingTracksDepthPerTrack) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  obs::SpanId outer = buf.begin(sim::SimTime{}, "sighost", "call.setup", "mh.rt");
  obs::SpanId inner =
      buf.begin(sim::SimTime{} + sim::milliseconds(1), "sighost", "maint.log", "mh.rt");
  EXPECT_EQ(buf.open_spans("mh.rt"), 2u);
  EXPECT_EQ(buf.max_depth("mh.rt"), 2u);
  buf.end(sim::SimTime{} + sim::milliseconds(2), inner);
  buf.end(sim::SimTime{} + sim::milliseconds(3), outer);
  EXPECT_EQ(buf.open_spans("mh.rt"), 0u);
  EXPECT_EQ(buf.max_depth("mh.rt"), 2u);  // high-water mark survives
  EXPECT_EQ(buf.max_depth("berkeley.rt"), 0u);
  EXPECT_EQ(buf.size(), 4u);
}

TEST(TraceBuffer, EndIgnoresInvalidAndUnknownSpans) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  buf.end(sim::SimTime{}, obs::kInvalidSpan);
  buf.end(sim::SimTime{}, 12345);  // never begun
  EXPECT_EQ(buf.size(), 0u);
}

TEST(TraceBuffer, DisabledBufferRecordsNothing) {
  obs::TraceBuffer buf;
  EXPECT_FALSE(buf.enabled());
  buf.instant(sim::SimTime{}, "kern", "xunet.send", "mh.rt");
  EXPECT_EQ(buf.begin(sim::SimTime{}, "stub", "call.open", "mh.rt"),
            obs::kInvalidSpan);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(TraceBuffer, CapacityBoundsTheBufferAndCountsDrops) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  buf.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    buf.instant(sim::SimTime{} + sim::microseconds(i), "kern", "tick", "mh.rt");
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
}

TEST(TraceBuffer, AnnotateCallPatchesTheBeginEvent) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  obs::SpanId s = buf.begin(sim::SimTime{}, "stub", "call.open", "mh.rt");
  buf.annotate_call(s, "mh.rt#7");
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.events()[0].ids.call_id, "mh.rt#7");
  buf.annotate_call(obs::kInvalidSpan, "nope");  // must not crash
}

// Regression pin: clear() must rewind *all* book-keeping — events, the drop
// count, the open-span index, depth high-water marks, and the span/trace id
// counters — so a reused buffer replays byte-identically.  (The original
// clear() left dropped_/open_/depth_/next_span_ behind.)
TEST(TraceBuffer, ClearRewindsEveryCounterForByteIdenticalReuse) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  buf.set_capacity(2);
  obs::SpanId first = buf.begin(sim::SimTime{}, "sighost", "call.setup", "mh.rt");
  std::uint64_t first_trace = buf.new_trace();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(first_trace, 1u);
  buf.instant(sim::SimTime{} + sim::microseconds(1), "kern", "tick", "mh.rt");
  buf.instant(sim::SimTime{} + sim::microseconds(2), "kern", "tick", "mh.rt");
  EXPECT_GT(buf.dropped(), 0u);
  EXPECT_EQ(buf.open_spans("mh.rt"), 1u);
  EXPECT_EQ(buf.max_depth("mh.rt"), 1u);

  buf.clear();

  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.open_spans("mh.rt"), 0u);
  EXPECT_EQ(buf.max_depth("mh.rt"), 0u);
  EXPECT_TRUE(buf.enabled());          // configuration survives
  EXPECT_EQ(buf.capacity(), 2u);
  // Replay mints the identical ids a fresh buffer would.
  EXPECT_EQ(buf.begin(sim::SimTime{}, "sighost", "call.setup", "mh.rt"), first);
  EXPECT_EQ(buf.new_trace(), first_trace);
}

// ------------------------------------------------------------------- Metrics

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  obs::MetricsRegistry mx;
  obs::Counter& c = mx.counter("kern.mh.rt.xunet.tx");
  c.inc();
  c.inc(4);
  EXPECT_EQ(mx.counter_value("kern.mh.rt.xunet.tx"), 5u);
  EXPECT_EQ(mx.counter_value("never.touched"), 0u);

  obs::Gauge& g = mx.gauge("sighost.mh.rt.list.incoming");
  g.set(3);
  g.add(-1);
  EXPECT_EQ(mx.gauge_value("sighost.mh.rt.list.incoming"), 2);

  obs::Histogram& h = mx.histogram("sighost.mh.rt.setup.latency_us");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const util::Summary* s = mx.histogram_summary("sighost.mh.rt.setup.latency_us");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count(), 100u);
  EXPECT_DOUBLE_EQ(s->mean(), 50.5);
  EXPECT_NEAR(s->percentile(50.0), 50.5, 0.6);
  EXPECT_NEAR(s->percentile(99.0), 99.0, 1.1);
  EXPECT_EQ(mx.histogram_summary("never.touched"), nullptr);
}

TEST(Metrics, ReferencesAreStableAcrossLaterRegistrations) {
  obs::MetricsRegistry mx;
  obs::Counter& first = mx.counter("a.first");
  for (int i = 0; i < 100; ++i) {
    (void)mx.counter("b.filler." + std::to_string(i));
  }
  first.inc();
  EXPECT_EQ(mx.counter_value("a.first"), 1u);
  EXPECT_EQ(&first, &mx.counter("a.first"));
}

TEST(Metrics, RenderTextIsDeterministicallyOrderedAndCoversAllKinds) {
  obs::MetricsRegistry mx;
  mx.counter("count.z").inc(2);
  mx.counter("count.a").inc(1);
  mx.gauge("level.m").set(-4);
  mx.histogram("lat.a").observe(1.0);
  std::string text = mx.render_text();
  std::size_t ca = text.find("count.a");
  std::size_t cz = text.find("count.z");
  ASSERT_NE(ca, std::string::npos);
  ASSERT_NE(cz, std::string::npos);
  EXPECT_LT(ca, cz);  // name-sorted within a kind
  EXPECT_NE(text.find("level.m -4"), std::string::npos);
  EXPECT_NE(text.find("lat.a count=1"), std::string::npos);
  EXPECT_EQ(text, mx.render_text());  // rendering is a pure function
}

// ------------------------------------------------------------------ Exporters

obs::TraceBuffer small_trace() {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  obs::TraceIds ids;
  ids.call_id = "mh.rt#1";
  ids.vci = 64;
  obs::SpanId s = buf.begin(sim::SimTime{}, "stub", "call.open", "mh.rt", ids);
  buf.complete(sim::SimTime{} + sim::microseconds(10), sim::microseconds(5),
               "atm", "vc.setup", "net", ids);
  buf.instant(sim::SimTime{} + sim::microseconds(12), "kern",
              "quote\"and\\slash", "mh.rt");
  buf.counter(sim::SimTime{} + sim::microseconds(13), "sighost",
              "lists.incoming", "mh.rt", 2.0);
  buf.end(sim::SimTime{} + sim::microseconds(20), s);
  return buf;
}

TEST(Export, ChromeTraceIsValidJsonWithExpectedShape) {
  obs::TraceBuffer buf = small_trace();
  std::string json = obs::to_chrome_trace(buf);
  ASSERT_TRUE(util::validate_json(json).ok()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Escaping: the raw quote/backslash must not survive unescaped.
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
}

TEST(Export, JsonlValidatesAndLeadsWithSchemaHeader) {
  obs::TraceBuffer buf = small_trace();
  obs::MetricsRegistry mx;
  mx.counter("sighost.maint.records").inc(2);
  std::string jsonl = obs::to_jsonl(buf, mx);
  ASSERT_TRUE(obs::validate_jsonl(jsonl).ok()) << jsonl;
  std::string first = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_NE(first.find(obs::kJsonlSchema), std::string::npos);
  EXPECT_NE(jsonl.find("sighost.maint.records"), std::string::npos);
}

TEST(Export, ValidatorRejectsMalformedJson) {
  EXPECT_FALSE(util::validate_json("{\"a\":1").ok());
  EXPECT_FALSE(util::validate_json("{\"a\":}").ok());
  EXPECT_FALSE(util::validate_json("[1,2,]").ok());
  EXPECT_TRUE(util::validate_json("{\"a\":[1,2],\"b\":\"x\"}").ok());
  // Numbers follow the RFC 8259 grammar exactly; strings hold no raw
  // control bytes.
  for (const char* bad : {"{\"x\": nan}", "[NaN]", "[inf]", "[-Infinity]", "[01]",
                          "[.5]", "[1.]", "[1e]", "[-]", "[\"a\tb\"]", "[1] x"}) {
    EXPECT_FALSE(util::validate_json(bad).ok()) << bad;
  }
  for (const char* good : {"[0]", "[-0.5]", "[1e300]", "[2E-3]", "[null]"}) {
    EXPECT_TRUE(util::validate_json(good).ok()) << good;
  }
}

// Casting a non-finite or out-of-range double to int64 is undefined, and a
// printf fallback would emit "nan"/"inf", which no JSON parser accepts.
TEST(Export, JsonNumberStaysValidForNonFiniteAndHugeValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(obs::json_number(nan), "null");
  EXPECT_EQ(obs::json_number(inf), "null");
  EXPECT_EQ(obs::json_number(-inf), "null");
  EXPECT_EQ(obs::json_number(-0x1p63), "-9223372036854775808");
  const std::string doc = "{\"nan\":" + obs::json_number(nan) + ",\"inf\":" +
                          obs::json_number(inf) + ",\"big\":" +
                          obs::json_number(1e300) + "}";
  EXPECT_TRUE(util::validate_json(doc).ok()) << doc;
  EXPECT_EQ(std::stod(obs::json_number(1e300)), 1e300);
}

// Adversarial escaping: a trace whose strings carry every JSON-dangerous
// byte class — quotes, backslashes, the named control escapes, and raw
// control bytes — must still export as valid JSON/JSONL.  (util_test pins
// the escaper itself.)
TEST(Export, HostileEventStringsStillExportValidJson) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  obs::TraceIds ids;
  ids.call_id = "mh\"rt\\#1\n";
  obs::SpanId s = buf.begin(sim::SimTime{}, "sighost", "na\"me\\\t\x02",
                            "tr\"ack\\\r", ids);
  buf.end(sim::SimTime{} + sim::microseconds(3), s);
  buf.counter(sim::SimTime{} + sim::microseconds(4), "kern", "c\bnt\f",
              "mh.rt", 1.0);
  obs::MetricsRegistry mx;
  mx.counter("evil\"metric\\name").inc();
  std::string chrome = obs::to_chrome_trace(buf);
  std::string jsonl = obs::to_jsonl(buf, mx);
  EXPECT_TRUE(util::validate_json(chrome).ok()) << chrome;
  EXPECT_TRUE(obs::validate_jsonl(jsonl).ok()) << jsonl;
  // No raw control byte may survive into either export (newlines are the
  // exports' own record/pretty-print separators).
  for (char c : chrome) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
  for (char c : jsonl) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
}

// Flight dumps and health alert streams are their own schemas
// (xunet.trace.v1 / xunet.health.v1) — bench_json_check owns the per-schema
// key checks; here we assert every line parses as standalone JSON.
testing::AssertionResult every_line_is_json(const std::string& jsonl) {
  std::size_t pos = 0;
  std::size_t lines = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size();
    std::string line = jsonl.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    ++lines;
    if (!util::validate_json(line).ok()) {
      return testing::AssertionFailure() << "bad JSONL line: " << line;
    }
  }
  if (lines == 0) return testing::AssertionFailure() << "empty JSONL stream";
  return testing::AssertionSuccess();
}

// ----------------------------------------------------------- QuantileSketch

TEST(QuantileSketch, EmptyAndSingleSampleEdges) {
  util::QuantileSketch sk;
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.percentile(50.0), 0.0);
  sk.add(42.0);
  EXPECT_EQ(sk.count(), 1u);
  EXPECT_EQ(sk.min(), 42.0);
  EXPECT_EQ(sk.max(), 42.0);
  // One sample: every percentile collapses to it (clamped to [min,max]).
  EXPECT_EQ(sk.percentile(0.0), 42.0);
  EXPECT_EQ(sk.percentile(100.0), 42.0);
  // Negatives are clamped into the zero bucket, not dropped.
  sk.add(-5.0);
  EXPECT_EQ(sk.count(), 2u);
  EXPECT_EQ(sk.min(), -5.0);
}

// Acceptance bar: sketch p50/p99 within 5% of the exact Summary on a
// latency-shaped (log-normal) distribution spanning several decades.
TEST(QuantileSketch, PercentilesTrackExactSummaryWithinFivePercent) {
  util::Summary exact;
  util::QuantileSketch sk;
  std::mt19937 rng(1994);  // fixed seed: the test is deterministic
  std::lognormal_distribution<double> lat(std::log(350.0), 0.9);
  for (int i = 0; i < 20000; ++i) {
    double v = lat(rng);
    exact.add(v);
    sk.add(v);
  }
  EXPECT_EQ(sk.count(), exact.count());
  EXPECT_NEAR(sk.mean(), exact.mean(), exact.mean() * 1e-9);  // sum is exact
  for (double p : {50.0, 90.0, 99.0}) {
    double want = exact.percentile(p);
    EXPECT_NEAR(sk.percentile(p), want, want * 0.05)
        << "p" << p << " drifted beyond 5%";
  }
  EXPECT_EQ(sk.min(), exact.min());
  EXPECT_EQ(sk.max(), exact.max());
}

TEST(QuantileSketch, SteadyStateObservationAllocatesNothing) {
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "strong alloc hook not linked into this binary";
  }
  util::QuantileSketch sk;   // all storage allocated here
  sk.add(1.0);               // warmup (nothing to warm, but keep the shape)
  std::uint64_t before = util::alloc_count();
  for (int i = 0; i < 10000; ++i) {
    sk.add(static_cast<double>((i % 997) + 1) * 0.5);
  }
  double p99 = sk.percentile(99.0);
  std::uint64_t allocs = util::alloc_count() - before;
  EXPECT_EQ(allocs, 0u) << "QuantileSketch::add/percentile allocated";
  EXPECT_GT(p99, 0.0);
}

// The sighost's always-on setup-latency histogram rides the sketch through
// the Histogram interface; the exact interface must keep answering for
// exact-kind histograms and refuse (nullptr) for sketch-kind ones.
TEST(Metrics, SketchKindHistogramAnswersStatsButNotSamples) {
  obs::MetricsRegistry mx;
  obs::Histogram& h =
      mx.histogram("sighost.mh.rt.setup.latency_us", obs::Histogram::Kind::sketch);
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.kind(), obs::Histogram::Kind::sketch);
  EXPECT_EQ(mx.histogram_summary("sighost.mh.rt.setup.latency_us"), nullptr);
  const obs::Histogram* stats =
      mx.histogram_stats("sighost.mh.rt.setup.latency_us");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count(), 1000u);
  EXPECT_DOUBLE_EQ(stats->mean(), 500.5);
  EXPECT_NEAR(stats->percentile(50.0), 500.5, 500.5 * 0.05);
  // The kind is fixed by whoever registers first; a later exact-kind lookup
  // of the same name gets the existing sketch histogram, not a new one.
  EXPECT_EQ(&mx.histogram("sighost.mh.rt.setup.latency_us"), &h);
}

// ----------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, RingOverwritesOldestAndKeepsChronologicalOrder) {
  obs::FlightRecorder fr;
  fr.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    std::string detail = "n";
    detail += std::to_string(i);
    fr.note(sim::SimTime{} + sim::microseconds(i), "sighost", "ev", "mh.rt",
            detail);
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.total(), 10u);
  std::vector<const obs::FlightRecord*> chron = fr.chronological();
  ASSERT_EQ(chron.size(), 4u);
  // Oldest-first, and exactly the last four noted (seq 6..9).
  for (std::size_t i = 0; i < chron.size(); ++i) {
    EXPECT_EQ(chron[i]->seq, 6u + i);
    std::string want = "n";
    want += std::to_string(6 + i);
    EXPECT_EQ(std::string(chron[i]->detail), want);
  }
}

TEST(FlightRecorder, NoteTruncatesLongFieldsWithoutOverflow) {
  obs::FlightRecorder fr;
  std::string longstr(200, 'x');
  fr.note(sim::SimTime{}, longstr, longstr, longstr, longstr, 42);
  ASSERT_EQ(fr.size(), 1u);
  const obs::FlightRecord& r = *fr.chronological()[0];
  // Truncated into the inline arrays, still NUL-terminated.
  EXPECT_LT(std::string(r.component).size(), sizeof r.component);
  EXPECT_LT(std::string(r.name).size(), sizeof r.name);
  EXPECT_LT(std::string(r.track).size(), sizeof r.track);
  EXPECT_LT(std::string(r.detail).size(), sizeof r.detail);
  EXPECT_EQ(r.vci, 42);
}

TEST(FlightRecorder, DumpCarriesSchemaReasonAndOverwriteCount) {
  obs::FlightRecorder fr;
  fr.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    fr.note(sim::SimTime{} + sim::microseconds(i), "fault", "event", "plan",
            "crash \"sighost\\1\"");  // hostile detail must be escaped
  }
  std::string dump = fr.dump_jsonl("fault:crash");
  ASSERT_TRUE(every_line_is_json(dump));
  std::string header = dump.substr(0, dump.find('\n'));
  EXPECT_NE(header.find(obs::kFlightSchema), std::string::npos);
  EXPECT_NE(header.find("\"reason\":\"fault:crash\""), std::string::npos);
  EXPECT_NE(header.find("\"records\":3"), std::string::npos);
  EXPECT_NE(header.find("\"overwritten\":2"), std::string::npos);

  EXPECT_EQ(fr.triggers(), 0u);
  fr.trigger("fault:crash");
  EXPECT_EQ(fr.triggers(), 1u);
  EXPECT_EQ(fr.last_dump(), dump);  // trigger snapshots the same rendering

  fr.clear();
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.total(), 0u);
  EXPECT_TRUE(fr.last_dump().empty());
  EXPECT_EQ(fr.capacity(), 3u);  // configuration survives
}

TEST(FlightRecorder, DisabledRecorderNotesNothing) {
  obs::FlightRecorder fr;
  fr.set_enabled(false);
  fr.note(sim::SimTime{}, "sighost", "ev", "mh.rt");
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.total(), 0u);
}

// ------------------------------------------------------------ HealthMonitor

// A manual scheduler: the test owns the tick loop, so hysteresis can be
// stepped metric-change by metric-change without a simulator.
struct ManualSched {
  std::vector<std::function<void()>> pending;
  obs::HealthMonitor::ScheduleFn fn() {
    return [this](sim::SimDuration, std::function<void()> f) {
      pending.push_back(std::move(f));
    };
  }
  void fire() {
    std::vector<std::function<void()>> batch;
    batch.swap(pending);
    for (auto& f : batch) f();
  }
};

TEST(HealthMonitor, GaugeRuleRaisesAndClearsWithHysteresis) {
  obs::Observability o;
  ManualSched sched;
  obs::HealthMonitor hm(o, sched.fn());
  hm.add_rule({"mh.rt.setup_backlog", "sighost.mh.rt.list.outgoing_requests",
               obs::RuleKind::gauge_level, 16.0, 4.0});
  obs::Gauge& g = o.metrics().gauge("sighost.mh.rt.list.outgoing_requests");

  g.set(15);
  hm.evaluate();
  EXPECT_FALSE(hm.active("mh.rt.setup_backlog"));  // below raise_at

  g.set(16);
  hm.evaluate();
  EXPECT_TRUE(hm.active("mh.rt.setup_backlog"));
  ASSERT_EQ(hm.alerts().size(), 1u);
  EXPECT_TRUE(hm.alerts()[0].raised);
  EXPECT_EQ(hm.alerts()[0].value, 16.0);
  // A raise snapshots the flight recorder (post-mortem attached).
  EXPECT_EQ(o.flight().triggers(), 1u);
  EXPECT_FALSE(o.flight().last_dump().empty());

  g.set(8);  // inside the hysteresis band: stays raised, no new alert
  hm.evaluate();
  EXPECT_TRUE(hm.active("mh.rt.setup_backlog"));
  EXPECT_EQ(hm.alerts().size(), 1u);

  g.set(3);  // below clear_below: clears
  hm.evaluate();
  EXPECT_FALSE(hm.active("mh.rt.setup_backlog"));
  ASSERT_EQ(hm.alerts().size(), 2u);
  EXPECT_FALSE(hm.alerts()[1].raised);
  EXPECT_EQ(hm.active_count(), 0u);
  EXPECT_EQ(o.flight().triggers(), 1u);  // clears don't re-trigger
}

TEST(HealthMonitor, CounterRateRuleMeasuresPerTickDelta) {
  obs::Observability o;
  ManualSched sched;
  obs::Counter& c = o.metrics().counter("sighost.mh.rt.peer.retransmits");
  c.inc(100);  // pre-existing count must not count as a storm
  obs::HealthMonitor hm(o, sched.fn());
  hm.add_rule({"mh.rt.retx_storm", "sighost.mh.rt.peer.retransmits",
               obs::RuleKind::counter_rate, 8.0, 2.0});
  hm.start(sim::milliseconds(100));

  c.inc(7);  // below raise_at per tick
  sched.fire();
  EXPECT_FALSE(hm.active("mh.rt.retx_storm"));

  c.inc(9);  // storm tick
  sched.fire();
  EXPECT_TRUE(hm.active("mh.rt.retx_storm"));

  c.inc(1);  // calm tick: delta 1 < clear_below 2
  sched.fire();
  EXPECT_FALSE(hm.active("mh.rt.retx_storm"));
  EXPECT_EQ(hm.ticks(), 3u);

  hm.stop();
  sched.fire();  // queued tick observes running_ == false
  EXPECT_EQ(hm.ticks(), 3u);
  EXPECT_TRUE(sched.pending.empty());  // stopped monitor does not re-arm
}

TEST(HealthMonitor, WatchSighostInstallsTheFourStandardRules) {
  obs::Observability o;
  obs::HealthMonitor hm(o, nullptr);
  hm.watch_sighost("mh.rt");
  std::string jsonl = hm.to_health_jsonl();
  ASSERT_TRUE(every_line_is_json(jsonl));
  std::string header = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_NE(header.find(obs::kHealthSchema), std::string::npos);
  EXPECT_NE(header.find("\"rules\":4"), std::string::npos);
  EXPECT_NE(header.find("\"alerts\":0"), std::string::npos);
  // The rules bind to live registry metrics by name.
  o.metrics().gauge("sighost.mh.rt.list.incoming_requests").set(32);
  hm.evaluate();
  EXPECT_TRUE(hm.active("mh.rt.queue_saturation"));
  EXPECT_NE(hm.to_health_jsonl().find("\"state\":\"raised\""),
            std::string::npos);
}

// ------------------------------------------------------------ CallTraceIndex

// A synthetic four-hop call assembled by hand: stub -> sighost(caller) ->
// sighost(callee) -> atm, exactly the edge chain the real stack emits.
TEST(CallTraceIndex, AssemblesCrossHostSpanTreeFromTaggedEvents) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  std::uint64_t trace = buf.new_trace();

  obs::TraceIds root_ids;
  root_ids.trace_id = trace;
  obs::SpanId open = buf.begin(sim::SimTime{}, "stub", "call.open", "mh.rt",
                               root_ids);
  obs::TraceIds setup_ids;
  setup_ids.trace_id = trace;
  setup_ids.parent_span = open;
  obs::SpanId setup =
      buf.begin(sim::SimTime{} + sim::microseconds(10), "sighost",
                "call.setup", "mh.rt", setup_ids);
  obs::TraceIds serve_ids;
  serve_ids.trace_id = trace;
  serve_ids.parent_span = setup;
  obs::SpanId serve =
      buf.begin(sim::SimTime{} + sim::microseconds(40), "sighost",
                "call.serve", "berkeley.rt", serve_ids);
  obs::TraceIds vc_ids;
  vc_ids.trace_id = trace;
  vc_ids.parent_span = serve;
  obs::SpanId vc = buf.complete(sim::SimTime{} + sim::microseconds(60),
                                sim::microseconds(5), "atm", "vc.setup", "net",
                                vc_ids);
  buf.end(sim::SimTime{} + sim::microseconds(90), serve);
  buf.end(sim::SimTime{} + sim::microseconds(120), setup);
  buf.end(sim::SimTime{} + sim::microseconds(150), open);
  // An untagged event must stay outside the index.
  buf.instant(sim::SimTime{} + sim::microseconds(200), "kern", "unrelated",
              "mh.rt");

  obs::CallTraceIndex idx(buf);
  ASSERT_EQ(idx.traces().size(), 1u);
  EXPECT_EQ(idx.traces()[0], trace);
  EXPECT_EQ(idx.span_count(trace), 4u);

  const obs::CallTraceNode* root = idx.root(trace);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->span, open);
  EXPECT_EQ(root->parent, obs::kInvalidSpan);
  EXPECT_EQ(root->component, "stub");
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_EQ(root->children[0], setup);

  const obs::CallTraceNode* n_setup = idx.node(setup);
  const obs::CallTraceNode* n_serve = idx.node(serve);
  const obs::CallTraceNode* n_vc = idx.node(vc);
  ASSERT_NE(n_setup, nullptr);
  ASSERT_NE(n_serve, nullptr);
  ASSERT_NE(n_vc, nullptr);
  EXPECT_EQ(n_setup->parent, open);
  EXPECT_EQ(n_serve->parent, setup);
  EXPECT_EQ(n_vc->parent, serve);
  EXPECT_EQ(n_serve->track, "berkeley.rt");
  EXPECT_EQ(n_vc->dur, sim::microseconds(5));
  // begin/end pair: the span duration is end - begin.
  EXPECT_EQ(n_serve->dur, sim::microseconds(50));

  // find() walks mint order; the waterfall renders all four hops with
  // root-relative offsets, depth-indented.
  EXPECT_EQ(idx.find(trace, "sighost", "call.serve"), n_serve);
  EXPECT_EQ(idx.find(trace, "atm", "nope"), nullptr);
  std::string wf = idx.waterfall(trace);
  EXPECT_NE(wf.find("call.open"), std::string::npos);
  EXPECT_NE(wf.find("vc.setup"), std::string::npos);
  std::size_t at_open = wf.find("call.open");
  std::size_t at_setup = wf.find("call.setup");
  std::size_t at_serve = wf.find("call.serve");
  std::size_t at_vc = wf.find("vc.setup");
  EXPECT_LT(at_open, at_setup);
  EXPECT_LT(at_setup, at_serve);
  EXPECT_LT(at_serve, at_vc);
  EXPECT_EQ(wf, idx.waterfall(trace));  // pure function
}

TEST(CallTraceIndex, OrphanedFragmentsSurfaceInsteadOfDisappearing) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  // A hop whose parent span never made it into the buffer (e.g. the stub
  // side ran with tracing off): it must still render as a top-level hop.
  obs::TraceIds ids;
  ids.trace_id = 7;
  ids.parent_span = 999;  // unknown
  (void)buf.complete(sim::SimTime{} + sim::microseconds(5),
                     sim::microseconds(2), "sighost", "call.serve",
                     "berkeley.rt", ids);
  obs::CallTraceIndex idx(buf);
  ASSERT_EQ(idx.traces().size(), 1u);
  const obs::CallTraceNode* root = idx.root(7);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "call.serve");
  EXPECT_NE(idx.waterfall(7).find("call.serve"), std::string::npos);
}

// ------------------------------------------------- end-to-end traced scenario

struct TracedRun {
  std::string jsonl;
  std::string chrome;
  std::string report;
  std::vector<obs::CallBreakdown> calls;
  std::set<std::string> components;
  std::uint64_t maint_records = 0;
};

TracedRun traced_canonical_run() {
  TracedRun out;
  auto tb = TestbedConfig{}.build_deferred();
  tb->sim().obs().set_tracing(true);
  EXPECT_TRUE(tb->bring_up().ok());

  kern::Kernel& server_host = *tb->router(1).kernel;
  kern::Kernel& client_host = *tb->router(0).kernel;
  CallServer server(server_host, server_host.ip_node().address(), "traced",
                    4990);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  CallClient client(client_host, client_host.ip_node().address());
  int opened = 0;
  client.open("berkeley.rt", "traced", "",
              [&](util::Result<CallClient::Call> r) {
                EXPECT_TRUE(r.ok());
                ++opened;
              });
  tb->sim().run_for(sim::seconds(5));
  EXPECT_EQ(opened, 1);

  const obs::Observability& o = tb->sim().obs();
  out.jsonl = obs::to_jsonl(o.trace(), o.metrics());
  out.chrome = obs::to_chrome_trace(o.trace());
  out.report = obs::breakdown_report(o.trace());
  out.calls = obs::per_call_breakdown(o.trace());
  for (const obs::TraceEvent& e : o.trace().events()) {
    out.components.insert(e.component);
  }
  out.maint_records = o.metrics().counter_value("sighost.maint.records");
  return out;
}

TEST(TracedRun, CoversAllFiveComponentsEndToEnd) {
  TracedRun run = traced_canonical_run();
  for (const char* comp : {"stub", "sighost", "kern", "orc", "atm"}) {
    EXPECT_TRUE(run.components.count(comp)) << "missing component: " << comp;
  }
  EXPECT_GE(run.maint_records, 2u);  // both sighosts log per call
  ASSERT_TRUE(obs::validate_jsonl(run.jsonl).ok());
  ASSERT_TRUE(util::validate_json(run.chrome).ok());
}

TEST(TracedRun, BreakdownAttributesSetupTimeWithLoggingDominant) {
  TracedRun run = traced_canonical_run();
  ASSERT_FALSE(run.calls.empty());
  const obs::CallBreakdown& c = run.calls.front();
  EXPECT_FALSE(c.call_id.empty());
  EXPECT_GT(c.total.ns(), 0);
  // The decomposition is exact: parts sum back to the observed total.
  EXPECT_EQ((c.maint_log + c.vc_install + c.sighost_proc + c.stub_rpc).ns(),
            c.total.ns());
  // §9: "the large amount of maintenance information logged per call" is
  // the dominant cost — two sighosts at 128 ms each out of ~330 ms.
  EXPECT_TRUE(c.logging_dominant());
  EXPECT_GT(c.maint_log.ns(), c.total.ns() / 2);
  EXPECT_NE(run.report.find("<- dominant"), std::string::npos);
}

TEST(TracedRun, SighostGaugesAndHistogramArePopulated) {
  auto tb = TestbedConfig{}.build_deferred();
  tb->sim().obs().set_tracing(true);
  ASSERT_TRUE(tb->bring_up().ok());
  kern::Kernel& r1 = *tb->router(1).kernel;
  CallServer server(r1, r1.ip_node().address(), "gauged", 4991);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  const obs::Observability& o = tb->sim().obs();
  EXPECT_EQ(o.metrics().gauge_value("sighost.berkeley.rt.list.service_list"), 1);

  kern::Kernel& r0 = *tb->router(0).kernel;
  CallClient client(r0, r0.ip_node().address());
  client.open("berkeley.rt", "gauged", "",
              [](util::Result<CallClient::Call>) {});
  tb->sim().run_for(sim::seconds(5));
  EXPECT_EQ(o.metrics().counter_value("sighost.mh.rt.calls.established"), 1u);
  // The always-on setup-latency histogram is sketch-backed (bounded memory
  // at call-load scale), so the sample-set accessor answers nullptr and the
  // kind-agnostic stats accessor answers the numbers.
  EXPECT_EQ(o.metrics().histogram_summary("sighost.mh.rt.setup.latency_us"),
            nullptr);
  const obs::Histogram* lat =
      o.metrics().histogram_stats("sighost.mh.rt.setup.latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind(), obs::Histogram::Kind::sketch);
  EXPECT_EQ(lat->count(), 1u);
  EXPECT_GT(lat->mean(), 0.0);
  // The datapath counters moved through the registry too.
  EXPECT_GT(o.metrics().counter_value("kern.mh.rt.xunet.tx"), 0u);
  EXPECT_GT(o.metrics().counter_value("atm.net.setups_attempted"), 0u);
}

TEST(TracedRun, IdenticallySeededRunsProduceByteIdenticalExports) {
  TracedRun a = traced_canonical_run();
  TracedRun b = traced_canonical_run();
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);    // byte-identical regression artifact
  EXPECT_EQ(a.chrome, b.chrome);  // and the Chrome rendering with it
  EXPECT_EQ(a.report, b.report);
}

// The §9 report of the canonical run, pinned byte for byte.
TEST(TracedRun, BreakdownReportMatchesGolden) {
  TracedRun run = traced_canonical_run();
  EXPECT_EQ(run.report,
            "== per-call setup latency breakdown (paper §9 decomposition) ==\n"
            "call mh.rt#1: total 423.735 ms\n"
            "  maintenance logging (sighost)     256.000 ms     60.4%   <- dominant\n"
            "  kernel VC install (atm)           7.000 ms        1.7%\n"
            "  sighost processing                160.735 ms     37.9%\n"
            "  stub RPC + transit (remainder)    0.000 ms        0.0%\n"
            "aggregate: 1/1 calls dominated by maintenance logging (mean 60.4% "
            "of setup time)\n");
}

struct SequentialCalls {
  std::vector<obs::CallBreakdown> calls;
  std::vector<std::string> open_order;  ///< call ids as their opens began
};

// `n` calls on the canonical testbed, each opened after the previous one
// was set up and closed, so every call also writes teardown records.
SequentialCalls sequential_calls_run(int n) {
  SequentialCalls out;
  auto tb = TestbedConfig{}.build_deferred();
  tb->sim().obs().set_tracing(true);
  EXPECT_TRUE(tb->bring_up().ok());
  kern::Kernel& server_host = *tb->router(1).kernel;
  kern::Kernel& client_host = *tb->router(0).kernel;
  CallServer server(server_host, server_host.ip_node().address(), "seq", 4994);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(client_host, client_host.ip_node().address());
  for (int i = 0; i < n; ++i) {
    std::optional<CallClient::Call> call;
    client.open("berkeley.rt", "seq", "",
                [&](util::Result<CallClient::Call> r) {
                  EXPECT_TRUE(r.ok());
                  if (r.ok()) call = *r;
                });
    tb->sim().run_for(sim::seconds(5));
    EXPECT_TRUE(call.has_value());
    if (call) client.close_call(*call);
    tb->sim().run_for(sim::seconds(1));
  }
  const obs::TraceBuffer& trace = tb->sim().obs().trace();
  out.calls = obs::per_call_breakdown(trace);
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.phase == obs::Phase::span_begin &&
        std::string_view(e.component) == "stub" && e.name == "call.open") {
      out.open_order.push_back(e.ids.call_id);
    }
  }
  return out;
}

TEST(Breakdown, CallsComeBackInCallOpenOrder) {
  SequentialCalls run = sequential_calls_run(3);
  ASSERT_EQ(run.open_order.size(), 3u);
  std::vector<std::string> got;
  for (const obs::CallBreakdown& c : run.calls) got.push_back(c.call_id);
  EXPECT_EQ(got, run.open_order);
}

// Per-call rows of three sequential calls, keyed by call id and pinned.
TEST(Breakdown, SequentialCallRowsMatchGolden) {
  SequentialCalls run = sequential_calls_run(3);
  std::map<std::string, std::string> rows;
  for (const obs::CallBreakdown& c : run.calls) {
    // The decomposition is exact and §9's dominant cost holds per call.
    EXPECT_EQ((c.maint_log + c.vc_install + c.sighost_proc + c.stub_rpc).ns(),
              c.total.ns());
    EXPECT_TRUE(c.logging_dominant()) << c.call_id;
    rows[c.call_id] = "total=" + std::to_string(c.total.ns()) +
                      " maint=" + std::to_string(c.maint_log.ns()) +
                      " vc=" + std::to_string(c.vc_install.ns()) +
                      " sighost=" + std::to_string(c.sighost_proc.ns()) +
                      " rpc=" + std::to_string(c.stub_rpc.ns());
  }
  const std::string row =
      "total=423735376 maint=256000000 vc=7000000 sighost=160735376 rpc=0";
  const std::map<std::string, std::string> golden = {
      {"mh.rt#1", row}, {"mh.rt#2", row}, {"mh.rt#3", row}};
  EXPECT_EQ(rows, golden);
}

// The fold's rules on a hand-built tree: only hops of the call's own trace
// that start inside the open window count; the caller's call.setup and the
// stub's own hops are not parts; untraced spans never join, even when they
// carry the call id.
TEST(Breakdown, FoldCountsOnlyInWindowHopsOfTheCallTree) {
  obs::TraceBuffer buf;
  buf.set_enabled(true);
  auto at = [](std::int64_t us) { return sim::SimTime{} + sim::microseconds(us); };
  obs::TraceIds root_ids;
  root_ids.call_id = "mh.rt#1";
  root_ids.trace_id = buf.new_trace();
  obs::SpanId open = buf.begin(at(0), "stub", "call.open", "mh.rt", root_ids);
  auto child = [&](obs::SpanId parent) {
    obs::TraceIds ids;
    ids.call_id = "mh.rt#1";
    ids.trace_id = root_ids.trace_id;
    ids.parent_span = parent;
    return ids;
  };
  obs::SpanId setup =
      buf.begin(at(10), "sighost", "call.setup", "mh.rt", child(open));
  buf.complete(at(20), sim::microseconds(300), "sighost", "maint.log", "mh.rt",
               child(setup));
  obs::SpanId serve =
      buf.begin(at(30), "sighost", "call.serve", "berkeley.rt", child(setup));
  buf.complete(at(40), sim::microseconds(50), "atm", "vc.setup", "net",
               child(serve));
  buf.complete(at(45), sim::microseconds(5), "kern", "xunet.bind", "mh.rt",
               child(serve));
  buf.end(at(90), serve);
  buf.end(at(600), setup);
  buf.end(at(1000), open);
  // After the window: a late hop of the same trace.
  buf.complete(at(1500), sim::microseconds(400), "sighost", "maint.log",
               "mh.rt", child(setup));
  // Teardown record: same call id, no trace id.
  obs::TraceIds teardown;
  teardown.call_id = "mh.rt#1";
  buf.complete(at(2000), sim::microseconds(700), "sighost", "maint.log",
               "mh.rt", teardown);

  std::vector<obs::CallBreakdown> calls = obs::per_call_breakdown(buf);
  ASSERT_EQ(calls.size(), 1u);
  const obs::CallBreakdown& c = calls[0];
  EXPECT_EQ(c.call_id, "mh.rt#1");
  EXPECT_EQ(c.total, sim::microseconds(1000));
  EXPECT_EQ(c.maint_log, sim::microseconds(300));
  EXPECT_EQ(c.vc_install, sim::microseconds(50));
  EXPECT_EQ(c.sighost_proc, sim::microseconds(60));  // call.serve
  EXPECT_EQ(c.stub_rpc, sim::microseconds(590));
}

// --------------------------------------------- causal cross-hop call tree

// Run one real multi-hop call setup and return its rendered waterfall; when
// asked, assert the causal edge chain the paper's §9 decomposition implies:
//   stub call.open -> sighost call.setup (caller) ->
//   sighost call.serve (callee) -> atm vc.setup (the VC-install hop).
std::string causal_waterfall(bool assert_edges) {
  auto tb = TestbedConfig{}.build_deferred();
  tb->sim().obs().set_tracing(true);
  EXPECT_TRUE(tb->bring_up().ok());

  kern::Kernel& r1 = *tb->router(1).kernel;
  CallServer server(r1, r1.ip_node().address(), "causal", 4992);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));

  kern::Kernel& r0 = *tb->router(0).kernel;
  CallClient client(r0, r0.ip_node().address());
  int opened = 0;
  client.open("berkeley.rt", "causal", "",
              [&](util::Result<CallClient::Call> r) {
                EXPECT_TRUE(r.ok());
                ++opened;
              });
  tb->sim().run_for(sim::seconds(5));
  EXPECT_EQ(opened, 1);

  obs::CallTraceIndex idx(tb->sim().obs().trace());
  if (assert_edges) {
    // One call opened => one causal trace assembled.
    EXPECT_EQ(idx.traces().size(), 1u);
    if (idx.traces().size() == 1) {
      std::uint64_t t = idx.traces()[0];
      const obs::CallTraceNode* root = idx.root(t);
      const obs::CallTraceNode* setup = idx.find(t, "sighost", "call.setup");
      const obs::CallTraceNode* serve = idx.find(t, "sighost", "call.serve");
      const obs::CallTraceNode* vc = idx.find(t, "atm", "vc.setup");
      EXPECT_NE(root, nullptr);
      EXPECT_NE(setup, nullptr) << "caller sighost hop missing from tree";
      EXPECT_NE(serve, nullptr) << "callee sighost hop missing from tree";
      EXPECT_NE(vc, nullptr) << "kernel VC-install hop missing from tree";
      if (root != nullptr && setup != nullptr && serve != nullptr &&
          vc != nullptr) {
        EXPECT_EQ(root->component, "stub");
        EXPECT_EQ(root->name, "call.open");
        // The causal edges — each hop's parent is the upstream hop's span,
        // carried across hosts in the signaling messages.
        EXPECT_EQ(setup->parent, root->span);
        EXPECT_EQ(serve->parent, setup->span);
        EXPECT_EQ(vc->parent, serve->span);
        // And the hops really ran on their own machines.
        EXPECT_EQ(setup->track, "mh.rt");
        EXPECT_EQ(serve->track, "berkeley.rt");
        // Durations nest: the root covers every downstream hop.
        EXPECT_GE(root->dur.ns(), setup->dur.ns());
        EXPECT_GE(setup->dur.ns(), serve->dur.ns());
      }
    }
  }
  return idx.waterfall();
}

TEST(CausalTree, MultiHopCallAssemblesOneCrossHostTree) {
  std::string wf = causal_waterfall(/*assert_edges=*/true);
  EXPECT_FALSE(wf.empty());
  // The waterfall reads top-down in causal order.
  std::size_t at_open = wf.find("call.open");
  std::size_t at_vc = wf.find("vc.setup");
  ASSERT_NE(at_open, std::string::npos);
  ASSERT_NE(at_vc, std::string::npos);
  EXPECT_LT(at_open, at_vc);
}

TEST(CausalTree, WaterfallIsByteIdenticalAcrossSameSeedRuns) {
  std::string a = causal_waterfall(/*assert_edges=*/false);
  std::string b = causal_waterfall(/*assert_edges=*/false);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// -------------------------------------- crash post-mortem + health stream

struct PostMortemRun {
  std::string flight_dump;
  std::string health_jsonl;
  std::uint64_t triggers = 0;
};

// A seeded mid-call sighost crash with the health monitor attached — the
// same shape as the recovery bench's post-mortem scenario, sized for a test.
PostMortemRun crash_post_mortem_run() {
  PostMortemRun out;
  core::TestbedConfig cfg;
  cfg.kernel.fd_table_size = 512;
  cfg.sighost.request_timeout = sim::seconds(20);
  // pvc_mesh() sets auto_bring_up: build() returns a running deployment.
  auto tb = cfg.routers(2).pvc_mesh().build();
  auto& r1 = tb->router(1);
  CallServer server(*r1.kernel, r1.kernel->ip_node().address(), "pm", 4993);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  CallClient client(*tb->router(0).kernel,
                    tb->router(0).kernel->ip_node().address());

  obs::HealthMonitor health(
      tb->sim().obs(), [&tb](sim::SimDuration d, std::function<void()> fn) {
        tb->sim().schedule(d, std::move(fn));
      });
  health.watch_sighost("mh.rt");
  health.watch_sighost("berkeley.rt");
  health.start(sim::milliseconds(100));

  fault::FaultPlan plan(*tb, 1994);
  plan.crash_sighost_at(sim::seconds(2), 1);
  plan.restart_sighost_at(sim::milliseconds(2600), 1);
  plan.arm();

  for (int i = 0; i < 8; ++i) {
    tb->sim().schedule(sim::milliseconds(300) * i, [&] {
      client.open("berkeley.rt", "pm", "",
                  [](util::Result<CallClient::Call>) {});
    });
  }
  tb->sim().run_for(sim::seconds(20));
  health.stop();

  out.flight_dump = tb->sim().obs().flight().last_dump();
  out.health_jsonl = health.to_health_jsonl();
  out.triggers = tb->sim().obs().flight().triggers();
  return out;
}

TEST(PostMortem, SighostCrashProducesSchemaValidFlightDump) {
  PostMortemRun run = crash_post_mortem_run();
  EXPECT_GE(run.triggers, 1u);  // the crash fault event triggered a dump
  ASSERT_FALSE(run.flight_dump.empty());
  ASSERT_TRUE(every_line_is_json(run.flight_dump));
  std::string header = run.flight_dump.substr(0, run.flight_dump.find('\n'));
  EXPECT_NE(header.find(obs::kFlightSchema), std::string::npos);
  EXPECT_NE(header.find("\"reason\":\"fault:"), std::string::npos);
  // The ring captured real control-plane traffic leading up to the crash.
  EXPECT_NE(run.flight_dump.find("sighost"), std::string::npos);

  ASSERT_FALSE(run.health_jsonl.empty());
  ASSERT_TRUE(every_line_is_json(run.health_jsonl));
  EXPECT_NE(run.health_jsonl.find(obs::kHealthSchema), std::string::npos);
  EXPECT_NE(run.health_jsonl.find("\"rules\":8"), std::string::npos);
}

TEST(PostMortem, DumpAndAlertStreamAreByteIdenticalAcrossSameSeedRuns) {
  PostMortemRun a = crash_post_mortem_run();
  PostMortemRun b = crash_post_mortem_run();
  EXPECT_EQ(a.flight_dump, b.flight_dump);
  EXPECT_EQ(a.health_jsonl, b.health_jsonl);
  EXPECT_EQ(a.triggers, b.triggers);
}

}  // namespace
}  // namespace xunet
