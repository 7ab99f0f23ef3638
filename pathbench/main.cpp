// pathbench — whole-path benchmark of the simulator.
//
//   pathbench --workload <call_churn|call_hold|stream_native|stream_encap>
//             --seed <n> --seconds <s> --trace <0|1> [--counts-only]
//
// A run first plays one count episode (deterministic per-layer counts,
// sim-time latencies and every correctness gate), then repeats timed
// episodes of identical work until --seconds of wall time have passed.
// Episodes are timed in CPU time of the (single) benchmark thread, and
// rates and set-up times come from the fastest episode.  --trace 0 prints
// the end-to-end metrics; --trace 1 alternates untraced and traced
// episodes, replays single layers on the workload's inputs, prints the
// per-layer metrics and writes the raw spans to
// spans/<workload>-seed<n>.jsonl beside the binary.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every correctness gate held.
//
// --counts-only plays just the count episode and prints its counts and the
// input digest as JSON (the determinism self-check compares two runs).
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pathbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool counts_only = false;
  std::filesystem::path exe_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pathbench: %s\nusage: pathbench --workload <call_churn|call_hold|"
               "stream_native|stream_encap> --seed <n> --seconds <s> --trace <0|1> "
               "[--counts-only]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.exe_dir = std::filesystem::path(argv[0]).parent_path();
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--counts-only") {
      a.counts_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// What a timed episode contributes; full Episodes are not kept.
struct Timed {
  double setup_s, build_s, bring_up_s;
  std::array<double, kTenths> tenth_s;
};

/// Smallest f(t) over the episodes.  Every episode does the same work, and
/// interference from the rest of the machine (cache and memory-bus sharing,
/// which CPU time still charges) only ever adds time, so the fastest run is
/// the steadiest estimate of the program's own cost.
template <typename F>
double min_of(const std::vector<Timed>& eps, F f) {
  double best = 0;
  for (const Timed& t : eps) {
    const double v = f(t);
    if (best == 0 || v < best) best = v;
  }
  return best;
}

/// CPU seconds of the measured phase, each tenth from the episode that ran
/// it fastest.  Taking the fastest per tenth rather than per episode keeps
/// a burst of interference in one part of an episode from discarding the
/// rest of it, which matters most on call_hold's few long episodes.
double best_run_s(const std::vector<Timed>& eps) {
  double s = 0;
  for (std::size_t k = 0; k < kTenths; ++k) {
    s += min_of(eps, [k](const Timed& t) { return t.tenth_s[k]; });
  }
  return s;
}

/// Nearest-rank percentile (0 < p <= 1) of sim-time latencies, in us.
double percentile_us(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]) / 1000.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set of this process image.  VmHWM, unlike getrusage's
/// ru_maxrss, does not carry over the launching process's peak across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_counts(const Args& a, const Inputs& in, const Episode& ep) {
  const Counts& c = ep.counts;
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"ops", c.ops},
      {"frames", c.frames},
      {"events", c.events},
      {"peak_pending", c.peak_pending},
      {"allocs", c.allocs},
      {"cell_hops", c.cell_hops},
      {"cells_lost", c.cells_lost},
      {"aal5_errors", c.aal5_errors},
      {"instr_send", c.instr_send},
      {"instr_recv", c.instr_recv},
      {"anand_posted", c.anand_posted},
      {"anand_dropped", c.anand_dropped},
      {"fds_time_wait_peak", c.fds_time_wait_peak},
      {"tcp_segments", c.tcp_segments},
      {"tcp_conns_peak", c.tcp_conns_peak},
      {"tcp_retransmits", c.tcp_retransmits},
      {"ip_fragments", c.ip_fragments},
      {"decapsulated", c.decapsulated},
      {"sig_peer_msgs", c.sig_peer_msgs},
      {"sig_retransmits", c.sig_retransmits},
      {"sig_sheds", c.sig_sheds},
      {"vci_mappings_end", c.vci_mappings_end},
  };
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%016llx\", "
              "\"correct\": %s, \"counts\": {",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(in.digest), ep.problems.empty() ? "true" : "false");
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "", fields[i].first,
                static_cast<unsigned long long>(fields[i].second));
  }
  std::printf("}}\n");
}

/// Write the traced run's raw spans to spans/<workload>-seed<n>.jsonl
/// beside the binary.
void write_spans(const Args& a) {
  const std::filesystem::path dir = a.exe_dir / "spans";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path file =
      dir / (a.workload + "-seed" + std::to_string(a.seed) + ".jsonl");
  if (ec || !tracer().write_jsonl(file.string())) {
    std::fprintf(stderr, "pathbench: cannot write %s\n", file.c_str());
  }
}

/// CPUs the process may run on.  Timed episodes take turns on them: on a
/// shared virtual machine one CPU can run the same code 20% slower than
/// another for minutes, and the scheduler tends to keep a process where it
/// started, so without turns the fastest tenths would depend on where the
/// process happened to land.
class CpuTurns {
 public:
  CpuTurns() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  /// Pin the calling thread to the turn'th CPU (mod their number).
  void pin(std::size_t turn) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }
  void release() const {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Timed episodes run at least this many times, however short --seconds.
constexpr std::size_t kMinTimed = 2;
/// Raw span records kept for the spans file.
constexpr std::size_t kSpanRecords = 50'000;
/// Wall time set aside for the single-layer replay in traced runs.
constexpr double kReplaySeconds = 2.5;

int run(const Args& a) {
  const auto kind = parse_kind(a.workload);
  if (!kind) usage(("unknown workload " + a.workload).c_str());
  const Inputs in = make_inputs(*kind, a.seed);

  const std::int64_t start = wall_ns();
  const Episode first = run_episode(in, /*counting=*/true);
  if (a.counts_only) {
    print_counts(a, in, first);
    return first.problems.empty() ? 0 : 1;
  }

  std::uint64_t attempted = first.counts.ops;
  std::uint64_t failed = first.failed;
  std::vector<std::string> problems = first.problems;
  const double budget = a.seconds - (a.trace ? kReplaySeconds : 0.0);
  const std::int64_t deadline = start + static_cast<std::int64_t>(budget * 1e9);
  std::vector<Timed> plain, traced;
  if (a.trace) tracer().keep_records(kSpanRecords);
  const CpuTurns turns;
  for (std::size_t i = 0; i < kMinTimed * (a.trace ? 2 : 1) || wall_ns() < deadline; ++i) {
    const bool tr = a.trace && i % 2 == 1;
    // A traced episode runs on the same CPU as the untraced one before it.
    turns.pin(a.trace ? i / 2 : i);
    tracer().set_enabled(tr);
    const Episode ep = run_episode(in, /*counting=*/false);
    tracer().set_enabled(false);
    double run_s = 0;
    for (double s : ep.tenth_s) run_s += s;
    std::fprintf(stderr,
                 "pathbench: episode %zu%s on cpu %d: setup %.6f s, run %.6f s cpu "
                 "(%.6f s wall), tail %.6f s\n",
                 i, tr ? " (traced)" : "", sched_getcpu(), ep.setup_s, run_s, ep.run_wall_s,
                 ep.tenth_s.back());
    (tr ? traced : plain)
        .push_back(Timed{ep.setup_s, ep.build_s, ep.bring_up_s, ep.tenth_s});
    attempted += ep.counts.ops;
    failed += ep.failed;
    problems.insert(problems.end(), ep.problems.begin(), ep.problems.end());
  }
  turns.release();
  const bool correct = problems.empty() && failed == 0;
  for (std::size_t i = 0; i < problems.size() && i < 10; ++i) {
    std::fprintf(stderr, "pathbench: correctness gate failed: %s\n", problems[i].c_str());
  }

  const Counts& c = first.counts;
  const double ops = static_cast<double>(c.ops);
  const double frames = static_cast<double>(c.frames);
  const double per_op_cpu = best_run_s(plain) / ops;
  std::vector<Metric> m;
  if (!a.trace) {
    const double tail_s = min_of(plain, [](const Timed& t) { return t.tenth_s.back(); });
    m.push_back({"setup_s", "s", min_of(plain, [](const Timed& t) { return t.setup_s; })});
    m.push_back({"ops_per_s", "1/s", ratio(1.0, per_op_cpu)});
    m.push_back({"tail_ops_per_s", "1/s", ratio(ops / kTenths, tail_s)});
    m.push_back({"peak_rss_MB", "MB", peak_rss_mb()});
    m.push_back({"op_sim_us_p50", "us", percentile_us(first.latency_ns, 0.50)});
    m.push_back({"op_sim_us_p99", "us", percentile_us(first.latency_ns, 0.99)});
  } else {
    const Tracer::Totals& tt = tracer().totals();
    auto mean_ns = [&tt](SpanName n) {
      const auto i = static_cast<std::size_t>(n);
      return ratio(static_cast<double>(tt.total_ns[i]), static_cast<double>(tt.count[i]));
    };
    const double traced_ops = ops * static_cast<double>(traced.size());
    const double traced_per_op_cpu = best_run_s(traced) / ops;
    const ReplayTimes r = replay_layers(in, first.call_msgs, c.cell_hops);
    auto all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    m = {
        {"sim.events_per_op", "count", ratio(c.events, ops)},
        {"sim.ns_per_event", "ns", ratio(per_op_cpu * 1e9 * ops, c.events)},
        {"sim.peak_pending", "count", static_cast<double>(c.peak_pending)},
        {"alloc.per_op", "count", ratio(c.allocs, ops)},
        {"atm.cell_hops_per_op", "count", ratio(c.cell_hops, ops)},
        {"atm.cells_lost", "count", static_cast<double>(c.cells_lost)},
        {"aal5.errors", "count", static_cast<double>(c.aal5_errors)},
        {"kern.xunet_send_ns", "ns", mean_ns(SpanName::xunet_send)},
        {"kern.instr.send_per_frame", "instr", ratio(c.instr_send, frames)},
        {"kern.instr.recv_per_frame", "instr", ratio(c.instr_recv, frames)},
        {"kern.anand.posted_per_op", "count", ratio(c.anand_posted, ops)},
        {"kern.anand.dropped", "count", static_cast<double>(c.anand_dropped)},
        {"kern.fds_time_wait_peak", "count", static_cast<double>(c.fds_time_wait_peak)},
        {"tcp.segments_per_op", "count", ratio(c.tcp_segments, ops)},
        {"tcp.conns_peak", "count", static_cast<double>(c.tcp_conns_peak)},
        {"tcp.retransmits", "count", static_cast<double>(c.tcp_retransmits)},
        {"ip.fragments_per_frame", "count", ratio(c.ip_fragments, frames)},
        {"kern.proto_atm.decap_per_frame", "count", ratio(c.decapsulated, frames)},
        {"sig.peer_msgs_per_op", "count", ratio(c.sig_peer_msgs, ops)},
        {"sig.retransmits", "count", static_cast<double>(c.sig_retransmits)},
        {"sig.sheds", "count", static_cast<double>(c.sig_sheds)},
        {"sig.vci_mappings_end", "count", static_cast<double>(c.vci_mappings_end)},
        {"userlib.open_ns", "ns", mean_ns(SpanName::open)},
        {"kern.close_ns", "ns", mean_ns(SpanName::close_call)},
        {"core.build_s", "s", min_of(all, [](const Timed& t) { return t.build_s; })},
        {"core.bring_up_s", "s", min_of(all, [](const Timed& t) { return t.bring_up_s; })},
        {"aal5.round_trip_ns.48B", "ns", r.aal5_round_trip_ns_48},
        {"aal5.round_trip_ns.9180B", "ns", r.aal5_round_trip_ns_9180},
        {"crc32.ns_per_KiB", "ns", r.crc32_ns_per_kib},
        {"sig.msg_round_trip_ns", "ns", r.sig_msg_round_trip_ns},
        {"ip.serialize_parse_ns", "ns", r.ip_serialize_parse_ns},
        {"atm.switch_ns_per_cell", "ns", r.switch_ns_per_cell},
        {"trace.overhead_frac", "ratio", ratio(traced_per_op_cpu, per_op_cpu) - 1.0},
    };
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      m.push_back({std::string("span.") + span_label(static_cast<SpanName>(i)) +
                       ".self_ns_per_op",
                   "ns", ratio(static_cast<double>(tt.self_ns[i]), traced_ops)});
    }
    write_spans(a);
  }

  std::printf("pathbench %s seed=%llu trace=%d: %zu timed episodes (+1 count episode), "
              "%llu ops each\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
              plain.size() + traced.size(), static_cast<unsigned long long>(c.ops));
  for (const Metric& x : m) {
    std::printf("  %-34s %16.6g %s\n", x.name.c_str(), x.value, x.unit);
  }
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pathbench

int main(int argc, char** argv) {
  return pathbench::run(pathbench::parse_args(argc, argv));
}
