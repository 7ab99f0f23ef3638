// bench_ext_call_load — extension experiment: control-plane scaling of the
// sharded signaling plane to one million live VCs.
//
// The paper's testbed holds tens of calls; §10 worries about descriptor
// tables and per-call state long before a million.  This bench grows the
// deployment instead of the call table: a long router chain, four sighost
// shards per router (each owning a VCI residue class), adjacent-only
// signaling PVCs, and an adjacent-pair call workload that holds every call
// open.  It measures wall-clock setup cost per call and in-sim setup
// latency at each decade (10^4, 10^5, 10^6 live VCs) — with ordered-map
// VCI tables and sharded sighosts, cost per call must stay flat (sub-linear
// growth) as the live-VC population grows two decades.
//
// Short mode (XUNET_BENCH_SHORT=1) runs the same code two decades lower:
// 10^2 -> 10^4 live VCs on a six-router chain with two shards.
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"

namespace xunet::bench {
namespace {

struct Shape {
  int routers = 34;        ///< chain length; pairs = routers - 1
  int shards = 4;          ///< sighost shards per router
  int per_pair = 30304;    ///< calls per adjacent pair (held open)
  std::uint64_t lo = 10'000;
  std::uint64_t mid = 100'000;
  std::uint64_t hi = 1'000'000;
  sim::SimDuration stagger = sim::microseconds(100);  ///< per-pair issue gap
};

struct Progress {
  std::uint64_t done = 0;    ///< opens resolved (ok + failed)
  std::uint64_t ok = 0;      ///< calls established and held open
  std::uint64_t failed = 0;
  std::vector<std::uint32_t> setup_us;  ///< in-sim setup latency, completion order
  std::chrono::steady_clock::time_point wall_start;
  double wall_us_lo = 0.0, wall_us_mid = 0.0, wall_us_hi = 0.0;
};

double wall_us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// p-th percentile (0..100) of `v[first, last)`, by copy + nth_element.
double percentile_us(const std::vector<std::uint32_t>& v, std::size_t first,
                     std::size_t last, double p) {
  if (last > v.size()) last = v.size();
  if (first >= last) return 0.0;
  std::vector<std::uint32_t> seg(v.begin() + static_cast<std::ptrdiff_t>(first),
                                 v.begin() + static_cast<std::ptrdiff_t>(last));
  const std::size_t k = std::min(
      seg.size() - 1,
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(seg.size())));
  std::nth_element(seg.begin(), seg.begin() + static_cast<std::ptrdiff_t>(k),
                   seg.end());
  return static_cast<double>(seg[k]);
}

void run() {
  Shape sh;
  if (bench_short()) {
    sh = Shape{6, 2, 2000, 100, 1'000, 10'000, sim::microseconds(100)};
  }
  const int pairs = sh.routers - 1;
  const std::uint64_t total =
      static_cast<std::uint64_t>(pairs) * static_cast<std::uint64_t>(sh.per_pair);
  XBENCH_CHECK(total >= sh.hi);

  banner("Extension: control-plane scaling — " + std::to_string(total) +
         " live VCs over " + std::to_string(sh.shards) +
         "-way sharded sighosts (" + std::to_string(sh.routers) +
         "-router chain)");

  core::TestbedConfig cfg;
  // Every call is held open: both processes on a router need a descriptor
  // per call plus transient per-call conns.
  cfg.kernel.fd_table_size = static_cast<std::size_t>(sh.per_pair) * 2 + 2048;
  cfg.kernel.tcp_msl = sim::milliseconds(200);
  // This experiment measures control-plane data structures, not the
  // paper's per-call IPC and logging costs — zero them so the decades run
  // in bounded sim time.
  cfg.kernel.context_switch = sim::microseconds(10);
  cfg.kernel.anand_buffers = 65536;
  cfg.sighost.per_call_log_cost = sim::SimDuration{};
  cfg.sighost.maintenance_logging = false;
  // The issue rate intentionally outruns the round-trip: size the request
  // lists for occupancy instead of shedding the burst.
  cfg.sighost.max_outgoing_requests = 1u << 16;
  cfg.sighost.max_incoming_requests = 1u << 16;
  auto tb = cfg.routers(sh.routers)
                .shards(sh.shards)
                .adjacent_pvc_only()
                .build_deferred();
  if (!tb->bring_up().ok()) std::abort();

  // One server per chain position 1..N-1, one client per position 0..N-2:
  // pair p runs client(router p) -> server(router p+1), so every call
  // crosses exactly one trunk and the per-link VCI budget stays inside
  // the 16-bit space.
  std::vector<std::unique_ptr<core::CallServer>> servers;
  std::vector<std::unique_ptr<core::CallClient>> clients;
  std::vector<std::string> dsts;
  for (int p = 0; p < pairs; ++p) {
    core::Router& dst_r = tb->router(static_cast<std::size_t>(p) + 1);
    servers.push_back(std::make_unique<core::CallServer>(
        *dst_r.kernel, dst_r.kernel->ip_node().address(), "load", 5700,
        sh.shards));
    servers.back()->start([](util::Result<void>) {});
    dsts.push_back(dst_r.kernel->atm_address().name);
    core::Router& src_r = tb->router(static_cast<std::size_t>(p));
    clients.push_back(std::make_unique<core::CallClient>(
        *src_r.kernel, src_r.kernel->ip_node().address(), sh.shards));
  }
  tb->sim().run_for(sim::milliseconds(500));

  auto prog = std::make_shared<Progress>();
  prog->setup_us.reserve(total);

  // Per-pair self-rescheduling issuer: one call every `stagger`, each call
  // retried under a generous deadline so transient shedding cannot dent
  // the live-VC target.
  app::OpenOptions opts;
  opts.deadline = sim::seconds(60);
  opts.retry_backoff = sim::milliseconds(10);
  opts.retry_backoff_max = sim::milliseconds(200);
  struct Issuer {
    core::CallClient* client = nullptr;
    const std::string* dst = nullptr;
    int remaining = 0;
  };
  auto issuers = std::make_shared<std::vector<Issuer>>();
  for (int p = 0; p < pairs; ++p) {
    issuers->push_back({clients[static_cast<std::size_t>(p)].get(), &dsts[static_cast<std::size_t>(p)],
                        sh.per_pair});
  }
  const Shape shape = sh;
  std::function<void(std::size_t)> issue = [&tb, prog, issuers, opts, shape,
                                            &issue](std::size_t p) {
    Issuer& is = (*issuers)[p];
    if (is.remaining-- <= 0) return;
    const sim::SimTime issued = tb->sim().now();
    is.client->open(
        *is.dst, "load", "", opts,
        [prog, issued, shape, sim = &tb->sim()](
            util::Result<core::CallClient::Call> r) {
          if (r.ok()) {
            ++prog->ok;
          } else {
            ++prog->failed;
          }
          prog->setup_us.push_back(static_cast<std::uint32_t>(
              (sim->now().ns() - issued.ns()) / 1000));
          const std::uint64_t done = ++prog->done;
          if (done == shape.lo) {
            prog->wall_us_lo = wall_us_since(prog->wall_start);
          } else if (done == shape.mid) {
            prog->wall_us_mid = wall_us_since(prog->wall_start);
          } else if (done == shape.hi) {
            prog->wall_us_hi = wall_us_since(prog->wall_start);
          }
        });
    if (is.remaining > 0) {
      tb->sim().schedule(shape.stagger, [p, &issue] { issue(p); });
    }
  };

  prog->wall_start = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < issuers->size(); ++p) issue(p);

  // Drive to completion: issue window plus the retry deadline.
  const std::int64_t give_up =
      tb->sim().now().ns() +
      (shape.stagger * sh.per_pair + sim::seconds(120)).ns();
  while (prog->done < total && tb->sim().now().ns() < give_up) {
    tb->sim().run_for(sim::milliseconds(500));
  }

  const double wall_lo = prog->wall_us_lo / static_cast<double>(sh.lo);
  const double wall_hi = (prog->wall_us_hi - prog->wall_us_mid) /
                         static_cast<double>(sh.hi - sh.mid);
  const double ratio = wall_lo > 0.0 ? wall_hi / wall_lo : 0.0;
  const double p50_lo = percentile_us(prog->setup_us, 0, sh.lo, 50.0);
  const double p99_lo = percentile_us(prog->setup_us, 0, sh.lo, 99.0);
  const double p50_hi = percentile_us(prog->setup_us, sh.mid, sh.hi, 50.0);
  const double p99_hi = percentile_us(prog->setup_us, sh.mid, sh.hi, 99.0);

  util::TextTable t("Setup cost by live-VC decade (calls held open)");
  t.header({"decade", "wall us/call", "sim setup p50 us", "sim setup p99 us"});
  t.row({std::to_string(sh.lo), util::fmt(wall_lo, 2), util::fmt(p50_lo, 0),
         util::fmt(p99_lo, 0)});
  t.row({std::to_string(sh.hi), util::fmt(wall_hi, 2), util::fmt(p50_hi, 0),
         util::fmt(p99_hi, 0)});
  t.print();

  std::printf("  live VCs held: %llu (failed %llu)  wall-cost ratio hi/lo: %s\n",
              static_cast<unsigned long long>(prog->ok),
              static_cast<unsigned long long>(prog->failed),
              util::fmt(ratio, 2).c_str());
  compare("setup cost vs live-VC population", "(not in paper; extension)",
          "flat per-call cost across two decades (VCI maps + shards)");

  JsonReport rep("call_load");
  rep.metric("live_vcs_peak", static_cast<double>(prog->ok));
  rep.metric("calls_offered", static_cast<double>(total));
  rep.metric("calls_failed", static_cast<double>(prog->failed));
  rep.metric("wall_us_per_call_lo", wall_lo);
  rep.metric("wall_us_per_call_hi", wall_hi);
  rep.metric("sublinear_ratio", ratio);
  rep.metric("setup_us_p50_lo", p50_lo);
  rep.metric("setup_us_p99_lo", p99_lo);
  rep.metric("setup_us_p50_hi", p50_hi);
  rep.metric("setup_us_p99_hi", p99_hi);
  rep.info("mode", bench_short() ? "short" : "full");
  rep.info("topology", std::to_string(sh.routers) + "-router chain, " +
                           std::to_string(sh.shards) + " shards/router, " +
                           std::to_string(sh.per_pair) + " calls/pair");
  rep.info("decades", std::to_string(sh.lo) + ".." + std::to_string(sh.hi));
  rep.write();

  XBENCH_CHECK(prog->ok >= sh.hi);
  // Sub-linear growth gate: per-call wall cost must grow strictly slower
  // than the live-VC population across the 10^4 -> 10^6 sweep, i.e. the
  // hi/lo ratio stays below the 100x decade factor.  Map lookups are
  // logarithmic; the ratio is dominated by per-VC timer background at 10^6
  // live sockets, not by table walks.  Full mode only —
  // the short workload is too small for stable wall-clock ratios.
  if (!bench_short()) {
    XBENCH_CHECK(ratio <
                 static_cast<double>(sh.hi) / static_cast<double>(sh.lo));
  }
}

}  // namespace
}  // namespace xunet::bench

int main() {
  xunet::bench::run();
  return 0;
}
