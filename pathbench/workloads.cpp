#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <set>

#include "core/apps.hpp"
#include "core/testbed.hpp"
#include "spans.hpp"
#include "util/alloc_hook.hpp"
#include "util/rng.hpp"

namespace pathbench {
namespace {

using namespace xunet;

// ---- workload shapes --------------------------------------------------------

/// call_churn: calls per episode and the closed-loop window.
constexpr std::size_t kChurnCalls = 4000;
constexpr std::size_t kChurnWindow = 16;
constexpr std::size_t kChurnFrameBytes = 48;
/// Upper bound of the uniform think time before a slot's next call.
constexpr std::int64_t kChurnThinkMaxNs = 1'000'000;

/// call_hold: the short shape of bench_ext_call_load — a six-router chain,
/// two sighost shards, adjacent pairs only, every call held open.
constexpr int kHoldRouters = 6;
constexpr int kHoldShards = 2;
constexpr std::size_t kHoldPerPair = 2000;
/// Each pair issues a call every 100 us, jittered uniformly by +-10 us.
constexpr std::int64_t kHoldGapNs = 100'000;
constexpr std::int64_t kHoldJitterNs = 10'000;

/// Streams: frames per episode, the size mix, and the offered load as a
/// share of the DS3 line rate every ATM link runs at.
constexpr std::size_t kStreamFrames = 8000;
constexpr std::array<std::size_t, 3> kFrameSizes{48, 1024, 9180};
constexpr double kStreamLoad = 0.6;

constexpr std::uint16_t kNotifyPort = 5600;

// ---- seeded frames ----------------------------------------------------------

/// Seeded blocks frames draw their bytes from.
constexpr std::size_t kBlocks = 32;

std::uint64_t mix(std::uint64_t h, std::uint64_t w) noexcept {
  h = (h ^ w) * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 29);
}

/// Checksum of a frame body, as carried in a frame's last eight bytes.
std::uint64_t frame_sum(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t h = mix(0x9e3779b97f4a7c15ULL, n);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = mix(h, w);
  }
  std::uint64_t w = 0;
  std::memcpy(&w, p + i, n - i);
  return mix(h, w);
}

/// Verifies frames at the receiver against the generated inputs.
struct FrameCheck {
  const Inputs* in = nullptr;
  bool in_order = false;
  std::uint32_t next = 0;      ///< in-order: index expected next
  std::vector<bool> seen;      ///< any-order: indices already delivered
  std::uint64_t good = 0;
  std::uint64_t bad = 0;

  /// Returns the frame index when `d` is intact and expected, else -1.
  std::int64_t verify(util::BytesView d) {
    std::uint32_t idx = 0;
    if (d.size() >= 12) std::memcpy(&idx, d.data(), 4);
    std::uint64_t sum = 0;
    const bool ok =
        d.size() >= 12 && idx < in->frame_count() && d.size() == in->frame_sizes[idx] &&
        (std::memcpy(&sum, d.data() + d.size() - 8, 8), sum == in->frame_sums[idx]) &&
        sum == frame_sum(d.data(), d.size() - 8) && (in_order ? idx == next : !seen[idx]);
    if (!ok) {
      ++bad;
      return -1;
    }
    if (in_order) {
      ++next;
    } else {
      seen[idx] = true;
    }
    ++good;
    return idx;
  }
};

// ---- the receiving application ----------------------------------------------

/// A server built directly on UserLib and the PF_XUNET syscalls: exports a
/// service on every sighost shard, accepts each call with the QoS the
/// client asked for, binds a data socket, and hands every received frame to
/// `on_frame`.
class Receiver {
 public:
  using FrameFn = std::function<void(util::BytesView)>;

  Receiver(kern::Kernel& k, ip::IpAddress sighost_ip, int shards, FrameFn on_frame)
      : k_(k), pid_(k.spawn("pathbench-rx")), on_frame_(std::move(on_frame)) {
    for (int s = 0; s < shards; ++s) {
      libs_.push_back(std::make_unique<app::UserLib>(
          k_, pid_, sighost_ip, static_cast<std::uint16_t>(sig::kSighostPort + s)));
    }
  }

  void start(const std::string& service) {
    for (std::size_t s = 0; s < libs_.size(); ++s) {
      libs_[s]->export_service(
          service, static_cast<std::uint16_t>(kNotifyPort + s),
          [this, s](util::Result<void> r) {
            if (!r) {
              ++failures_;
              return;
            }
            ++registered_;
            accept_loop(s);
          });
    }
  }

  [[nodiscard]] bool registered() const noexcept { return registered_ == libs_.size(); }
  [[nodiscard]] std::size_t bound() const noexcept { return fds_.size(); }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

 private:
  void accept_loop(std::size_t s) {
    libs_[s]->await_service_request([this, s](util::Result<app::IncomingRequest> r) {
      if (!r) return;
      const app::IncomingRequest req = *r;
      libs_[s]->accept_connection(req, req.qos, [this, s](util::Result<app::OpenResult> rr) {
        if (!rr) {
          ++failures_;
          return;
        }
        auto fd = libs_[s]->bind_data_socket(*rr);
        if (!fd) {
          ++failures_;
          return;
        }
        fds_.insert(*fd);
        (void)k_.xunet_on_receive(pid_, *fd, [this](util::BytesView d) {
          Scope span(SpanName::cb_frame);
          on_frame_(d);
        });
        (void)k_.xunet_on_disconnect(pid_, *fd, [this, fd = *fd] {
          if (fds_.erase(fd) != 0) (void)k_.close(pid_, fd);
        });
      });
      accept_loop(s);
    });
  }

  kern::Kernel& k_;
  kern::Pid pid_;
  FrameFn on_frame_;
  std::vector<std::unique_ptr<app::UserLib>> libs_;
  std::set<int> fds_;
  std::size_t registered_ = 0;
  std::uint64_t failures_ = 0;
};

// ---- counters read from the testbed ------------------------------------------

/// Cumulative counters summed over every machine, link and switch.
struct Totals {
  std::uint64_t cell_hops = 0, cells_lost = 0, aal5_errors = 0;
  std::uint64_t instr_send = 0, instr_recv = 0;
  std::uint64_t anand_posted = 0, anand_dropped = 0;
  std::uint64_t tcp_segments = 0, tcp_retransmits = 0;
  std::uint64_t ip_fragments = 0, decapsulated = 0;
  std::uint64_t sig_retransmits = 0, sig_sheds = 0;
};

template <typename Fn>
void for_each_kernel(core::Testbed& tb, Fn fn) {
  for (std::size_t i = 0; i < tb.router_count(); ++i) fn(*tb.router(i).kernel);
  for (std::size_t i = 0; i < tb.host_count(); ++i) fn(*tb.host(i).kernel);
}

template <typename Fn>
void for_each_shard(core::Testbed& tb, Fn fn) {
  for (std::size_t i = 0; i < tb.router_count(); ++i) {
    core::Router& r = tb.router(i);
    for (std::size_t s = 0; s < r.shard_count(); ++s) {
      if (sig::Sighost* sh = r.shard(s)) fn(*sh);
    }
  }
}

Totals read_totals(core::Testbed& tb) {
  Totals t;
  for_each_kernel(tb, [&t](kern::Kernel& k) {
    t.instr_send += k.instr().path_total(kern::InstrDir::send);
    t.instr_recv += k.instr().path_total(kern::InstrDir::receive);
    t.anand_posted += k.anand().posted();
    t.anand_dropped += k.anand().dropped();
    t.tcp_segments += k.tcp().segments_sent();
    t.tcp_retransmits += k.tcp().retransmits();
    t.ip_fragments += k.ip_node().fragments_sent();
    t.decapsulated += k.proto_atm().frames_decapsulated();
    if (k.hobbit() != nullptr) t.aal5_errors += k.hobbit()->aal5_errors();
  });
  for_each_shard(tb, [&t](sig::Sighost& sh) {
    t.sig_retransmits += sh.stats().retransmits;
    t.sig_sheds += sh.stats().sheds;
  });
  std::vector<atm::CellLink*> links;
  for (std::size_t i = 0; i < tb.router_count(); ++i) {
    core::Router& r = tb.router(i);
    for (atm::CellLink* l : tb.network().endpoint_links(r.kernel->atm_address())) {
      links.push_back(l);
    }
    if (i > 0) {
      for (atm::CellLink* l : tb.network().trunk_links(*tb.router(i - 1).sw, *r.sw)) {
        links.push_back(l);
      }
    }
  }
  for (const atm::CellLink* l : links) {
    t.cell_hops += l->cells_sent();
    t.cells_lost += l->cells_dropped();
  }
  for (const auto& [name, c] : tb.sim().obs().metrics().counters()) {
    if (name.rfind("atm.switch.", 0) != 0) continue;
    if (name.find(".discard.") != std::string::npos ||
        name.ends_with(".cells_unroutable")) {
      t.cells_lost += c.value();
    }
  }
  return t;
}

void add_deltas(Counts& c, const Totals& a, const Totals& b) {
  c.cell_hops = b.cell_hops - a.cell_hops;
  c.cells_lost = b.cells_lost - a.cells_lost;
  c.aal5_errors = b.aal5_errors - a.aal5_errors;
  c.instr_send = b.instr_send - a.instr_send;
  c.instr_recv = b.instr_recv - a.instr_recv;
  c.anand_posted = b.anand_posted - a.anand_posted;
  c.anand_dropped = b.anand_dropped - a.anand_dropped;
  c.tcp_segments = b.tcp_segments - a.tcp_segments;
  c.tcp_retransmits = b.tcp_retransmits - a.tcp_retransmits;
  c.ip_fragments = b.ip_fragments - a.ip_fragments;
  c.decapsulated = b.decapsulated - a.decapsulated;
  c.sig_retransmits = b.sig_retransmits - a.sig_retransmits;
  c.sig_sheds = b.sig_sheds - a.sig_sheds;
}

std::uint64_t vci_mappings(core::Testbed& tb) {
  std::uint64_t n = 0;
  for_each_shard(tb, [&n](sig::Sighost& sh) { n += sh.vci_mapping_size(); });
  return n;
}

// ---- episode scaffolding -------------------------------------------------------

double cpu_seconds_since(std::int64_t t0) {
  return static_cast<double>(cpu_ns() - t0) * 1e-9;
}

/// Runs the simulator in fixed chunks until `done` or `give_up`, counting
/// dispatched events and (on the count episode) sampling peak TCP state.
class SimLoop {
 public:
  SimLoop(core::Testbed& tb, bool sample_peaks, Counts& c)
      : tb_(tb), sample_peaks_(sample_peaks), c_(c) {}

  template <typename Done>
  std::uint64_t run(Done done, sim::SimDuration chunk, sim::SimTime give_up) {
    std::uint64_t events = 0;
    while (!done() && tb_.sim().now() < give_up) {
      {
        Scope span(SpanName::run_for);
        events += tb_.sim().run_for(chunk);
      }
      if (sample_peaks_) sample();
    }
    return events;
  }

 private:
  void sample() {
    std::uint64_t tw = 0, conns = 0;
    for_each_kernel(tb_, [&](kern::Kernel& k) {
      tw += k.fds_in_time_wait();
      conns += k.tcp().connection_count();
    });
    c_.fds_time_wait_peak = std::max(c_.fds_time_wait_peak, tw);
    c_.tcp_conns_peak = std::max(c_.tcp_conns_peak, conns);
  }

  core::Testbed& tb_;
  bool sample_peaks_;
  Counts& c_;
};

/// CPU-time marks of the measured phase: its start and the op that ends
/// each tenth of it.
struct Progress {
  std::uint64_t target = 0;
  std::uint64_t done = 0;
  std::array<std::int64_t, kTenths + 1> mark_ns{};
  std::size_t marked = 0;
  std::int64_t start_wall_ns = 0;

  void start() {
    start_wall_ns = wall_ns();
    mark_ns[0] = cpu_ns();
    marked = 1;
  }
  void complete_one() {
    ++done;
    while (marked <= kTenths && done * kTenths >= target * marked) mark_ns[marked++] = cpu_ns();
  }
  void finish(Episode& ep) {
    while (marked <= kTenths) mark_ns[marked++] = cpu_ns();  // only when ops went missing
    for (std::size_t k = 0; k < kTenths; ++k) {
      ep.tenth_s[k] = static_cast<double>(mark_ns[k + 1] - mark_ns[k]) * 1e-9;
    }
    ep.run_wall_s = static_cast<double>(wall_ns() - start_wall_ns) * 1e-9;
  }
};

/// Counts peer signaling messages through the testbed's wire-fault seam
/// (every verdict is `deliver`) and keeps the first few.
struct PeerTap {
  static constexpr std::size_t kKeep = 8;
  std::uint64_t count = 0;
  std::vector<sig::Msg> first;
};

/// Measured-phase bookkeeping shared by all workloads.
class Measure {
 public:
  Measure(core::Testbed& tb, const PeerTap& tap, Counts& c) : tb_(tb), tap_(tap), c_(c) {}
  void begin() {
    before_ = read_totals(tb_);
    peer_msgs_ = tap_.count;
    allocs_ = util::alloc_count();
  }
  void end() {
    c_.allocs = util::alloc_count() - allocs_;
    c_.sig_peer_msgs = tap_.count - peer_msgs_;
    add_deltas(c_, before_, read_totals(tb_));
    c_.peak_pending = tb_.sim().peak_pending();
    c_.vci_mappings_end = vci_mappings(tb_);
  }

 private:
  core::Testbed& tb_;
  const PeerTap& tap_;
  Counts& c_;
  Totals before_;
  std::uint64_t peer_msgs_ = 0;
  std::uint64_t allocs_ = 0;
};

void gate(Episode& ep, bool ok, const std::string& what) {
  if (ok) return;
  ++ep.failed;
  ep.problems.push_back(what);
}

/// Checks every workload shares: nothing lost or corrupted on the cell
/// path, no /dev/anand indication dropped.
void common_gates(Episode& ep) {
  const Counts& c = ep.counts;
  gate(ep, c.aal5_errors == 0, "aal5 errors: " + std::to_string(c.aal5_errors));
  gate(ep, c.cells_lost == 0, "cells lost: " + std::to_string(c.cells_lost));
  gate(ep, c.anand_dropped == 0, "anand drops: " + std::to_string(c.anand_dropped));
}

core::TestbedConfig config_for(Kind k) {
  core::TestbedConfig cfg;
  switch (k) {
    case Kind::call_churn:
      // Paper-default kernel and sighost costs.  TIME_WAIT is scaled from
      // 2 x 30 s to 2 x 1 s so the recycled state stays small and drains
      // quickly, and the descriptor table has the paper's fixed 100 slots.
      cfg.kernel.tcp_msl = sim::seconds(1);
      cfg.kernel.fd_table_size = 100;
      break;
    case Kind::call_hold:
      // bench_ext_call_load's cost config: every call is held open, so
      // descriptor tables and request lists are sized for occupancy, and
      // per-call IPC and logging costs are cut so the run stays short in
      // simulated time.
      cfg.kernel.fd_table_size = kHoldPerPair * 2 + 2048;
      cfg.kernel.tcp_msl = sim::milliseconds(200);
      cfg.kernel.context_switch = sim::microseconds(10);
      cfg.kernel.anand_buffers = 65536;
      cfg.sighost.per_call_log_cost = sim::SimDuration{};
      cfg.sighost.maintenance_logging = false;
      cfg.sighost.max_outgoing_requests = 1u << 16;
      cfg.sighost.max_incoming_requests = 1u << 16;
      cfg.routers(kHoldRouters).shards(kHoldShards).adjacent_pvc_only();
      break;
    case Kind::stream_native:
      break;
    case Kind::stream_encap:
      cfg.hosts(2);  // host 0 on router 0, host 1 on router 1
      break;
  }
  return cfg;
}

/// Build and bring up the testbed; records build/bring-up CPU time.
std::unique_ptr<core::Testbed> set_up(Kind k, bool counting, PeerTap& tap, Episode& ep) {
  std::unique_ptr<core::Testbed> tb;
  std::int64_t t = cpu_ns();
  {
    Scope span(SpanName::build);
    tb = config_for(k).build_deferred();
  }
  ep.build_s = cpu_seconds_since(t);
  t = cpu_ns();
  bool up = false;
  {
    Scope span(SpanName::bring_up);
    up = tb->bring_up().ok();
  }
  ep.bring_up_s = cpu_seconds_since(t);
  gate(ep, up, "bring_up failed");
  if (counting) {
    tb->set_wire_fault([&tap](const std::string&, const std::string&, const sig::Msg& m) {
      ++tap.count;
      if (tap.first.size() < PeerTap::kKeep) tap.first.push_back(m);
      return sig::WireVerdict{};
    });
  }
  return tb;
}

/// Register receivers and wait (in sim time) until all are serving.
void serve(core::Testbed& tb, bool counting, Counts& scratch,
           const std::vector<std::unique_ptr<Receiver>>& rx, Episode& ep) {
  Scope span(SpanName::serve);
  for (const auto& r : rx) r->start("pathbench");
  SimLoop d(tb, counting, scratch);
  auto all = [&rx] {
    return std::all_of(rx.begin(), rx.end(),
                       [](const auto& r) { return r->registered(); });
  };
  (void)d.run(all, sim::milliseconds(10), tb.sim().now() + sim::seconds(2));
  gate(ep, all(), "receiver registration failed");
}

// ---- call workloads -----------------------------------------------------------

Episode run_calls(const Inputs& in, bool counting) {
  const bool churn = in.kind == Kind::call_churn;
  Episode ep;
  PeerTap tap;
  const std::int64_t setup_start = cpu_ns();
  auto tb = set_up(in.kind, counting, tap, ep);
  Counts scratch;
  const std::size_t pairs = churn ? 1 : kHoldRouters - 1;
  const int shards = churn ? 1 : kHoldShards;

  FrameCheck check;
  check.in = &in;
  check.seen.assign(in.frame_count(), false);
  std::vector<std::unique_ptr<Receiver>> rx;
  std::vector<std::unique_ptr<core::CallClient>> clients;
  std::vector<std::string> dsts;
  for (std::size_t p = 0; p < pairs; ++p) {
    core::Router& dst = tb->router(p + 1);
    core::Router& src = tb->router(p);
    rx.push_back(std::make_unique<Receiver>(
        *dst.kernel, dst.kernel->ip_node().address(), shards,
        [&check](util::BytesView d) { (void)check.verify(d); }));
    clients.push_back(std::make_unique<core::CallClient>(
        *src.kernel, src.kernel->ip_node().address(), shards));
    dsts.push_back(dst.kernel->atm_address().name);
  }
  serve(*tb, counting, scratch, rx, ep);
  ep.setup_s = cpu_seconds_since(setup_start);

  const std::size_t total = churn ? kChurnCalls : pairs * kHoldPerPair;
  const std::size_t per_pair = churn ? total : kHoldPerPair;
  Counts& c = ep.counts;
  c.ops = total;
  ep.latency_ns.assign(total, 0);
  Progress prog;
  prog.target = total;
  std::uint64_t opened = 0;
  std::vector<std::size_t> next(pairs, 0);  ///< next call per pair (hold)
  std::size_t next_call = 0;                ///< next call overall (churn)
  util::Buffer frame;                       ///< send scratch
  sim::Simulator& simu = tb->sim();
  app::OpenOptions hold_opts;
  hold_opts.deadline = sim::seconds(60);
  hold_opts.retry_backoff = sim::milliseconds(10);
  hold_opts.retry_backoff_max = sim::milliseconds(200);

  // One issue step.  churn: a window slot opens the next call, and on
  // completion sends its frame, closes, and re-issues after a think time.
  // hold: pair p opens its next call and schedules the one after it.
  std::function<void(std::size_t)> issue = [&](std::size_t p) {
    std::size_t i = 0;
    if (churn) {
      if (next_call >= total) return;
      i = next_call++;
    } else {
      if (next[p] >= per_pair) return;
      i = p * per_pair + next[p]++;
    }
    tracer().set_op(static_cast<std::uint32_t>(i));
    const std::int64_t issued = simu.now().ns();
    core::CallClient& cl = *clients[p];
    auto on_open = [&, p, i, issued](util::Result<core::CallClient::Call> r) {
      Scope span(SpanName::cb_opened);
      tracer().set_op(static_cast<std::uint32_t>(i));
      ep.latency_ns[i] = simu.now().ns() - issued;
      if (!r) {
        ++ep.failed;
      } else {
        ++opened;
        if (churn) {
          in.frame(i, frame);
          bool sent = false;
          {
            Scope s(SpanName::xunet_send);
            sent = clients[p]->send(*r, frame).ok();
          }
          if (!sent) ++ep.failed;
          Scope s(SpanName::close_call);
          clients[p]->close_call(*r);
        }
      }
      prog.complete_one();
      if (churn) {
        simu.schedule(sim::nanoseconds(in.gaps_ns[i]), [&issue, p] {
          Scope s(SpanName::cb_issue);
          issue(p);
        });
      }
    };
    {
      Scope span(SpanName::open);
      if (churn) {
        cl.open(dsts[p], "pathbench", "", on_open);
      } else {
        cl.open(dsts[p], "pathbench", "", hold_opts, on_open);
      }
    }
    if (!churn && next[p] < per_pair) {
      simu.schedule(sim::nanoseconds(in.gaps_ns[p * per_pair + next[p]]), [&issue, p] {
        Scope s(SpanName::cb_issue);
        issue(p);
      });
    }
  };

  Measure m(*tb, tap, c);
  SimLoop d(*tb, counting, c);
  m.begin();
  prog.start();
  if (churn) {
    for (std::size_t s = 0; s < kChurnWindow; ++s) issue(0);
  } else {
    for (std::size_t p = 0; p < pairs; ++p) {
      simu.schedule(sim::nanoseconds(in.gaps_ns[p * per_pair]), [&issue, p] {
        Scope s(SpanName::cb_issue);
        issue(p);
      });
    }
  }
  // churn is done when every call resolved and every frame sent arrived.
  auto done = [&] {
    return prog.done >= total && (!churn || check.good + check.bad >= opened);
  };
  c.events = d.run(done, churn ? sim::milliseconds(50) : sim::milliseconds(5),
                   simu.now() + sim::seconds(churn ? 3600 : 300));
  prog.finish(ep);
  m.end();
  c.frames = check.good;

  gate(ep, prog.done == total,
       "calls resolved " + std::to_string(prog.done) + "/" + std::to_string(total));
  gate(ep, opened == total, "calls opened " + std::to_string(opened) + "/" +
                                std::to_string(total));
  for (const auto& r : rx) gate(ep, r->failures() == 0, "receiver accept failures");
  common_gates(ep);
  if (churn) {
    gate(ep, check.bad == 0 && check.good == opened,
         "frames intact " + std::to_string(check.good) + "/" + std::to_string(opened));
    // Frugal resources: once TIME_WAIT drains, nothing outlives its call.
    auto clean = [&] { return tb->audit().clean(); };
    (void)d.run(clean, sim::milliseconds(100), simu.now() + sim::seconds(10));
    gate(ep, clean(), "audit after drain: " + tb->audit().describe());
  } else {
    const std::size_t live = tb->audit().network_vcs;
    gate(ep, live == opened, "live VCs " + std::to_string(live) + " != calls " +
                                 std::to_string(opened));
    gate(ep, c.vci_mappings_end == 2 * opened,
         "sighost VCI mappings " + std::to_string(c.vci_mappings_end) +
             " != 2 x calls " + std::to_string(opened));
  }
  tb->set_wire_fault(nullptr);
  ep.call_msgs = std::move(tap.first);
  clients.clear();
  rx.clear();
  return ep;
}

// ---- stream workloads -----------------------------------------------------------

Episode run_stream(const Inputs& in, bool counting) {
  const bool native = in.kind == Kind::stream_native;
  Episode ep;
  PeerTap tap;
  const std::int64_t setup_start = cpu_ns();
  auto tb = set_up(in.kind, counting, tap, ep);
  Counts scratch;
  sim::Simulator& simu = tb->sim();

  kern::Kernel& src = native ? *tb->router(0).kernel : *tb->host(0).kernel;
  kern::Kernel& dst = native ? *tb->router(1).kernel : *tb->host(1).kernel;
  const ip::IpAddress src_sighost = tb->router(0).kernel->ip_node().address();
  const ip::IpAddress dst_sighost = tb->router(1).kernel->ip_node().address();

  FrameCheck check;
  check.in = &in;
  check.in_order = true;
  const std::size_t total = in.frame_count();
  ep.latency_ns.assign(total, 0);
  Progress prog;
  prog.target = total;
  std::int64_t t0 = 0;  ///< sim instant frame 0 is due
  std::vector<std::unique_ptr<Receiver>> rx;
  rx.push_back(std::make_unique<Receiver>(dst, dst_sighost, 1, [&](util::BytesView d) {
    const std::int64_t idx = check.verify(d);
    if (idx < 0) return;
    tracer().set_op(static_cast<std::uint32_t>(idx));
    ep.latency_ns[static_cast<std::size_t>(idx)] =
        simu.now().ns() - (t0 + idx * in.interval_ns);
    prog.complete_one();
  }));
  serve(*tb, counting, scratch, rx, ep);

  core::CallClient client(src, src_sighost);
  std::optional<core::CallClient::Call> call;
  {
    Scope span(SpanName::open);
    client.open(tb->router(1).kernel->atm_address().name, "pathbench", "",
                [&](util::Result<core::CallClient::Call> r) {
                  Scope s(SpanName::cb_opened);
                  if (r) call = *r;
                });
  }
  SimLoop d(*tb, counting, ep.counts);
  {
    SimLoop setup_loop(*tb, counting, scratch);
    auto ready = [&] { return call.has_value() && rx.front()->bound() == 1; };
    (void)setup_loop.run(ready, sim::milliseconds(10), simu.now() + sim::seconds(5));
    gate(ep, ready(), "stream call setup failed");
  }
  ep.setup_s = cpu_seconds_since(setup_start);
  if (!call) return ep;

  Counts& c = ep.counts;
  c.ops = total;
  Measure m(*tb, tap, c);
  m.begin();
  prog.start();
  t0 = simu.now().ns() + 1'000'000;
  // Open loop: frame i is due at t0 + i * interval whatever happened to
  // the frames before it.
  auto due = [&](std::size_t i) {
    return sim::SimTime{} +
           sim::nanoseconds(t0 + static_cast<std::int64_t>(i) * in.interval_ns);
  };
  util::Buffer frame;
  std::function<void(std::size_t)> send = [&](std::size_t i) {
    Scope span(SpanName::cb_send);
    tracer().set_op(static_cast<std::uint32_t>(i));
    in.frame(i, frame);
    bool ok = false;
    {
      Scope s(SpanName::xunet_send);
      ok = client.send(*call, frame).ok();
    }
    if (!ok) ++ep.failed;
    if (i + 1 < total) simu.schedule_at(due(i + 1), [&send, i] { send(i + 1); });
  };
  simu.schedule_at(due(0), [&send] { send(0); });
  c.events = d.run([&] { return check.good + check.bad >= total; }, sim::milliseconds(5),
                   due(total) + sim::seconds(10));
  prog.finish(ep);
  m.end();
  c.frames = check.good;

  gate(ep, check.bad == 0 && check.good == total,
       "frames intact in order " + std::to_string(check.good) + "/" + std::to_string(total));
  common_gates(ep);
  {
    Scope s(SpanName::close_call);
    client.close_call(*call);
  }
  auto clean = [&] { return tb->audit().clean(); };
  (void)d.run(clean, sim::milliseconds(100), simu.now() + sim::seconds(10));
  gate(ep, clean(), "audit after close: " + tb->audit().describe());
  tb->set_wire_fault(nullptr);
  ep.call_msgs = std::move(tap.first);
  rx.clear();
  return ep;
}

}  // namespace

// ---- public surface ----------------------------------------------------------------

std::optional<Kind> parse_kind(std::string_view name) {
  for (Kind k : {Kind::call_churn, Kind::call_hold, Kind::stream_native, Kind::stream_encap}) {
    if (name == kind_name(k)) return k;
  }
  return std::nullopt;
}

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::call_churn: return "call_churn";
    case Kind::call_hold: return "call_hold";
    case Kind::stream_native: return "stream_native";
    case Kind::stream_encap: return "stream_encap";
  }
  return "?";
}

void Inputs::frame(std::size_t i, util::Buffer& out) const {
  const std::size_t size = frame_sizes[i];
  const util::Buffer& block = blocks[i % blocks.size()];
  out.assign(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(size));
  const auto index = static_cast<std::uint32_t>(i);
  std::memcpy(out.data(), &index, 4);
  std::memcpy(out.data() + size - 8, &frame_sums[i], 8);
}

Inputs make_inputs(Kind kind, std::uint64_t seed) {
  Inputs in;
  in.kind = kind;
  in.seed = seed;
  util::Rng rng(mix(seed, static_cast<std::uint64_t>(kind) + 1));
  switch (kind) {
    case Kind::call_churn:
      for (std::size_t i = 0; i < kChurnCalls; ++i) {
        in.frame_sizes.push_back(kChurnFrameBytes);
        in.gaps_ns.push_back(rng.range(0, kChurnThinkMaxNs));
      }
      break;
    case Kind::call_hold:
      for (std::size_t i = 0; i < (kHoldRouters - 1) * kHoldPerPair; ++i) {
        in.gaps_ns.push_back(kHoldGapNs + rng.range(-kHoldJitterNs, kHoldJitterNs));
      }
      break;
    case Kind::stream_native:
    case Kind::stream_encap: {
      double cell_bits = 0;
      for (std::size_t i = 0; i < kStreamFrames; ++i) {
        const std::size_t size = kFrameSizes[rng.below(kFrameSizes.size())];
        in.frame_sizes.push_back(static_cast<std::uint32_t>(size));
        cell_bits += static_cast<double>(atm::cells_for_payload(size) * atm::kCellBits);
      }
      in.interval_ns = static_cast<std::int64_t>(
          cell_bits / (kStreamLoad * static_cast<double>(atm::kDs3Bps)) * 1e9 /
          static_cast<double>(kStreamFrames));
      break;
    }
  }
  if (in.frame_count() > 0) {
    const std::size_t largest = *std::max_element(in.frame_sizes.begin(), in.frame_sizes.end());
    for (std::size_t b = 0; b < kBlocks; ++b) {
      util::Buffer block(largest);
      for (std::size_t i = 0; i < largest; i += 8) {
        const std::uint64_t r = rng.next();
        std::memcpy(block.data() + i, &r, std::min<std::size_t>(8, largest - i));
      }
      in.blocks.push_back(std::move(block));
    }
    util::Buffer f;
    for (std::size_t i = 0; i < in.frame_count(); ++i) {
      in.frame_sums.push_back(0);
      in.frame(i, f);
      in.frame_sums[i] = frame_sum(f.data(), f.size() - 8);
    }
  }
  std::uint64_t h = mix(in.seed, static_cast<std::uint64_t>(kind));
  for (std::size_t i = 0; i < in.frame_count(); ++i) {
    h = mix(mix(h, in.frame_sizes[i]), in.frame_sums[i]);
  }
  for (std::int64_t g : in.gaps_ns) h = mix(h, static_cast<std::uint64_t>(g));
  in.digest = mix(h, static_cast<std::uint64_t>(in.interval_ns));
  return in;
}

Episode run_episode(const Inputs& in, bool counting) {
  tracer().set_op(0);  // set-up spans belong to no operation; op 0 stands in
  return is_stream(in.kind) ? run_stream(in, counting) : run_calls(in, counting);
}

}  // namespace pathbench
