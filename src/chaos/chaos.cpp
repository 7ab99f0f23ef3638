#include "chaos/chaos.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/export.hpp"
#include "util/json.hpp"

namespace xunet::chaos {

namespace {

/// Quantize a probability to 1/1000 steps.  json_number renders fixed
/// "%.6f", and k/1000 survives print→parse exactly (both are correctly
/// rounded to the same double), so quantized schedules replay
/// byte-identically through their JSONL form.
double quant(double p) {
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  return static_cast<double>(static_cast<std::int64_t>(p * 1000.0 + 0.5)) /
         1000.0;
}

std::int64_t to_ms(sim::SimDuration d) { return d.ns() / 1'000'000; }

}  // namespace

const char* kind_name(ChaosEventKind k) noexcept {
  switch (k) {
    case ChaosEventKind::wire_rule: return "wire_rule";
    case ChaosEventKind::crash_restart: return "crash_restart";
    case ChaosEventKind::trunk_cut: return "trunk_cut";
    case ChaosEventKind::link_flap: return "link_flap";
    case ChaosEventKind::cell_impair: return "cell_impair";
  }
  return "unknown";
}

const char* fault_name(sig::WireFault f) noexcept {
  switch (f) {
    case sig::WireFault::deliver: return "deliver";
    case sig::WireFault::drop: return "drop";
    case sig::WireFault::duplicate: return "duplicate";
    case sig::WireFault::corrupt: return "corrupt";
    case sig::WireFault::delay: return "delay";
  }
  return "unknown";
}

ChaosSchedule ChaosSchedule::generate(int n_routers, int n_hosts,
                                      const ChaosProfile& profile,
                                      std::uint64_t seed) {
  ChaosSchedule s;
  s.seed = seed;
  s.profile = profile;
  util::Rng rng(seed);

  const std::int64_t horizon_ms = std::max<std::int64_t>(1, to_ms(profile.horizon));
  const std::int64_t heal_ms =
      std::max<std::int64_t>(horizon_ms + 1, to_ms(profile.heal_by));

  // All draws happen in a fixed order so (topology, profile, seed) fully
  // determines the event list.
  auto window = [&rng, heal_ms](std::int64_t at_ms, std::int64_t min_dur_ms) {
    std::int64_t span = heal_ms - at_ms;
    std::int64_t dur = min_dur_ms;
    if (span > min_dur_ms) {
      dur += static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(span - min_dur_ms) + 1));
    }
    return std::min(dur, span);
  };

  const int n_wire = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(profile.max_wire_rules) + 1));
  for (int i = 0; i < n_wire; ++i) {
    ChaosEvent e;
    e.kind = ChaosEventKind::wire_rule;
    const std::int64_t at_ms =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(horizon_ms)));
    e.at = sim::milliseconds(at_ms);
    e.duration = sim::milliseconds(window(at_ms, 200));
    switch (rng.below(4)) {
      case 0: e.fault = sig::WireFault::drop; break;
      case 1: e.fault = sig::WireFault::duplicate; break;
      case 2: e.fault = sig::WireFault::corrupt; break;
      default: e.fault = sig::WireFault::delay; break;
    }
    e.probability =
        quant(profile.wire_fault_intensity * (0.2 + 0.8 * rng.uniform()));
    e.node = rng.chance(0.5)
                 ? -1
                 : static_cast<int>(rng.below(static_cast<std::uint64_t>(n_routers)));
    if (e.fault == sig::WireFault::delay) {
      e.delay = sim::milliseconds(50 + static_cast<std::int64_t>(rng.below(200)));
      e.jitter = sim::milliseconds(static_cast<std::int64_t>(rng.below(100)));
    }
    s.events.push_back(e);
  }

  // Crash/restart pairs: at most one per router, and the replacement always
  // comes up before heal_by (with slack for recovery to run fault-free).
  const int n_crash = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(profile.max_crash_restarts) + 1));
  std::vector<bool> crashed(static_cast<std::size_t>(n_routers), false);
  for (int i = 0; i < n_crash; ++i) {
    const int target =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(n_routers)));
    const std::int64_t at_ms =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(horizon_ms)));
    if (crashed[static_cast<std::size_t>(target)]) continue;
    crashed[static_cast<std::size_t>(target)] = true;
    ChaosEvent e;
    e.kind = ChaosEventKind::crash_restart;
    e.node = target;
    e.at = sim::milliseconds(at_ms);
    const std::int64_t max_outage = std::max<std::int64_t>(300, heal_ms - at_ms - 500);
    e.duration = sim::milliseconds(
        300 + static_cast<std::int64_t>(
                  rng.below(static_cast<std::uint64_t>(max_outage - 300) + 1)));
    s.events.push_back(e);
  }

  if (n_routers >= 2) {
    const int n_cut = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(profile.max_trunk_cuts) + 1));
    for (int i = 0; i < n_cut; ++i) {
      ChaosEvent e;
      e.kind = ChaosEventKind::trunk_cut;
      e.node =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(n_routers - 1)));
      const std::int64_t at_ms = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(horizon_ms)));
      e.at = sim::milliseconds(at_ms);
      e.duration = sim::milliseconds(window(at_ms, 200));
      s.events.push_back(e);
    }
  }

  if (n_hosts > 0) {
    const int n_flap = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(profile.max_link_flaps) + 1));
    for (int i = 0; i < n_flap; ++i) {
      ChaosEvent e;
      e.kind = ChaosEventKind::link_flap;
      e.node = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_hosts)));
      const std::int64_t at_ms = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(horizon_ms)));
      e.at = sim::milliseconds(at_ms);
      e.duration = sim::milliseconds(window(at_ms, 100));
      s.events.push_back(e);
    }
  }

  const int n_impair = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(profile.max_cell_impairments) + 1));
  for (int i = 0; i < n_impair; ++i) {
    ChaosEvent e;
    e.kind = ChaosEventKind::cell_impair;
    e.node = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_routers)));
    const std::int64_t at_ms = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(horizon_ms)));
    e.at = sim::milliseconds(at_ms);
    e.duration = sim::milliseconds(window(at_ms, 200));
    e.loss = quant(0.01 + 0.04 * profile.wire_fault_intensity * rng.uniform());
    e.corrupt = quant(0.02 * rng.uniform());
    s.events.push_back(e);
  }

  return s;
}

void ChaosSchedule::apply(core::Testbed& tb, fault::FaultPlan& plan,
                          sim::SimTime arm_time) const {
  const int n_routers = static_cast<int>(tb.router_count());
  const int n_hosts = static_cast<int>(tb.host_count());
  for (const ChaosEvent& e : events) {
    switch (e.kind) {
      case ChaosEventKind::wire_rule: {
        fault::WireRule r;
        r.fault = e.fault;
        r.probability = e.probability;
        r.delay = e.delay;
        r.delay_jitter = e.jitter;
        if (e.node >= 0 && e.node < n_routers) {
          r.node = tb.router(static_cast<std::size_t>(e.node))
                       .kernel->atm_address()
                       .name;
        }
        r.from = arm_time + e.at;
        r.until = arm_time + e.at + e.duration;
        plan.add_rule(std::move(r));
        break;
      }
      case ChaosEventKind::crash_restart:
        if (e.node >= 0 && e.node < n_routers) {
          plan.crash_sighost_at(e.at, static_cast<std::size_t>(e.node));
          plan.restart_sighost_at(e.at + e.duration,
                                  static_cast<std::size_t>(e.node));
        }
        break;
      case ChaosEventKind::trunk_cut:
        if (e.node >= 0 && e.node + 1 < n_routers) {
          plan.cut_trunk(e.at, e.duration, "s" + std::to_string(e.node + 1),
                         "s" + std::to_string(e.node + 2));
        }
        break;
      case ChaosEventKind::link_flap:
        if (e.node >= 0 && e.node < n_hosts) {
          plan.flap_host_link(e.at, e.duration,
                              static_cast<std::size_t>(e.node));
        }
        break;
      case ChaosEventKind::cell_impair:
        if (e.node >= 0 && e.node < n_routers) {
          plan.impair_cells(e.at, e.duration, static_cast<std::size_t>(e.node),
                            e.loss, e.corrupt);
        }
        break;
    }
  }
}

// ------------------------------------------------------------- JSONL form

std::string event_json(const ChaosEvent& e) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"rec\":\"event\",\"kind\":\"%s\",\"at_ns\":%" PRId64
      ",\"duration_ns\":%" PRId64 ",\"node\":%d,\"fault\":\"%s\""
      ",\"probability\":%s,\"delay_ns\":%" PRId64 ",\"jitter_ns\":%" PRId64
      ",\"loss\":%s,\"corrupt\":%s}",
      kind_name(e.kind), e.at.ns(), e.duration.ns(), e.node,
      fault_name(e.fault), obs::json_number(e.probability).c_str(),
      e.delay.ns(), e.jitter.ns(), obs::json_number(e.loss).c_str(),
      obs::json_number(e.corrupt).c_str());
  return buf;
}

bool event_from_json(const std::string& line, ChaosEvent& out) {
  auto field = [&line](const char* key) {
    return util::json_field(line, key).value_or("");
  };
  if (field("rec") != "event") return false;
  const std::string kind = field("kind");
  if (kind == "wire_rule") out.kind = ChaosEventKind::wire_rule;
  else if (kind == "crash_restart") out.kind = ChaosEventKind::crash_restart;
  else if (kind == "trunk_cut") out.kind = ChaosEventKind::trunk_cut;
  else if (kind == "link_flap") out.kind = ChaosEventKind::link_flap;
  else if (kind == "cell_impair") out.kind = ChaosEventKind::cell_impair;
  else return false;
  const std::string fault = field("fault");
  if (fault == "deliver") out.fault = sig::WireFault::deliver;
  else if (fault == "drop") out.fault = sig::WireFault::drop;
  else if (fault == "duplicate") out.fault = sig::WireFault::duplicate;
  else if (fault == "corrupt") out.fault = sig::WireFault::corrupt;
  else if (fault == "delay") out.fault = sig::WireFault::delay;
  else return false;
  out.at = sim::nanoseconds(std::atoll(field("at_ns").c_str()));
  out.duration = sim::nanoseconds(std::atoll(field("duration_ns").c_str()));
  out.node = std::atoi(field("node").c_str());
  out.probability = std::strtod(field("probability").c_str(), nullptr);
  out.delay = sim::nanoseconds(std::atoll(field("delay_ns").c_str()));
  out.jitter = sim::nanoseconds(std::atoll(field("jitter_ns").c_str()));
  out.loss = std::strtod(field("loss").c_str(), nullptr);
  out.corrupt = std::strtod(field("corrupt").c_str(), nullptr);
  return true;
}

}  // namespace xunet::chaos
