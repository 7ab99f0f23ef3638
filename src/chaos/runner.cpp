#include "chaos/runner.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/apps.hpp"
#include "util/json.hpp"

namespace xunet::chaos {

namespace {

/// Shared workload bookkeeping, owned by shared_ptr so open callbacks that
/// fire (or mis-fire) after run_events() assembled its tallies stay safe.
struct Tally {
  std::vector<int> fired;  ///< per-call callback count
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;
  std::uint64_t multi = 0;
};

}  // namespace

RunOutcome run_events(const ChaosCase& c,
                      const std::vector<ChaosEvent>& events) {
  RunOutcome out;
  out.schedule.seed = c.seed;
  out.schedule.profile = c.profile;
  out.schedule.events = events;

  core::TestbedConfig cfg;
  // Many short-lived calls: completed per-call conns linger in TIME_WAIT,
  // so the default 20-entry fd table would starve the workload.
  cfg.kernel.fd_table_size = 512;
  // CI-speed timeouts: every pending state must expire well inside the
  // post-heal settle window.
  cfg.sighost.request_timeout = sim::seconds(3);
  cfg.sighost.wait_for_bind_timeout = sim::seconds(2);
  cfg.sighost.resync_grace = sim::seconds(1);
  cfg.sighost.recovery_skip_audit = c.sabotage_skip_audit;
  const int shards = std::max(1, c.shards);
  auto tb = cfg.routers(c.routers)
                .hosts(c.hosts)
                .shards(shards)
                .pvc_mesh()
                .build();

  core::Router& last = tb->router(tb->router_count() - 1);
  core::CallServer server(*last.kernel, last.kernel->ip_node().address(),
                          "svc", 6200, shards);
  server.start([](util::Result<void>) {});
  core::CallClient client(*tb->router(0).kernel,
                          tb->router(0).kernel->ip_node().address(), shards);
  tb->sim().run_for(sim::milliseconds(300));

  const std::string dst = last.kernel->atm_address().name;

  fault::FaultPlan plan(*tb, c.seed);
  out.schedule.apply(*tb, plan, tb->sim().now());
  plan.arm();

  auto tally = std::make_shared<Tally>();
  tally->fired.assign(static_cast<std::size_t>(std::max(0, c.calls)), 0);
  static const std::vector<std::uint8_t> payload(256, 0xab);

  for (int i = 0; i < c.calls; ++i) {
    const sim::SimDuration when = sim::milliseconds(200) + c.call_stagger * i;
    // xunet-lint: allow(LIFE-REF-CAPTURE) -- &client and &c outlive every
    // scheduled event: the run_for() to quiescence below is in this frame.
    tb->sim().schedule(when, [&client, &c, dst, i, when, tally] {
      app::OpenOptions opts;
      // Budget every call to resolve shortly after the last fault heals.
      opts.deadline = c.profile.heal_by + sim::seconds(4) - when;
      if (opts.deadline.ns() < sim::seconds(1).ns()) {
        opts.deadline = sim::seconds(1);
      }
      client.open(dst, "svc", "", opts,
                  [&client, &c, i, tally](util::Result<core::CallClient::Call> r) {
                    auto& fired = tally->fired[static_cast<std::size_t>(i)];
                    if (++fired > 1) {
                      ++tally->multi;
                      return;
                    }
                    if (!r) {
                      ++tally->failed;
                      return;
                    }
                    ++tally->delivered;
                    for (int f = 0; f < c.frames_per_call; ++f) {
                      (void)client.send(*r, util::BytesView(payload));
                    }
                    if (c.close_every > 0 && i % c.close_every == 0) {
                      client.close_call(*r);
                    }
                  });
    });
  }

  // Run to quiescence: workload issued, faults healed, every retry budget
  // and sighost timeout (request, wait_for_bind, resync grace) expired.
  tb->sim().run_for(sim::milliseconds(200) + c.call_stagger * c.calls +
                    c.profile.heal_by + sim::seconds(12));

  out.workload.opened = static_cast<std::uint64_t>(std::max(0, c.calls));
  out.workload.delivered = tally->delivered;
  out.workload.failed = tally->failed;
  out.workload.multi_fired = tally->multi;
  for (int f : tally->fired) {
    if (f == 0) ++out.workload.unresolved;
  }

  out.violations = core::check(core::capture(*tb), out.workload);
  if (!out.violations.empty()) {
    obs::Observability& o = tb->sim().obs();
    for (const core::Violation& v : out.violations) {
      o.flight_note("chaos", "violation", v.rule, v.detail);
    }
    o.flight().trigger("chaos:" + out.violations.front().rule);
    out.post_mortem = o.flight().last_dump();
  }
  return out;
}

RunOutcome run_case(const ChaosCase& c) {
  return run_events(
      c, ChaosSchedule::generate(c.routers, c.hosts, c.profile, c.seed).events);
}

// ------------------------------------------------------------------ shrink

ShrinkResult shrink(const ChaosCase& c, const RunOutcome& failing,
                    int max_runs) {
  ShrinkResult res;
  res.minimal = failing.schedule.events;
  if (failing.violations.empty()) return res;
  res.rule = failing.violations.front().rule;

  auto still_fails = [&c, &res](const std::vector<ChaosEvent>& ev) {
    ++res.iterations;
    const RunOutcome o = run_events(c, ev);
    return std::any_of(
        o.violations.begin(), o.violations.end(),
        [&res](const core::Violation& v) { return v.rule == res.rule; });
  };

  // The empty schedule failing means the violation is fault-independent —
  // the strongest possible shrink.
  if (still_fails({})) {
    res.minimal.clear();
    return res;
  }

  // Classic ddmin over the event list.
  std::vector<ChaosEvent>& cur = res.minimal;
  std::size_t n = 2;
  while (cur.size() >= 2 && res.iterations < max_runs) {
    const std::size_t chunk = std::max<std::size_t>(1, cur.size() / n);
    bool reduced = false;
    for (std::size_t start = 0;
         start < cur.size() && res.iterations < max_runs; start += chunk) {
      std::vector<ChaosEvent> cand;
      cand.reserve(cur.size());
      for (std::size_t j = 0; j < cur.size(); ++j) {
        if (j < start || j >= start + chunk) cand.push_back(cur[j]);
      }
      if (cand.size() == cur.size() || cand.empty()) continue;
      if (still_fails(cand)) {
        cur = std::move(cand);
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk == 1) break;  // single-event granularity exhausted
      n = std::min(cur.size(), n * 2);
    }
  }
  return res;
}

// ---------------------------------------------------------------- artifact

std::string to_artifact(const ChaosCase& c,
                        const std::vector<ChaosEvent>& events,
                        const RunOutcome& outcome) {
  std::string out;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"schema\":\"%.*s\",\"seed\":%" PRIu64
      ",\"routers\":%d,\"hosts\":%d,\"shards\":%d,\"calls\":%d"
      ",\"call_stagger_ns\":%" PRId64
      ",\"close_every\":%d,\"frames_per_call\":%d,\"sabotage\":%d"
      ",\"horizon_ns\":%" PRId64 ",\"heal_by_ns\":%" PRId64
      ",\"events\":%zu,\"violations\":%zu}",
      static_cast<int>(kChaosSchema.size()), kChaosSchema.data(), c.seed,
      c.routers, c.hosts, std::max(1, c.shards), c.calls, c.call_stagger.ns(),
      c.close_every, c.frames_per_call, c.sabotage_skip_audit ? 1 : 0,
      c.profile.horizon.ns(), c.profile.heal_by.ns(), events.size(),
      outcome.violations.size());
  out += buf;
  out += '\n';
  for (const ChaosEvent& e : events) {
    out += event_json(e);
    out += '\n';
  }
  for (const core::Violation& v : outcome.violations) {
    out += "{\"rec\":\"violation\",\"rule\":\"" + util::json_escape(v.rule) +
           "\",\"detail\":\"" + util::json_escape(v.detail) + "\"}\n";
  }
  std::snprintf(buf, sizeof buf,
                "{\"rec\":\"result\",\"opened\":%" PRIu64
                ",\"delivered\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"unresolved\":%" PRIu64 ",\"multi_fired\":%" PRIu64 "}",
                outcome.workload.opened, outcome.workload.delivered,
                outcome.workload.failed, outcome.workload.unresolved,
                outcome.workload.multi_fired);
  out += buf;
  out += '\n';
  if (!outcome.post_mortem.empty()) {
    out += "{\"rec\":\"post_mortem\",\"trace\":\"" +
           util::json_escape(outcome.post_mortem) + "\"}\n";
  }
  return out;
}

ReplayResult replay_artifact(const std::string& jsonl) {
  ReplayResult res;
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    if (end > start) lines.push_back(jsonl.substr(start, end - start));
    start = end + 1;
  }
  if (lines.empty()) return res;
  const std::string& header = lines.front();
  auto field = [&header](const char* key) {
    return util::json_field(header, key).value_or("");
  };
  if (field("schema") != kChaosSchema) return res;

  ChaosCase c;
  c.seed = static_cast<std::uint64_t>(
      std::strtoull(field("seed").c_str(), nullptr, 10));
  c.routers = std::atoi(field("routers").c_str());
  c.hosts = std::atoi(field("hosts").c_str());
  // Absent in pre-sharding artifacts (atoi("") == 0): clamp to 1.
  c.shards = std::max(1, std::atoi(field("shards").c_str()));
  c.calls = std::atoi(field("calls").c_str());
  c.call_stagger =
      sim::nanoseconds(std::atoll(field("call_stagger_ns").c_str()));
  c.close_every = std::atoi(field("close_every").c_str());
  c.frames_per_call = std::atoi(field("frames_per_call").c_str());
  c.sabotage_skip_audit = field("sabotage") == "1";
  c.profile.horizon = sim::nanoseconds(std::atoll(field("horizon_ns").c_str()));
  c.profile.heal_by = sim::nanoseconds(std::atoll(field("heal_by_ns").c_str()));
  if (c.routers < 1 || c.calls < 0) return res;

  std::vector<ChaosEvent> events;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (util::json_field(lines[i], "rec") != "event") continue;
    ChaosEvent e;
    if (!event_from_json(lines[i], e)) return res;
    events.push_back(e);
  }

  res.parsed = true;
  res.outcome = run_events(c, events);
  res.artifact = to_artifact(c, events, res.outcome);
  return res;
}

}  // namespace xunet::chaos
