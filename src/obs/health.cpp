#include "obs/health.hpp"

#include "obs/export.hpp"
#include "util/json.hpp"

namespace xunet::obs {

void HealthMonitor::add_rule(HealthRule rule) {
  State s;
  s.rule = std::move(rule);
  if (s.rule.kind == RuleKind::counter_rate) {
    s.prev = static_cast<double>(obs_.metrics().counter_value(s.rule.metric));
  }
  rules_.push_back(std::move(s));
}

void HealthMonitor::watch_sighost(const std::string& track) {
  const std::string p = "sighost." + track + ".";
  // Setup backlog: requests this host originated and is still waiting on.
  add_rule({track + ".setup_backlog", p + "list.outgoing_requests",
            RuleKind::gauge_level, 16.0, 4.0});
  // Retransmit storm: peer-channel retransmits per tick.
  add_rule({track + ".retx_storm", p + "peer.retransmits",
            RuleKind::counter_rate, 8.0, 2.0});
  // Shed spike: overload rejections per tick.
  add_rule({track + ".shed_spike", p + "overload.sheds",
            RuleKind::counter_rate, 4.0, 1.0});
  // Queue saturation: half-open incoming requests parked at this host.
  add_rule({track + ".queue_saturation", p + "list.incoming_requests",
            RuleKind::gauge_level, 32.0, 8.0});
}

void HealthMonitor::start(sim::SimDuration period) {
  period_ = period;
  running_ = true;
  // Re-baseline counter rates so the first tick measures from now.
  for (State& s : rules_) {
    if (s.rule.kind == RuleKind::counter_rate) {
      s.prev = static_cast<double>(obs_.metrics().counter_value(s.rule.metric));
    }
  }
  arm(period_);
}

void HealthMonitor::arm(sim::SimDuration period) {
  if (!schedule_) return;
  schedule_(period, [this, alive = alive_] {
    if (*alive) tick();
  });
}

void HealthMonitor::tick() {
  if (!running_) return;
  ++ticks_;
  evaluate();
  arm(period_);
}

double HealthMonitor::read(State& s) {
  switch (s.rule.kind) {
    case RuleKind::gauge_level:
      return static_cast<double>(obs_.metrics().gauge_value(s.rule.metric));
    case RuleKind::counter_rate: {
      auto now = static_cast<double>(obs_.metrics().counter_value(s.rule.metric));
      double delta = now - s.prev;
      s.prev = now;
      return delta;
    }
  }
  return 0.0;
}

void HealthMonitor::evaluate() {
  for (State& s : rules_) {
    double v = read(s);
    if (!s.raised && v >= s.rule.raise_at) {
      s.raised = true;
      alerts_.push_back({obs_.now(), s.rule.name, s.rule.metric, v, true});
      // A raised rule is post-mortem-worthy: snapshot the flight recorder.
      obs_.flight_note("health", "alert.raise", s.rule.name,
                       s.rule.metric);
      obs_.flight().trigger("health:" + s.rule.name);
    } else if (s.raised && v < s.rule.clear_below) {
      s.raised = false;
      alerts_.push_back({obs_.now(), s.rule.name, s.rule.metric, v, false});
      obs_.flight_note("health", "alert.clear", s.rule.name, s.rule.metric);
    }
  }
}

bool HealthMonitor::active(const std::string& rule) const {
  for (const State& s : rules_) {
    if (s.rule.name == rule) return s.raised;
  }
  return false;
}

std::size_t HealthMonitor::active_count() const {
  std::size_t n = 0;
  for (const State& s : rules_) n += s.raised ? 1 : 0;
  return n;
}

std::string HealthMonitor::to_health_jsonl() const {
  std::string out;
  out.reserve(64 + alerts_.size() * 96);
  out += "{\"schema\":\"";
  out += kHealthSchema;
  out += "\",\"rules\":";
  out += std::to_string(rules_.size());
  out += ",\"alerts\":";
  out += std::to_string(alerts_.size());
  out += ",\"ticks\":";
  out += std::to_string(ticks_);
  out += "}\n";
  for (const HealthAlert& a : alerts_) {
    out += "{\"ts_ns\":";
    out += std::to_string(a.ts.ns());
    out += ",\"rule\":\"";
    out += util::json_escape(a.rule);
    out += "\",\"metric\":\"";
    out += util::json_escape(a.metric);
    out += "\",\"value\":";
    out += json_number(a.value);
    out += ",\"state\":\"";
    out += a.raised ? "raised" : "cleared";
    out += "\"}\n";
  }
  return out;
}

}  // namespace xunet::obs
