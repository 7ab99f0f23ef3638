#include "fault/fault.hpp"

#include <cstdio>
#include <cstdlib>

namespace xunet::fault {

namespace {
// Plan misuse is a programming error in the test/experiment, not a runtime
// condition: fail loudly at the call site rather than half-applying a
// schedule (the old behaviour silently never fired post-arm() events).
[[noreturn]] void plan_misuse(const char* what) {
  std::fprintf(stderr, "FaultPlan misuse: %s\n", what);
  std::abort();
}
}  // namespace

FaultPlan::FaultPlan(core::Testbed& tb, std::uint64_t seed)
    : tb_(tb), rng_(seed) {}

FaultPlan::~FaultPlan() {
  // The installed hook captures `this`; a plan that dies before its testbed
  // must take the hook with it.
  if (armed_) tb_.set_wire_fault(nullptr);
}

// ------------------------------------------------------------- wire rules

void FaultPlan::drop_signaling(double p) {
  WireRule r;
  r.fault = sig::WireFault::drop;
  r.probability = p;
  add_rule(std::move(r));
}

void FaultPlan::duplicate_signaling(double p) {
  WireRule r;
  r.fault = sig::WireFault::duplicate;
  r.probability = p;
  add_rule(std::move(r));
}

void FaultPlan::corrupt_signaling(double p) {
  WireRule r;
  r.fault = sig::WireFault::corrupt;
  r.probability = p;
  add_rule(std::move(r));
}

void FaultPlan::reorder_signaling(double p, sim::SimDuration delay,
                                  sim::SimDuration jitter) {
  WireRule r;
  r.fault = sig::WireFault::delay;
  r.probability = p;
  r.delay = delay;
  r.delay_jitter = jitter;
  add_rule(std::move(r));
}

sig::WireVerdict FaultPlan::on_wire(const std::string& self,
                                    const std::string& peer,
                                    const sig::Msg& m) {
  const sim::SimTime now = tb_.sim().now();
  for (const WireRule& r : rules_) {
    if (!r.node.empty() && r.node != self) continue;
    if (!r.peer.empty() && r.peer != peer) continue;
    if (r.type && *r.type != m.type) continue;
    if (now < r.from || now >= r.until) continue;
    if (!rng_.chance(r.probability)) continue;
    sig::WireVerdict v;
    v.fault = r.fault;
    switch (r.fault) {
      case sig::WireFault::drop:
        ++stats_.dropped;
        break;
      case sig::WireFault::duplicate:
        ++stats_.duplicated;
        break;
      case sig::WireFault::corrupt:
        ++stats_.corrupted;
        break;
      case sig::WireFault::delay:
        v.delay = r.delay;
        if (r.delay_jitter.ns() > 0) {
          v.delay += sim::nanoseconds(static_cast<std::int64_t>(
              rng_.below(static_cast<std::uint64_t>(r.delay_jitter.ns()))));
        }
        ++stats_.delayed;
        break;
      case sig::WireFault::deliver:
        break;
    }
    return v;  // first matching rule wins
  }
  return {};
}

// --------------------------------------------------------- scripted events

void FaultPlan::at(sim::SimDuration when, std::string label,
                   std::function<void()> fn, bool post_mortem) {
  if (armed_) {
    plan_misuse("scripted event added after arm() would never fire; "
                "register all events before arming (wire rules via "
                "add_rule() may still be added live)");
  }
  events_.push_back({when, std::move(label), std::move(fn), post_mortem});
}

void FaultPlan::crash_sighost_at(sim::SimDuration when, std::size_t router) {
  at(when, "crash sighost " + std::to_string(router),
     [this, router] { tb_.crash_sighost(router); },
     /*post_mortem=*/true);
}

void FaultPlan::restart_sighost_at(sim::SimDuration when, std::size_t router) {
  at(when, "restart sighost " + std::to_string(router),
     [this, router] { (void)tb_.restart_sighost(router); });
}

void FaultPlan::cut_trunk(sim::SimDuration when, sim::SimDuration duration,
                          const std::string& switch_a,
                          const std::string& switch_b) {
  auto set_trunk = [this, switch_a, switch_b](bool down) {
    atm::AtmSwitch* a = tb_.network().switch_by_name(switch_a);
    atm::AtmSwitch* b = tb_.network().switch_by_name(switch_b);
    if (a == nullptr || b == nullptr) return;
    for (atm::CellLink* l : tb_.network().trunk_links(*a, *b)) {
      l->set_down(down);
    }
  };
  at(when, "cut trunk " + switch_a + "--" + switch_b,
     [set_trunk] { set_trunk(true); },
     /*post_mortem=*/true);
  at(when + duration, "heal trunk " + switch_a + "--" + switch_b,
     [set_trunk] { set_trunk(false); });
}

void FaultPlan::flap_host_link(sim::SimDuration when, sim::SimDuration duration,
                               std::size_t host) {
  at(when, "host link " + std::to_string(host) + " down",
     [this, host] { tb_.host(host).link->set_down(true); });
  at(when + duration, "host link " + std::to_string(host) + " up",
     [this, host] { tb_.host(host).link->set_down(false); });
}

// ------------------------------------------------------- cell impairments

void FaultPlan::atm_cell_loss(std::size_t router, double p) {
  impairments_.push_back({router, p, 0.0});
}

void FaultPlan::atm_cell_corruption(std::size_t router, double p) {
  impairments_.push_back({router, 0.0, p});
}

void FaultPlan::impair_cells(sim::SimDuration when, sim::SimDuration duration,
                             std::size_t router, double loss, double corrupt) {
  auto set_impair = [this, router, loss, corrupt](bool on) {
    const atm::AtmAddress& addr = tb_.router(router).kernel->atm_address();
    for (atm::CellLink* l : tb_.network().endpoint_links(addr)) {
      l->set_loss(on ? loss : 0.0, &rng_);
      l->set_corrupt(on ? corrupt : 0.0, &rng_);
    }
  };
  at(when, "impair cells router " + std::to_string(router),
     [set_impair] { set_impair(true); });
  at(when + duration, "heal cells router " + std::to_string(router),
     [set_impair] { set_impair(false); });
}

// ------------------------------------------------------------------- arm

void FaultPlan::arm() {
  if (armed_) {
    plan_misuse("arm() called twice; every scripted event would be "
                "scheduled (and fire) twice");
  }
  armed_ = true;
  tb_.set_wire_fault([this](const std::string& self, const std::string& peer,
                            const sig::Msg& m) { return on_wire(self, peer, m); });
  for (const CellImpairment& imp : impairments_) {
    const atm::AtmAddress& addr =
        tb_.router(imp.router).kernel->atm_address();
    for (atm::CellLink* l : tb_.network().endpoint_links(addr)) {
      if (imp.loss > 0.0) l->set_loss(imp.loss, &rng_);
      if (imp.corrupt > 0.0) l->set_corrupt(imp.corrupt, &rng_);
    }
  }
  for (const Event& e : events_) {
    tb_.sim().schedule(e.when, [this, label = e.label, fn = e.fn,
                                pm = e.post_mortem] {
      ++stats_.events_fired;
      // The fault itself is the last record before the post-mortem cut.
      obs::Observability& o = tb_.sim().obs();
      o.flight_note("fault", "event", "plan", label);
      fn();
      // Destructive events snapshot the ring *after* running, so whatever
      // the crash/cut handling itself noted is part of the dump.
      if (pm) o.flight().trigger("fault:" + label);
    });
  }
}

}  // namespace xunet::fault
