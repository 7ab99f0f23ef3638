// chaos.hpp — deterministic randomized fault schedules.
//
// A ChaosSchedule is the randomized half of the chaos harness: from one
// util::Rng seed and an intensity profile it emits a FaultPlan-shaped list
// of fault events — wire drop/dup/corrupt/reorder rules, timed sighost
// crash/restart pairs, trunk cuts, host-link flaps, cell impairments —
// over any chain topology.  The schedule is pure data: generating it twice
// from the same (topology, profile, seed) yields identical events, and
// apply()ing it to a FaultPlan injects exactly those faults, so a chaos
// run reproduces byte-for-byte from its seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace xunet::chaos {

enum class ChaosEventKind : std::uint8_t {
  wire_rule,      ///< windowed signaling-message fault (drop/dup/corrupt/delay)
  crash_restart,  ///< sighost killed at `at`, replacement at `at + duration`
  trunk_cut,      ///< trunk between switches s<node+1> and s<node+2> down
  link_flap,      ///< host `node`'s FDDI link down for `duration`
  cell_impair,    ///< cell loss/corruption on router `node`'s endpoint links
};

/// One scheduled fault.  `at` and `duration` are offsets from FaultPlan
/// arm() time; every fault heals (window closes, sighost restarts, link
/// back up) at `at + duration`.  `node` is the target index — the sender
/// router of a wire rule (-1 = any sender), the crashed router, the trunk's
/// chain position, the flapped host, or the impaired router.
struct ChaosEvent {
  ChaosEventKind kind = ChaosEventKind::wire_rule;
  sim::SimDuration at{};
  sim::SimDuration duration{};
  int node = -1;
  // wire_rule only:
  sig::WireFault fault = sig::WireFault::drop;
  double probability = 0.0;
  sim::SimDuration delay{};   ///< hold-back when fault == delay
  sim::SimDuration jitter{};  ///< + uniform[0, jitter) on top
  // cell_impair only:
  double loss = 0.0;
  double corrupt = 0.0;

  [[nodiscard]] bool operator==(const ChaosEvent&) const = default;
};

/// Intensity knobs.  Counts are upper bounds — the generator draws the
/// actual count per category — and every fault is scheduled to start within
/// `horizon` and heal by `heal_by`, which is what makes liveness checkable:
/// after heal_by the deployment is fault-free and every call must resolve.
struct ChaosProfile {
  sim::SimDuration horizon = sim::seconds(4);  ///< fault starts in [0, horizon)
  sim::SimDuration heal_by = sim::seconds(6);  ///< all faults healed by here
  double wire_fault_intensity = 0.5;  ///< scales wire-rule probabilities [0,1]
  int max_wire_rules = 3;
  int max_crash_restarts = 1;
  int max_trunk_cuts = 1;
  int max_link_flaps = 1;
  int max_cell_impairments = 1;
};

/// A generated (or shrunk/replayed) schedule over one topology.
struct ChaosSchedule {
  std::uint64_t seed = 0;
  ChaosProfile profile;
  std::vector<ChaosEvent> events;

  /// Draw a schedule for an `n_routers`-chain with `n_hosts` hosts.  Pure:
  /// same arguments, same events, on every platform.
  [[nodiscard]] static ChaosSchedule generate(int n_routers, int n_hosts,
                                              const ChaosProfile& profile,
                                              std::uint64_t seed);

  /// Inject every event into `plan` (call before plan.arm(); wire-rule
  /// windows are anchored at `arm_time`, which must be the sim time arm()
  /// will run at).  Events whose target does not exist in `tb` — a shrunk
  /// schedule replayed on a smaller topology — are skipped.
  void apply(core::Testbed& tb, fault::FaultPlan& plan,
             sim::SimTime arm_time) const;
};

/// One `{"rec":"event",...}` JSONL record (no trailing newline).  Durations
/// are nanosecond integers and probabilities round-trip exactly, so a
/// serialized schedule replays byte-identically.
[[nodiscard]] std::string event_json(const ChaosEvent& e);
/// Parse event_json output.  False when `line` is not an event record.
[[nodiscard]] bool event_from_json(const std::string& line, ChaosEvent& out);

[[nodiscard]] const char* kind_name(ChaosEventKind k) noexcept;
[[nodiscard]] const char* fault_name(sig::WireFault f) noexcept;

}  // namespace xunet::chaos
