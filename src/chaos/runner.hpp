// runner.hpp — chaos case execution, delta-debugging shrinker, and the
// xunet.chaos.v1 repro artifact.
//
// One ChaosCase fully determines a run: topology + workload + profile +
// seed.  run_case() generates the schedule from the seed and drives it to
// quiescence; run_events() replays an explicit event list (the shrinker's
// and replayer's entry point).  When core::check() reports
// violations, shrink() bisects the schedule down to a minimal repro
// (ddmin) and to_artifact() emits the whole story — case, events,
// violations, workload, flight-recorder post-mortem — as JSONL that
// replay_artifact() re-executes byte-identically.
#pragma once

#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "core/audit.hpp"

namespace xunet::chaos {

/// Schema marker of the repro artifact (first line, "schema" key).
inline constexpr std::string_view kChaosSchema = "xunet.chaos.v1";

/// Everything that determines a chaos run.
struct ChaosCase {
  int routers = 3;
  int hosts = 0;
  /// Sighost shards per router (TestbedConfig::sighost_shards); the
  /// workload apps register with / round-robin over every shard.
  int shards = 1;
  int calls = 8;
  sim::SimDuration call_stagger = sim::milliseconds(150);
  int close_every = 2;      ///< every k-th delivered call is closed (0 = none)
  int frames_per_call = 2;  ///< data frames sent on each delivered call
  std::uint64_t seed = 1;
  ChaosProfile profile;
  /// Sabotage seam: make every restarted sighost skip its kernel/network
  /// recovery audit (SighostConfig::recovery_skip_audit), planting the
  /// orphaned-state divergence the checker must find.
  bool sabotage_skip_audit = false;
};

/// Result of one run to quiescence.
struct RunOutcome {
  ChaosSchedule schedule;  ///< what was injected
  std::vector<core::Violation> violations;  ///< empty = all invariants held
  core::WorkloadCounts workload;
  std::string post_mortem;  ///< flight-recorder dump when violations found
};

/// Generate the schedule from (topology, profile, seed) and run it.
[[nodiscard]] RunOutcome run_case(const ChaosCase& c);

/// Run an explicit event list on the case's topology/workload/seed.
[[nodiscard]] RunOutcome run_events(const ChaosCase& c,
                                    const std::vector<ChaosEvent>& events);

/// A shrunk failing schedule.
struct ShrinkResult {
  std::vector<ChaosEvent> minimal;  ///< smallest event list still failing
  std::string rule;                 ///< the invariant preserved while shrinking
  int iterations = 0;               ///< oracle runs spent
};

/// ddmin: bisect `failing`'s schedule to a locally minimal event list that
/// still violates the same (first) rule.  `max_runs` caps oracle re-runs.
[[nodiscard]] ShrinkResult shrink(const ChaosCase& c, const RunOutcome& failing,
                                  int max_runs = 48);

/// Serialize a run as a xunet.chaos.v1 JSONL artifact.  The header plus
/// `{"rec":"event"}` lines are sufficient to replay; violation, result and
/// post_mortem records document what the run produced.  Deterministic:
/// re-running the same case + events yields the identical byte string.
[[nodiscard]] std::string to_artifact(const ChaosCase& c,
                                      const std::vector<ChaosEvent>& events,
                                      const RunOutcome& outcome);

/// Parse a xunet.chaos.v1 artifact, re-run it, and re-serialize.
struct ReplayResult {
  bool parsed = false;     ///< false: not a valid xunet.chaos.v1 artifact
  RunOutcome outcome;      ///< the re-run
  std::string artifact;    ///< to_artifact() of the re-run (byte-comparable)
};
[[nodiscard]] ReplayResult replay_artifact(const std::string& jsonl);

}  // namespace xunet::chaos
