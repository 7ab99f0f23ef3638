// rules.hpp — internal: per-family rule matchers over lexed units.  The
// driver (lint.cpp) composes them; tests drive them directly on fixtures.
// State-machine extraction and table parsing live in statemachine.hpp,
// shared with tools/xunet_model.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "xunet_lint/lint.hpp"
#include "xunet_lint/scan.hpp"
#include "xunet_lint/statemachine.hpp"

namespace xunet::lint {

/// DET-BANNED: wall clocks and libc/std randomness outside src/util/rng.
void rule_det_banned(const Unit& u, std::vector<Finding>& out);

/// DET-UNORD-ITER: range-for over a name in `unordered` whose body schedules
/// events or sends wire messages, or builds an ordered artifact in place —
/// JSON/JSONL emission, stream appends, or sequence push_back without a sort
/// of the result in sight.  `unordered` is the union of the unit's own
/// declarations and its sibling header's (foo.cpp pairs with foo.hpp).
void rule_det_unord_iter(const Unit& u, const std::set<std::string>& unordered,
                         std::vector<Finding>& out);

/// DET-PTR-KEY: std::map/std::set keyed by a pointer type.
void rule_det_ptr_key(const Unit& u, std::vector<Finding>& out);

/// LIFE-REF-CAPTURE: by-reference lambda capture in an argument to
/// schedule/schedule_at/arm.
void rule_life_ref_capture(const Unit& u, std::vector<Finding>& out);

/// LIFE-TIMER-REARM: a by-reference lambda that itself calls
/// schedule/schedule_at/arm — a re-arm chain whose every firing outlives the
/// frame the capture was taken in.  Lambdas lexically inside a sink's
/// argument list are LIFE-REF-CAPTURE's to report, not this rule's.
void rule_life_timer_rearm(const Unit& u, std::vector<Finding>& out);

/// HYG-PRAGMA-ONCE, HYG-BANNED-INCLUDE, HYG-REL-INCLUDE.
void rule_hyg(const Unit& u, std::vector<Finding>& out);

/// STATE-UNDECLARED / STATE-MISSING: extracted vs declared, both directions.
/// `machine` labels the messages ("sighost", "kern_socket"); `table` names
/// the file an undeclared transition should be added to.
void rule_state(const Unit& u, const std::vector<Transition>& extracted,
                const std::vector<Transition>& declared,
                const std::string& machine, const std::string& table,
                std::vector<Finding>& out);

}  // namespace xunet::lint
