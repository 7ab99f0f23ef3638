// audit.hpp — the cross-layer audit of a deployment.
//
// A call's state lives redundantly in four layers: the application's kernel
// sockets, the sighost five-list state machine, the network controller's
// active-VC table, and the per-switch routing tables.  Faults may delay
// convergence, but once the deployment is quiescent the layers must agree
// (§4: nothing outlives its call; §5: the kernel always knows).
// capture() flattens all four layers of a Testbed into one plain-data
// Snapshot; check() is a pure function from Snapshot (plus workload
// counters) to a deterministic violation list, so tests can also plant
// violations by editing a Snapshot directly.  check() looks every
// cross-reference up in sorted keys: O(n log n) in the live calls.
// Testbed::audit() only counts (LeakReport, in testbed.hpp): it copies
// nothing, so it is cheap at any call load, and its clean() is the
// quiescent zero-calls case of check().
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "atm/types.hpp"

namespace xunet::core {

class Testbed;

/// One bound/connected PF_XUNET data socket (switched VCIs only).
struct KernelVciView {
  std::string machine;  ///< kernel that owns the socket
  std::string sighost;  ///< signaling entity responsible for this machine
  atm::Vci vci = atm::kInvalidVci;
  bool bound = false;  ///< receiving side (else connected / sending side)
};

/// One sighost VCI_mapping entry, with its endpoint resolved to a machine.
struct CallRecordView {
  std::string sighost;
  atm::Vci vci = atm::kInvalidVci;
  std::string call_key;
  bool confirmed = false;
  bool recovered = false;
  std::string endpoint_machine;  ///< machine whose kernel holds the socket
};

/// One sighost's list state (VCI_mapping lives in `call_records`).
struct SighostView {
  std::string name;
  bool alive = false;  ///< false while crashed (lists are then unknowable)
  std::vector<std::string> outgoing_calls;
  std::vector<std::string> incoming_calls;
  std::vector<atm::Vci> wait_for_bind;
};

/// One established switched VC in the network controller.
struct VcView {
  std::uint64_t id = 0;
  std::string src, dst;  ///< endpoint ATM addresses (sighost names)
  atm::Vci src_vci = atm::kInvalidVci;
  atm::Vci dst_vci = atm::kInvalidVci;
};

/// One switch routing-table entry, from either side of the audit.
struct RouteView {
  std::string sw;
  int in_port = -1;
  atm::Vci in_vci = atm::kInvalidVci;
  [[nodiscard]] auto operator<=>(const RouteView&) const = default;
};

/// One switch output port's bandwidth ledger (QoS conservation).
struct ReservationView {
  std::string sw;
  int port = -1;
  std::uint64_t reserved_bps = 0;
  std::uint64_t capacity_bps = 0;  ///< 0 = no output link attached
  [[nodiscard]] auto operator<=>(const ReservationView&) const = default;
};

/// All four layers, flattened and sorted (deterministic for a given run).
struct Snapshot {
  std::vector<KernelVciView> kernel_vcis;
  std::vector<SighostView> sighosts;
  std::vector<CallRecordView> call_records;
  std::vector<VcView> vcs;
  std::vector<RouteView> routes_installed;  ///< what the switches hold
  std::vector<RouteView> routes_expected;   ///< what active VCs own
  std::vector<ReservationView> reservations;  ///< per-port bandwidth ledgers
};

/// What the workload observed, for conservation and liveness.
struct WorkloadCounts {
  std::uint64_t opened = 0;
  std::uint64_t delivered = 0;  ///< opens that completed successfully
  std::uint64_t failed = 0;     ///< opens that failed with a definite cause
  std::uint64_t unresolved = 0; ///< opens with no outcome at quiescence
  std::uint64_t multi_fired = 0;  ///< open callbacks invoked more than once
};

/// One invariant breach.  `rule` is the stable machine-readable name;
/// `detail` pinpoints the offending object.  Both are byte-stable across
/// same-seed runs.
struct Violation {
  std::string rule;
  std::string detail;
  [[nodiscard]] auto operator<=>(const Violation&) const = default;
};

/// Rule names emitted by check().
inline constexpr const char* kOrphanKernelVci = "orphan-kernel-vci";
inline constexpr const char* kMissingKernelSocket = "missing-kernel-socket";
inline constexpr const char* kOrphanCallRecord = "orphan-call-record";
inline constexpr const char* kOrphanNetworkVc = "orphan-network-vc";
inline constexpr const char* kDanglingSwitchRoute = "dangling-switch-route";
inline constexpr const char* kMissingSwitchRoute = "missing-switch-route";
inline constexpr const char* kDoubleListedCall = "double-listed-call";
inline constexpr const char* kCallConservation = "call-conservation";
inline constexpr const char* kLiveness = "liveness";
inline constexpr const char* kQosOvercommit = "qos-overcommit";

/// Flatten every layer of `tb` at the current instant.  Null-safe against
/// crashed sighosts (their SighostView reports alive=false).
[[nodiscard]] Snapshot capture(Testbed& tb);

/// Cross-audit the layers.  Returns violations sorted by (rule, detail);
/// empty means every invariant holds.
[[nodiscard]] std::vector<Violation> check(const Snapshot& snap,
                                           const WorkloadCounts& workload);

}  // namespace xunet::core
