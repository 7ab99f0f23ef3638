// network.hpp — the ATM network controller (the "network side" of Xunet
// signaling).
//
// The paper's host-side signaling (sighost) hands VC setup requests to the
// proprietary Xunet network signaling, which computes a route, installs VC
// table entries hop-by-hop with admission control, and returns the VCIs the
// endpoints should use.  AtmNetwork is that substrate: it owns the switches
// and links of a topology, allocates per-link VCIs, and models per-switch
// call-processing latency.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "atm/switch.hpp"
#include "atm/types.hpp"

namespace xunet::atm {

/// Residue-class constraint on endpoint VCI allocation: the VCI handed out
/// satisfies `vci % mod == rem`.  Sighost shards partition the VCI space
/// this way (shard s owns the class vci ≡ s (mod shard_count)) so the
/// kernel can demux indications to the owning shard by arithmetic alone.
/// The default {1, 0} places no constraint.
struct VciPartition {
  std::uint16_t mod = 1;
  std::uint16_t rem = 0;
};

/// Per-directed-link VCI allocator.  Switched VCIs start at
/// kFirstSwitchedVci; lower values are reservable for PVCs.
class VciAllocator {
 public:
  /// Lowest free switched VCI in the residue class `vci % mod == rem`, or
  /// no_resources when that class is exhausted.  The default arguments scan
  /// the whole switched range.
  [[nodiscard]] util::Result<Vci> allocate(std::uint16_t mod = 1,
                                           std::uint16_t rem = 0);
  /// Reserve a specific VCI (PVC setup).  Fails with duplicate when taken.
  [[nodiscard]] util::Result<void> reserve(Vci vci);
  void release(Vci vci) noexcept;
  [[nodiscard]] std::size_t in_use() const noexcept { return std::ranges::count(used_, true); }

 private:
  /// Free-VCI bookkeeping for one residue class.  Every class member in
  /// [first, frontier) that is free sits in `holes`, a vector min-heap;
  /// holes may also hold members taken since by another class or by
  /// reserve(), or repeated, which allocate() discards when it meets them.
  /// So the lowest valid hole, or failing that the first free member at or
  /// past the frontier, is the lowest free VCI of the class.
  struct ClassState {
    std::uint32_t frontier;
    std::vector<Vci> holes;
  };

  [[nodiscard]] bool taken(std::uint32_t v) const noexcept { return v < used_.size() && used_[v]; }
  void take(std::uint32_t v) {
    if (v >= used_.size()) used_.resize(v + 1);
    used_[v] = true;
  }

  /// One bit per VCI up to the highest ever taken (at most 8 KiB).
  std::vector<bool> used_;
  /// Keyed (mod << 16) | rem.
  std::map<std::uint32_t, ClassState> classes_;
};

/// Identifies an established VC within the network controller.
using VcId = std::uint64_t;

/// What the endpoints learn from a successful setup: the VCI the source
/// transmits on (its uplink) and the VCI the destination receives on (its
/// downlink).
struct VcHandle {
  VcId id = 0;
  Vci src_vci = kInvalidVci;
  Vci dst_vci = kInvalidVci;
  int hop_count = 0;  ///< number of links traversed
};

/// Call-processing time each switch on a path spends on a VC setup.
inline constexpr sim::SimDuration kPerSwitchSetup = sim::milliseconds(2);

/// The ATM network: topology owner + VC signaling controller.
class AtmNetwork {
 public:
  explicit AtmNetwork(sim::Simulator& sim);

  // -- Topology construction (done once, before traffic) ------------------

  /// Create a switch owned by the network.
  AtmSwitch& make_switch(const std::string& name);

  /// Attach an endpoint (a Hobbit interface model) to `sw`.  Creates the
  /// uplink (endpoint→switch) and downlink (switch→endpoint) at `rate_bps` /
  /// `propagation`.  Returns the uplink the endpoint must transmit into.
  /// `sink` receives the endpoint's incoming cells and must outlive the
  /// network.  Fails with `duplicate` if the address is already attached.
  [[nodiscard]] util::Result<CellLink*> attach_endpoint(
      const AtmAddress& addr, CellSink& sink, AtmSwitch& sw,
      std::uint64_t rate_bps, sim::SimDuration propagation);

  /// Connect two switches with a link pair.
  void connect_switches(AtmSwitch& a, AtmSwitch& b, std::uint64_t rate_bps,
                        sim::SimDuration propagation);

  // -- VC signaling --------------------------------------------------------

  using SetupHandler = std::function<void(util::Result<VcHandle>)>;

  /// Establish a simplex VC from `src` to `dst` with admission control for
  /// `qos` at every hop.  Admission and routing are evaluated immediately
  /// (so state is consistent), but the completion callback fires after the
  /// modeled signaling latency: per-switch processing plus two propagation
  /// passes (request out, confirm back).  `call` optionally tags the trace
  /// span with the end-to-end call key ("origin#req_id");
  /// `trace_id`/`parent_span` link the vc.setup span into the call's causal
  /// cross-host trace tree (0/0 = untraced).  `part` constrains the VCIs on
  /// the two endpoint-facing links (not interior trunks) to a residue class
  /// so a sharded sighost's calls land on the owning shard at both ends.
  void setup_vc(const AtmAddress& src, const AtmAddress& dst, const Qos& qos,
                SetupHandler done, const std::string& call = {},
                std::uint64_t trace_id = 0, std::uint64_t parent_span = 0,
                VciPartition part = {});

  /// Synchronous variant used for PVC provisioning at simulation start; the
  /// requested VCI is used verbatim on every hop (PVCs use well-known
  /// low VCIs on Xunet).
  [[nodiscard]] util::Result<VcHandle> setup_pvc(const AtmAddress& src,
                                                 const AtmAddress& dst,
                                                 Vci vci, const Qos& qos);

  /// Tear down an established VC, releasing switch routes, reservations and
  /// VCIs at every hop.  not_found when the id is unknown (e.g. torn down
  /// twice — callers treat that as already-gone).
  util::Result<void> teardown(VcId id);

  /// Number of VCs currently established (leak audits).
  [[nodiscard]] std::size_t active_vc_count() const noexcept { return active_.size(); }

  /// Fault injection: set every link between two switches up or down
  /// (both directions).  Returns the number of directed links touched.
  std::size_t set_trunk_down(const AtmSwitch& a, const AtmSwitch& b, bool down);

  /// Fault injection: the directed links between two switches (both
  /// directions), for loss/corruption hooks.  Empty when not adjacent.
  [[nodiscard]] std::vector<CellLink*> trunk_links(const AtmSwitch& a,
                                                   const AtmSwitch& b);
  /// Fault injection: an endpoint's uplink and downlink.  Empty when the
  /// address is not attached.
  [[nodiscard]] std::vector<CellLink*> endpoint_links(const AtmAddress& addr);

  /// One VC as seen from one endpoint — what a restarted signaling entity
  /// can learn from the network controller when rebuilding VCI_mapping.
  struct VcAudit {
    VcId id = 0;
    Vci local_vci = kInvalidVci;   ///< VCI on this endpoint's own link
    Vci remote_vci = kInvalidVci;  ///< VCI at the far endpoint
    AtmAddress remote;             ///< the far endpoint
    bool originator = false;       ///< this endpoint is the VC's source
  };
  /// Every active VC touching `endpoint`, sorted by local VCI (PVCs
  /// included — callers filter their own signaling VCIs).
  [[nodiscard]] std::vector<VcAudit> audit_vcs(const AtmAddress& endpoint) const;

  /// One active VC with its endpoint-facing VCIs — the full controller view
  /// for cross-layer audits (PVCs included; callers filter by VCI floor).
  struct VcSummary {
    VcId id = 0;
    AtmAddress src;
    AtmAddress dst;
    Vci src_vci = kInvalidVci;
    Vci dst_vci = kInvalidVci;
  };
  /// Every active VC, sorted by id.
  [[nodiscard]] std::vector<VcSummary> audit_all_vcs() const;

  /// One switch route owned by an active VC: what the controller believes
  /// is installed at `sw`.
  struct RouteAudit {
    std::string sw;
    int in_port = -1;
    Vci in_vci = kInvalidVci;
    VcId vc = 0;
    [[nodiscard]] auto operator<=>(const RouteAudit&) const = default;
  };
  /// Every switch route owned by any active VC, sorted by
  /// (switch, in_port, in_vci).  core::check() diffs this
  /// against each AtmSwitch::route_table() in both directions.
  [[nodiscard]] std::vector<RouteAudit> audit_routes() const;

  /// One output port's bandwidth ledger: how much admission control has
  /// granted against what the link can carry.
  struct ReservationAudit {
    std::string sw;
    int port = -1;
    std::uint64_t reserved_bps = 0;
    std::uint64_t capacity_bps = 0;  ///< 0 when no output link is attached
    [[nodiscard]] auto operator<=>(const ReservationAudit&) const = default;
  };
  /// Every (switch, output port) reservation ledger, sorted by (sw, port).
  /// The cross-layer audit's QoS-conservation rule asserts
  /// reserved <= capacity on each — admission control must never
  /// overcommit a trunk, whatever faults the run injected.
  [[nodiscard]] std::vector<ReservationAudit> audit_reservations() const;

  /// Lookup a switch created by make_switch; nullptr when unknown.
  [[nodiscard]] AtmSwitch* switch_by_name(const std::string& name) noexcept;

  /// Lookup: does this address exist?
  [[nodiscard]] std::uint64_t setups_attempted() const noexcept { return setups_attempted_; }
  [[nodiscard]] std::uint64_t setups_denied() const noexcept { return setups_denied_; }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

 private:
  struct Node {
    enum class Kind { endpoint, sw } kind;
    std::string name;
    AtmSwitch* sw = nullptr;     // for Kind::sw
    CellSink* ep_sink = nullptr; // for Kind::endpoint
  };
  struct Edge {
    int from = -1;
    int to = -1;
    std::unique_ptr<CellLink> link;
    int from_port = -1;  ///< output port on `from` when it is a switch
    int to_port = -1;    ///< input port on `to` when it is a switch
    /// VCI space of this link.  An endpoint's uplink and downlink SHARE one
    /// allocator: the paper's kernels use the VCI as "a single index into a
    /// table of protocol control blocks", so the two directions of one
    /// host interface must never hand out the same number twice.
    std::shared_ptr<VciAllocator> vcis = std::make_shared<VciAllocator>();
  };
  struct HopState {
    int edge = -1;
    Vci vci = kInvalidVci;
  };
  /// Hops a VC keeps in its own record: a call between two routers on
  /// adjacent switches crosses three links.
  static constexpr std::size_t kInlineHops = 3;
  /// Every hop but the last enters a switch, where the VC owns the route
  /// (edge.to_port, hop.vci) of `nodes_[edge.to]`.
  struct ActiveVc {
    int src = -1;  ///< source endpoint node (for post-crash audits)
    int dst = -1;  ///< destination endpoint node
    std::uint32_t hop_count = 0;
    std::array<HopState, kInlineHops> near{};
    std::unique_ptr<HopState[]> far{};  ///< every hop of a longer path
    /// One hop per traversed edge.
    [[nodiscard]] std::span<const HopState> hops() const noexcept {
      return {far ? far.get() : near.data(), hop_count};
    }
    void push(HopState h) noexcept { (far ? far.get() : near.data())[hop_count++] = h; }
  };

  int add_node(Node n);
  [[nodiscard]] const std::string& node_name(int n) const noexcept {
    return nodes_[static_cast<std::size_t>(n)].name;
  }
  int node_of_switch(const AtmSwitch& sw) const;
  /// BFS route; empty when unreachable.
  [[nodiscard]] std::vector<int> find_path(int src, int dst) const;
  /// Directed edge index from `a` to `b`; -1 when absent.
  [[nodiscard]] int edge_between(int a, int b) const;
  [[nodiscard]] util::Result<ActiveVc> install_path(
      const std::vector<int>& path, const Qos& qos,
      std::optional<Vci> fixed_vci, VciPartition part = {});
  /// Remove the switch routes of the first `routes` hops, then release
  /// every hop's VCI.
  void uninstall(ActiveVc& vc, std::size_t routes);
  /// Record an installed VC as active and build its handle.
  VcHandle activate(ActiveVc vc);

  sim::Simulator& sim_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> out_edges_;  ///< per node, indices into edges_
  std::vector<std::unique_ptr<AtmSwitch>> switches_;
  std::unordered_map<AtmAddress, int> endpoint_nodes_;
  /// Active VCs by id; audits iterate them in ascending id order.
  std::map<VcId, ActiveVc> active_;
  VcId next_vc_id_ = 1;
  /// find_path's BFS predecessor table and queue, reused across lookups.
  mutable std::vector<int> bfs_prev_;
  mutable std::vector<int> bfs_queue_;
  std::uint64_t setups_attempted_ = 0;
  std::uint64_t setups_denied_ = 0;
};

}  // namespace xunet::atm
