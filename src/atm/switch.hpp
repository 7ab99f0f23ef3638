// switch.hpp — output-buffered ATM switch with per-port VC tables, call
// admission control, GCRA usage-parameter control at ingress, and per-VC
// weighted-fair class-band scheduling at egress.
//
// The measurement testbed in §9 is "a three hop (two switch) ATM path"
// between two routers; core::Testbed builds exactly that out of these
// switches.  The paper negotiates a <service class, bandwidth> QoS at call
// setup but leaves enforcement as future work (refs [17], [18]); this
// switch enforces it, after the Goyal/Jain traffic-management model:
//
//  * ingress policing — VCs whose contract carries PCR/SCR/MBS descriptors
//    run the dual GCRA; non-conforming cells are dropped and counted;
//  * egress scheduling — each output port keeps one bounded queue per VC,
//    grouped into four class bands (CBR/guaranteed > VBR/predicted > ABR >
//    UBR/best-effort).  Bands are served in strict priority; within a band
//    VCs share by self-clocked weighted fair queueing, weighted by their
//    reserved bandwidth;
//  * overload shedding — one policy among several (the PR-2 bounded queue
//    with push-out is now DiscardPolicy::pushout): push-out, tail drop, or
//    EPD/PPD frame-aware discard that drops whole AAL5 frames instead of
//    shredding them cell by cell;
//  * ABR feedback — forward RM cells passing a congested output port get
//    their explicit rate reduced to the port's ABR fair share and the
//    congestion bit set.
//
// Every discarded cell increments exactly one cause counter (policed, epd,
// ppd, overflow) in addition to its class counter, so observability can
// tell a policer doing its job from a congested trunk.
//
// Fast path: the VC table is one std::map of routes, keyed
// by (input port, VCI) and the per-VC queues are allocation-free rings
// created at route install.  An input link hands a port its whole queued
// run of cells in one event, and the port takes up to a frame of it.  When
// the run's VC is the only one active on its output port, the port
// computes each cell's departure in closed form,
// d_i = max(a_i + fabric, d_{i-1}) + cell_time, with no fabric or drain
// events, and its output link pulls the cells in as their transmission
// starts.  Anything that could perturb the run first materialises it:
// cells whose instants have passed are committed and the rest return to
// the per-cell path (the fabric, the VC queue, or the input link for cells
// still on the wire).  Reads count the run's cells at their own instants.
// So the fast path is exact.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "atm/gcra.hpp"
#include "atm/link.hpp"
#include "atm/qos.hpp"
#include "obs/obs.hpp"
#include "util/result.hpp"
#include "util/ring.hpp"

namespace xunet::atm {

/// What an output port does when its bounded cell buffer is exhausted (or,
/// for epd_ppd, nearly so).
enum class DiscardPolicy : std::uint8_t {
  /// A higher-class arrival evicts the youngest cell of the lowest occupied
  /// band (the PR-2 behaviour): best-effort occupancy can never crowd out
  /// reserved traffic.
  pushout = 0,
  /// Arrivals to a full buffer are dropped, whatever their class.
  tail_drop = 1,
  /// Frame-aware: above the early-packet-discard threshold (3/4 of the
  /// buffer) whole arriving AAL5 frames are dropped before their first cell
  /// is queued; once any mid-frame cell is lost to overflow, the rest of
  /// that frame is discarded too (partial packet discard), keeping the
  /// end-of-frame delimiter when space allows so the next frame survives.
  epd_ppd = 2,
};

/// Why a cell was discarded.  Each discarded cell counts under exactly one
/// cause (and under its class in cells_dropped).
enum class DiscardCause : std::uint8_t {
  policed = 0,   ///< failed GCRA conformance at ingress
  epd = 1,       ///< whole frame dropped at the EPD threshold
  ppd = 2,       ///< rest-of-frame dropped after a mid-frame loss
  overflow = 3,  ///< bounded buffer exhausted (includes push-out victims)
};
inline constexpr std::size_t kDiscardCauseCount = 4;
[[nodiscard]] std::string_view to_string(DiscardCause c) noexcept;

/// One ATM switch.  Ports are numbered from 0; each port is a CellSink for
/// its incoming link and may have an outgoing CellLink attached.  The VC
/// table maps (input port, VCI) to (output port, VCI); entries are installed
/// and removed by the network signaling controller (AtmNetwork), never by
/// the data path.
/// What made an output port hand its closed-form run back to the per-cell
/// path.
enum class Materialise : std::uint8_t {
  other_cell = 0,  ///< a cell outside the run reached the port
  route = 1,       ///< remove_route
  link_fault = 2,  ///< set_down, set_loss or set_corrupt on the output link
  tracing = 3,     ///< tracing switched on
  depth = 4,       ///< the run's next cell would reach the EPD threshold
};
inline constexpr std::size_t kMaterialiseCount = 5;

class AtmSwitch {
 public:
  AtmSwitch(sim::Simulator& sim, std::string name,
            sim::SimDuration per_cell_latency = sim::microseconds(10),
            std::size_t port_queue_cells = 2048);
  ~AtmSwitch();
  AtmSwitch(const AtmSwitch&) = delete;
  AtmSwitch& operator=(const AtmSwitch&) = delete;

  /// Add a port; returns its index.
  int add_port();
  [[nodiscard]] int port_count() const noexcept { return static_cast<int>(ports_.size()); }

  /// The sink incoming links should deliver to for `port`.
  [[nodiscard]] CellSink& input(int port);

  /// Attach the outgoing link of `port`.  The link must outlive the switch.
  void set_output(int port, CellLink& out);

  /// Overload shedding policy for every output port of this switch.
  void set_discard_policy(DiscardPolicy p) noexcept { policy_ = p; }

  /// Install a VC route, performing admission control on the output port
  /// when `qos` requires a reservation (capacity = output link rate).
  /// A contract carrying PCR/SCR/MBS descriptors arms the dual-GCRA
  /// policer at ingress; the reservation weights the VC's egress queue.
  /// Fails with `duplicate` when (in_port, in_vci) is already routed and
  /// `no_resources` when the reservation does not fit.
  [[nodiscard]] util::Result<void> install_route(int in_port, Vci in_vci,
                                                 int out_port, Vci out_vci,
                                                 const Qos& qos);

  /// Remove a route and release its reservation.  Returns not_found when
  /// there is no such route.
  util::Result<void> remove_route(int in_port, Vci in_vci);

  /// Bandwidth currently reserved on `port`'s output.
  [[nodiscard]] std::uint64_t reserved_bps(int port) const;
  /// Rate of `port`'s output link; 0 when no output link is attached.
  [[nodiscard]] std::uint64_t output_rate_bps(int port) const;
  /// Number of installed VC routes (leak audits use this).
  [[nodiscard]] std::size_t route_count() const noexcept { return table_.size(); }

  /// SABOTAGE SEAM — chaos-checker self-tests only: inflate a port's
  /// reservation ledger without admission control, so the qos-overcommit
  /// invariant has a live bug to catch.  Never called by production code.
  void debug_overreserve(int port, std::uint64_t bps);

  /// One installed route, as exposed to cross-layer audits.
  struct RouteInfo {
    int in_port = -1;
    Vci in_vci = kInvalidVci;
    int out_port = -1;
    Vci out_vci = kInvalidVci;
    [[nodiscard]] auto operator<=>(const RouteInfo&) const = default;
  };
  /// Every installed route, in ascending (in_port, in_vci) order — the
  /// table's own order over route_key, so no re-sort happens.
  /// core::check() diffs this against the network controller's
  /// active-VC hop state to find dangling or missing routes.
  [[nodiscard]] std::vector<RouteInfo> route_table() const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Cells routed into the fabric, counting each at its arrival instant.
  [[nodiscard]] std::uint64_t cells_switched() const noexcept;
  [[nodiscard]] std::uint64_t cells_unroutable() const noexcept { return cells_unroutable_; }
  /// Cells of class `c` discarded at `port`, any cause.  Policing drops
  /// count at the ingress port; queue discards count at the egress port.
  [[nodiscard]] std::uint64_t cells_dropped(int port, ServiceClass c) const;
  /// Cells discarded at `port` for `cause` (disjoint causes; their sum over
  /// causes equals the sum of cells_dropped over classes).
  [[nodiscard]] std::uint64_t cells_discarded(int port, DiscardCause cause) const;
  /// Cells currently queued at `port` (all VCs, all bands).
  [[nodiscard]] std::size_t queue_depth(int port) const;
  /// Installed routes whose egress is `port`'s ABR band (RM fair share).
  [[nodiscard]] std::size_t abr_route_count(int port) const;
  /// Closed-form runs handed back to the per-cell path for `cause`.
  [[nodiscard]] std::uint64_t materialisations(Materialise cause) const noexcept {
    return materialised_[static_cast<std::size_t>(cause)];
  }
  /// Cells that crossed this switch in closed form (a run), not per cell.
  [[nodiscard]] std::uint64_t cells_in_runs() const noexcept { return cells_in_runs_; }

 private:
  /// One VC's egress queue: a FIFO of cells plus its SCFQ scheduling state
  /// and AAL5 frame-discard state.  Owned by the output port, keyed by the
  /// outgoing VCI; created at route install so the cell path never
  /// allocates.
  struct VcQueue {
    util::RingQueue<Cell> q;
    Vci vci = kInvalidVci;
    ServiceClass band = ServiceClass::best_effort;
    std::uint64_t weight = 1;  ///< Mb/s of reservation, >= 1
    std::uint64_t finish = 0;  ///< SCFQ virtual finish tag of the head cell
    std::uint32_t refs = 0;    ///< routes sharing this outgoing VCI
    bool active = false;       ///< listed in the band's active set
    bool in_frame = false;     ///< mid-frame in the *arrival* stream
    bool skipping_epd = false; ///< dropping the current frame (EPD)
    bool discarding_ppd = false;  ///< dropping the rest of a frame (PPD)
  };

  /// A routed cell crossing the fabric toward its output port.  Cells that
  /// reach the switch at the same instant over different links keep the
  /// order the per-cell path delivers them in.
  struct Staged {
    sim::SimTime ready;
    DeliveryOrder order;
    Cell cell;
  };

  /// A cell of a closed-form run: its arrival at the switch, the start of
  /// its transmission on the output link, and the cell with its outgoing
  /// VCI.
  struct RunCell {
    sim::SimTime at;
    sim::SimTime start;
    DeliveryOrder order;
    Cell cell;
  };

  /// The one VC an output port is serving in closed form.  Its cells are
  /// held here until the output link pulls them (their transmission has
  /// started) or the run is materialised.
  struct Run {
    util::RingQueue<RunCell> cells;  ///< held cells, arrival order
    VcQueue* vq = nullptr;           ///< the run's VC; null when no run
    int in_port = -1;                ///< its link takes back cells on the wire
    Vci in_vci = kInvalidVci;
    std::size_t counted = 0;      ///< leading held cells counted as switched
    std::size_t queued_from = 0;  ///< first held cell not yet sent when the
                                  ///< last one leaves the fabric (depth)
    sim::SimTime done{};          ///< line frees after the last sent cell
    sim::SimTime real_until{};    ///< cells arriving by then were delivered
                                  ///< by a real link event
    sim::SimTime last_ready = kNever;  ///< fabric exit of the last cell to
                                       ///< leave the fabric
  };

  struct Port final : CellSink, CellSource {
    Port(AtmSwitch& sw, int index) : owner(sw), index(index) {}
    void cell_arrival(const Cell& cell) override {
      owner.handle_cell(*this, cell, nullptr);
    }
    TrainTake train_arrival(const CellTrain& train) override {
      return owner.take_train(*this, train);
    }
    void commit(const Cut& cut) override { owner.commit(*this, cut); }
    [[nodiscard]] sim::SimTime next_start() const noexcept override {
      return run.cells.empty() ? kNever : run.cells.front().start;
    }
    [[nodiscard]] std::uint64_t started(const Cut& cut) const noexcept override;
    void materialise_for_fault() override {
      owner.materialise(*this, cut_now(owner.sim_), Materialise::link_fault);
    }
    void link_closed() override;

    AtmSwitch& owner;
    int index;
    CellLink* in = nullptr;  ///< the link delivering here (after its first train)
    CellLink* out = nullptr;
    std::uint64_t reserved_bps = 0;
    /// Cells in flight across the fabric to this output port, ready-order.
    util::RingQueue<Staged> fabric;
    sim::EventId fabric_armed = 0;
    sim::EventId drain_armed = 0;
    sim::SimTime drain_at{};  ///< when drain_armed fires
    Run run;
    /// Per-VC egress queues, keyed by outgoing VCI.  Map nodes never move,
    /// so the active lists and the run may point at them.
    std::map<Vci, VcQueue> vc_queues;
    /// Non-empty VC queues per band, in activation order; the scheduler
    /// picks the minimum SCFQ finish tag (ties to the lowest VCI).
    std::array<std::vector<VcQueue*>, kServiceClassCount> active;
    /// SCFQ virtual clock per band.
    std::array<std::uint64_t, kServiceClassCount> vtime{};
    /// Cells queued per band / in total (all VCs).
    std::array<std::size_t, kServiceClassCount> band_depth{};
    std::size_t depth = 0;
    std::array<std::uint64_t, kServiceClassCount> drops{};
    std::array<std::uint64_t, kDiscardCauseCount> discards{};
    std::array<obs::Gauge*, kServiceClassCount> depth_gauges{};
    std::size_t abr_routes = 0;
    bool draining = false;
  };

  struct Route {
    int out_port = -1;
    Vci out_vci = kInvalidVci;
    std::uint64_t reserved_bps = 0;
    ServiceClass svc_class = ServiceClass::best_effort;
    /// Only a contract with traffic descriptors has a policer.
    std::unique_ptr<DualGcra> police;
  };

  [[nodiscard]] static std::uint64_t route_key(int in_port, Vci in_vci) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(in_port)) << 16) | in_vci;
  }
  /// SCFQ cost of one cell for a queue: the virtual clock advances by the
  /// inverse weight, scaled to keep integer precision.
  [[nodiscard]] static std::uint64_t wfq_cost(const VcQueue& vq) noexcept {
    return kWfqScale / vq.weight;
  }
  static constexpr std::uint64_t kWfqScale = 1u << 16;

  TrainTake take_train(Port& ingress, const CellTrain& train);
  /// Route one cell that is due now through the fabric, cell by cell.
  /// `order` places it among same-instant arrivals (null: after them).
  void handle_cell(Port& ingress, const Cell& cell, const DeliveryOrder* order);
  /// Put a routed cell into `out`'s fabric ring.
  void stage(Port& out, sim::SimTime ready, const Cell& cell, const DeliveryOrder* order);
  /// Append a cell to `out`'s closed-form run; false when it does not
  /// qualify (the caller then takes the per-cell path).
  bool run_append(Port& ingress, const Route& route, Port& out,
                  const TimedCell& tc, bool due);
  /// Send every run cell whose transmission started before `cut`.
  void commit(Port& out, const Cut& cut);
  /// Count run cells that have arrived by `cut` as switched.
  void account(Port& out, const Cut& cut);
  /// Hand `out`'s run back to the per-cell path as of `cut`.
  void materialise(Port& out, const Cut& cut, Materialise cause);
  /// Run cells queued at `cut`: through the fabric, not yet sent.
  [[nodiscard]] std::size_t run_queued(const Port& out, const Cut& cut) const noexcept;
  void fabric_deliver(Port& out);
  void enqueue_out(Port& out, VcQueue& vq, Cell cell);
  void drop_cell(Port& at, ServiceClass band, DiscardCause cause);
  void activate(Port& out, VcQueue& vq);
  void deactivate(Port& out, VcQueue& vq);
  /// Pick the served band (highest non-empty) and its min-finish queue.
  [[nodiscard]] VcQueue* select(Port& out);
  void stamp_rm(Port& out, Cell& cell) const;
  void drain(Port& out);
  /// Arm the fabric event (drain wakeup) as though armed at `armed`.
  void arm_fabric(Port& out, sim::SimTime armed);
  void arm_drain(Port& out, sim::SimTime at, sim::SimTime armed);
  [[nodiscard]] std::size_t epd_threshold() const noexcept {
    return port_queue_cells_ - port_queue_cells_ / 4;
  }

  sim::Simulator& sim_;
  std::string name_;
  sim::SimDuration per_cell_latency_;
  std::size_t port_queue_cells_;
  DiscardPolicy policy_ = DiscardPolicy::pushout;
  obs::Observability* obs_ = nullptr;
  obs::Counter* m_cells_ = nullptr;
  obs::Counter* m_unroutable_ = nullptr;
  std::array<obs::Counter*, kDiscardCauseCount> m_discards_{};
  std::vector<std::unique_ptr<Port>> ports_;
  /// VC table keyed by route_key; iterates in (in_port, in_vci) order.
  std::map<std::uint64_t, Route> table_;
  std::uint64_t cells_switched_ = 0;
  std::uint64_t cells_unroutable_ = 0;
  std::uint64_t cells_in_runs_ = 0;
  std::array<std::uint64_t, kMaterialiseCount> materialised_{};
};

}  // namespace xunet::atm
