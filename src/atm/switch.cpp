#include "atm/switch.hpp"

#include <algorithm>
#include <cassert>

namespace xunet::atm {

using util::Errc;

namespace {

[[nodiscard]] constexpr std::size_t band_idx(ServiceClass c) noexcept {
  return static_cast<std::size_t>(c);
}

}  // namespace

std::string_view to_string(DiscardCause c) noexcept {
  switch (c) {
    case DiscardCause::policed: return "policed";
    case DiscardCause::epd: return "epd";
    case DiscardCause::ppd: return "ppd";
    case DiscardCause::overflow: return "overflow";
  }
  return "?";
}

AtmSwitch::AtmSwitch(sim::Simulator& sim, std::string name,
                     sim::SimDuration per_cell_latency,
                     std::size_t port_queue_cells)
    : sim_(sim),
      name_(std::move(name)),
      per_cell_latency_(per_cell_latency),
      port_queue_cells_(port_queue_cells),
      obs_(&sim.obs()),
      m_cells_(&sim.obs().metrics().counter("atm.switch." + name_ + ".cells")),
      m_unroutable_(&sim.obs().metrics().counter("atm.switch." + name_ +
                                                 ".cells_unroutable")) {
  for (std::size_t cause = 0; cause < kDiscardCauseCount; ++cause) {
    m_discards_[cause] = &sim.obs().metrics().counter(
        "atm.switch." + name_ + ".discard." +
        std::string(to_string(static_cast<DiscardCause>(cause))));
  }
  // Run cells count as switched lazily; readers of the registry get them
  // brought up to date, and tracing hands every run back to the per-cell
  // path so each cell gets its span.
  obs_->metrics().add_sync(this, [this](obs::MetricsRegistry::Sync why) {
    const Cut cut = cut_now(sim_);
    for (auto& p : ports_) {
      if (why == obs::MetricsRegistry::Sync::tracing) {
        materialise(*p, cut, Materialise::tracing);
      } else {
        account(*p, cut);
      }
    }
  });
}

AtmSwitch::~AtmSwitch() {
  obs_->metrics().remove_sync(this);
  for (auto& p : ports_) {
    // Pending fabric and drain events capture the Port; the Simulator may
    // outlive this switch.
    sim_.cancel(p->fabric_armed);
    sim_.cancel(p->drain_armed);
    if (p->run.vq != nullptr && p->out != nullptr) p->out->set_source(nullptr);
  }
}

int AtmSwitch::add_port() {
  int index = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<Port>(*this, index));
  Port& p = *ports_.back();
  for (std::size_t b = 0; b < kServiceClassCount; ++b) {
    p.depth_gauges[b] = &sim_.obs().metrics().gauge(
        "atm.switch." + name_ + ".p" + std::to_string(index) + ".depth." +
        std::string(to_string(static_cast<ServiceClass>(b))));
  }
  return index;
}

CellSink& AtmSwitch::input(int port) {
  assert(port >= 0 && port < port_count());
  return *ports_[static_cast<std::size_t>(port)];
}

void AtmSwitch::set_output(int port, CellLink& out) {
  assert(port >= 0 && port < port_count());
  ports_[static_cast<std::size_t>(port)]->out = &out;
}

util::Result<void> AtmSwitch::install_route(int in_port, Vci in_vci,
                                            int out_port, Vci out_vci,
                                            const Qos& qos) {
  if (in_port < 0 || in_port >= port_count() || out_port < 0 ||
      out_port >= port_count() || in_vci == kInvalidVci ||
      out_vci == kInvalidVci) {
    return Errc::invalid_argument;
  }
  std::uint64_t key = route_key(in_port, in_vci);
  if (table_.contains(key)) return Errc::duplicate;

  Port& out = *ports_[static_cast<std::size_t>(out_port)];
  std::uint64_t reserve = 0;
  if (qos.needs_reservation()) {
    if (out.out == nullptr) return Errc::no_route;
    if (out.reserved_bps + qos.bandwidth_bps > out.out->rate_bps()) {
      return Errc::no_resources;
    }
    reserve = qos.bandwidth_bps;
    out.reserved_bps += reserve;
  }
  // The VC's egress queue is created here, on the control plane, so the
  // cell path never allocates (the ring itself still grows lazily during
  // warmup).  Routes from several input ports may merge onto one outgoing
  // VCI; they share the queue (first contract wins) and it lives until the
  // last of them is removed.
  auto [it, fresh] = out.vc_queues.try_emplace(out_vci);
  VcQueue& vq = it->second;
  if (fresh) {
    vq.vci = out_vci;
    vq.band = qos.service_class;
    vq.weight = std::max<std::uint64_t>(1, qos.bandwidth_bps / 1'000'000);
  }
  ++vq.refs;
  if (qos.service_class == ServiceClass::abr) ++out.abr_routes;

  const DualGcra police(qos);
  table_.try_emplace(key, Route{out_port, out_vci, reserve, qos.service_class,
                                police.enabled() ? std::make_unique<DualGcra>(police)
                                                 : nullptr});
  return {};
}

util::Result<void> AtmSwitch::remove_route(int in_port, Vci in_vci) {
  std::uint64_t key = route_key(in_port, in_vci);
  auto route_it = table_.find(key);
  if (route_it == table_.end()) return Errc::not_found;
  const Route* r = &route_it->second;
  Port& out = *ports_[static_cast<std::size_t>(r->out_port)];
  materialise(out, cut_now(sim_), Materialise::route);
  assert(out.reserved_bps >= r->reserved_bps);
  out.reserved_bps -= r->reserved_bps;
  if (r->svc_class == ServiceClass::abr) {
    assert(out.abr_routes > 0);
    --out.abr_routes;
  }
  auto it = out.vc_queues.find(r->out_vci);
  if (it != out.vc_queues.end()) {
    VcQueue& vq = it->second;
    assert(vq.refs > 0);
    if (--vq.refs == 0) {
      // Tear-down flushes queued cells without counting them as discards:
      // the VC no longer exists, so there is nothing to deliver them to.
      const std::size_t b = band_idx(vq.band);
      out.depth -= vq.q.size();
      out.band_depth[b] -= vq.q.size();
      out.depth_gauges[b]->set(static_cast<std::int64_t>(out.band_depth[b]));
      if (vq.active) deactivate(out, vq);
      out.vc_queues.erase(it);
    }
  }
  table_.erase(route_it);
  return {};
}

std::uint64_t AtmSwitch::reserved_bps(int port) const {
  assert(port >= 0 && port < port_count());
  return ports_[static_cast<std::size_t>(port)]->reserved_bps;
}

std::uint64_t AtmSwitch::output_rate_bps(int port) const {
  assert(port >= 0 && port < port_count());
  const Port& p = *ports_[static_cast<std::size_t>(port)];
  return p.out != nullptr ? p.out->rate_bps() : 0;
}

void AtmSwitch::debug_overreserve(int port, std::uint64_t bps) {
  assert(port >= 0 && port < port_count());
  ports_[static_cast<std::size_t>(port)]->reserved_bps += bps;
}

std::vector<AtmSwitch::RouteInfo> AtmSwitch::route_table() const {
  std::vector<RouteInfo> out;
  out.reserve(table_.size());
  for (const auto& [key, r] : table_) {
    out.push_back(RouteInfo{static_cast<int>(key >> 16), static_cast<Vci>(key & 0xffff),
                            r.out_port, r.out_vci});
  }
  return out;
}

TrainTake AtmSwitch::take_train(Port& ingress, const CellTrain& train) {
  const bool fast = !per_cell_forced() && !XOBS_TRACING(obs_);
  // Cells of one train overwhelmingly share a VCI, so memoize the last
  // route lookup; the table cannot change mid-train.
  std::uint64_t last_key = ~std::uint64_t{0};
  Route* route = nullptr;
  // Cells still on the wire are taken only as one VC's run, so a run that
  // is materialised can give its cells back ahead of everything the link
  // still holds.
  Vci run_vci = kInvalidVci;
  // Arrivals over different links at one instant go in per-cell order:
  // first hand over any other link whose cell the per-cell path delivers
  // before this train's.
  ingress.in = &train.link();
  if (train.size() > 0 && train.due(0)) {
    const TimedCell& first = train[0];
    for (auto& p : ports_) {
      if (p->in == nullptr || p.get() == &ingress) continue;
      const TimedCell* other = p->in->front();
      if (other != nullptr && other->at == first.at &&
          delivered_before(other->order, first.order, first.at)) {
        p->in->deliver_now();
      }
    }
  }
  std::size_t n = 0;
  for (; n < train.size(); ++n) {
    const TimedCell& tc = train[n];
    const bool due = train.due(n);
    if (!due && (!fast || (run_vci != kInvalidVci && tc.cell.vci != run_vci))) break;
    if (fast) {
      const std::uint64_t key = route_key(ingress.index, tc.cell.vci);
      if (key != last_key) {
        auto it = table_.find(key);
        route = it != table_.end() ? &it->second : nullptr;
        last_key = key;
      }
      if (route != nullptr &&
          run_append(ingress, *route, *ports_[static_cast<std::size_t>(route->out_port)],
                     tc, due)) {
        run_vci = tc.cell.vci;
        // One frame per event: later frames wait in the link, which keeps
        // what a run holds to about a frame.
        if (tc.cell.end_of_frame) {
          ++n;
          break;
        }
        continue;
      }
    }
    if (!due) break;
    handle_cell(ingress, tc.cell, &tc.order);
  }
  return {n, kNever};
}

void AtmSwitch::handle_cell(Port& ingress, const Cell& cell,
                            const DeliveryOrder* order) {
  auto route_it = table_.find(route_key(ingress.index, cell.vci));
  Route* route = route_it != table_.end() ? &route_it->second : nullptr;
  Port* out = route != nullptr ? ports_[static_cast<std::size_t>(route->out_port)].get()
                               : nullptr;
  if (out == nullptr || out->out == nullptr) {
    ++cells_unroutable_;
    m_unroutable_->inc();
    return;
  }
  const sim::SimTime now = sim_.now();
  // Usage-parameter control: a contract with traffic descriptors runs the
  // dual GCRA here, at ingress, before the cell touches the fabric.  RM
  // cells are exempt — killing the feedback loop under overload would be
  // self-defeating.
  if (!cell.rm && route->police && !route->police->police(now)) {
    drop_cell(ingress, route->svc_class, DiscardCause::policed);
    return;
  }
  // This cell will compete with the port's run for the output line.  A run
  // cell arriving at this same instant is staged now as well; stage()
  // puts the two in per-cell delivery order.
  if (out->run.vq != nullptr) {
    out->run.real_until = std::max(out->run.real_until, now);
    materialise(*out, cut_now(sim_), Materialise::other_cell);
  }
  ++cells_switched_;
  m_cells_->inc();
  if (XOBS_TRACING(obs_)) {
    obs::TraceIds ids;
    ids.vci = cell.vci;
    obs_->complete(per_cell_latency_, "atm", "cell.fwd", name_, std::move(ids));
  }
  // Cross the fabric (fixed per-cell latency), then join the output port's
  // per-VC queue.
  Cell routed = cell;
  routed.vci = route->out_vci;
  stage(*out, now + per_cell_latency_, routed, order);
}

void AtmSwitch::stage(Port& out, sim::SimTime ready, const Cell& cell,
                      const DeliveryOrder* order) {
  Staged& s = out.fabric.push_slot();
  s.ready = ready;
  s.order = order != nullptr ? *order : DeliveryOrder{};
  s.cell = cell;
  if (order != nullptr) {
    const sim::SimTime arrived{ready.ns() - per_cell_latency_.ns()};
    for (std::size_t i = out.fabric.size() - 1; i > 0; --i) {
      Staged& prev = out.fabric[i - 1];
      Staged& cur = out.fabric[i];
      if (prev.ready != ready || prev.order.head_seq == 0 ||
          !delivered_before(cur.order, prev.order, arrived)) {
        break;
      }
      std::swap(prev, cur);
    }
  }
  if (out.fabric_armed == 0) arm_fabric(out, sim_.now());
}

bool AtmSwitch::run_append(Port& ingress, const Route& route, Port& out,
                           const TimedCell& tc, bool due) {
  if (tc.cell.rm || route.police || out.out == nullptr ||
      !out.out->clean()) {
    return false;
  }
  Run& run = out.run;
  const sim::SimTime ready = tc.at + per_cell_latency_;
  if (run.vq != nullptr && (run.in_port != ingress.index || run.in_vci != tc.cell.vci)) {
    if (!run.cells.empty()) return false;
    // The previous run has sent everything; only its line timing remains,
    // and the new run starts from it.
    out.depth_gauges[band_idx(run.vq->band)]->set(0);
    run.vq = nullptr;
  }
  if (run.vq != nullptr) {
    // Predicted depth when this cell leaves the fabric: held cells whose
    // transmission has not started by then, plus this one.  Staying below
    // the EPD threshold means no policy can discard anything.
    while (run.queued_from < run.cells.size() &&
           run.cells[run.queued_from].start < ready) {
      ++run.queued_from;
    }
    if (run.cells.size() - run.queued_from + 1 >= epd_threshold()) {
      if (due) materialise(out, cut_now(sim_), Materialise::depth);
      return false;
    }
  } else {
    if (out.depth != 0 || !out.fabric.empty() || epd_threshold() < 2) return false;
    auto it = out.vc_queues.find(route.out_vci);
    if (it == out.vc_queues.end()) return false;
    VcQueue& vq = it->second;
    if (vq.skipping_epd || vq.discarding_ppd) return false;
    // The run takes over the line from the drain: its first cell goes when
    // a pending drain wakeup would have served it.  That is not always when
    // the link frees up, since a cell the link dropped still took its turn.
    run.done = out.draining ? out.drain_at : out.out->line_free_at();
    sim_.cancel(out.drain_armed);
    out.drain_armed = 0;
    out.draining = false;
    run.vq = &vq;
    run.in_port = ingress.index;
    run.in_vci = tc.cell.vci;
    run.counted = 0;
    run.queued_from = 0;
    run.real_until = sim::SimTime{};
    run.last_ready = kNever;
  }
  const sim::SimTime prev =
      run.cells.empty() ? run.done : run.cells.back().start + out.out->cell_time();
  RunCell& c = run.cells.push_slot();
  c.at = tc.at;
  c.start = std::max(ready, prev);
  c.order = tc.order;
  c.cell = tc.cell;
  c.cell.vci = route.out_vci;
  ++cells_in_runs_;
  if (due) {
    // Delivered by a real link event at its own instant.
    run.real_until = tc.at;
    account(out, Cut{tc.at, true});
  }
  if (run.cells.size() == 1) out.out->set_source(&out);
  return true;
}

void AtmSwitch::commit(Port& out, const Cut& cut) {
  Run& run = out.run;
  if (run.vq == nullptr) return;
  VcQueue& vq = *run.vq;
  const std::size_t b = band_idx(vq.band);
  const sim::SimDuration ct = out.out->cell_time();
  std::uint64_t counted = 0;
  while (!run.cells.empty() && cut.passed(run.cells.front().start)) {
    const RunCell& c = run.cells.front();
    if (run.counted > 0) {
      --run.counted;
    } else {
      ++counted;
    }
    // What the per-cell path does to the VC as the cell passes: track the
    // frame, advance the band's SCFQ clock by one cell, free the line at
    // the end of the transmission.
    vq.in_frame = !c.cell.end_of_frame;
    out.vtime[b] += wfq_cost(vq);
    run.last_ready = c.at + per_cell_latency_;
    run.done = c.start + ct;
    out.out->send_at(c.cell, c.start);
    run.cells.pop_front();
    if (run.queued_from > 0) --run.queued_from;
  }
  if (counted > 0) {
    cells_switched_ += counted;
    m_cells_->inc(counted);
  }
}

void AtmSwitch::account(Port& out, const Cut& cut) {
  Run& run = out.run;
  if (run.vq == nullptr) return;
  std::uint64_t counted = 0;
  for (; run.counted < run.cells.size(); ++run.counted, ++counted) {
    const sim::SimTime at = run.cells[run.counted].at;
    if (!cut.passed(at) && at > run.real_until) break;
  }
  if (counted > 0) {
    cells_switched_ += counted;
    m_cells_->inc(counted);
  }
  out.depth_gauges[band_idx(run.vq->band)]->set(
      static_cast<std::int64_t>(run_queued(out, cut)));
}

std::size_t AtmSwitch::run_queued(const Port& out, const Cut& cut) const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < out.run.cells.size(); ++i) {
    const RunCell& c = out.run.cells[i];
    if (!cut.passed(c.at + per_cell_latency_)) break;
    if (!cut.passed(c.start)) ++n;
  }
  return n;
}

std::uint64_t AtmSwitch::Port::started(const Cut& cut) const noexcept {
  std::uint64_t n = 0;
  while (n < run.cells.size() && cut.passed(run.cells[n].start)) ++n;
  return n;
}

void AtmSwitch::Port::link_closed() {
  run.cells.clear();
  run.vq = nullptr;
  out = nullptr;
}

void AtmSwitch::materialise(Port& out, const Cut& cut, Materialise cause) {
  Run& run = out.run;
  if (run.vq == nullptr) return;
  if (!run.cells.empty()) ++materialised_[static_cast<std::size_t>(cause)];
  commit(out, cut);
  account(out, cut);
  VcQueue& vq = *run.vq;
  const std::size_t b = band_idx(vq.band);
  // Every counted cell has arrived: it is either through the fabric and
  // queued, or still crossing it.
  for (std::size_t i = 0; i < run.counted; ++i) {
    const RunCell& c = run.cells[i];
    const sim::SimTime ready = c.at + per_cell_latency_;
    if (cut.passed(ready)) {
      vq.q.push_back(c.cell);
      ++out.band_depth[b];
      ++out.depth;
      vq.in_frame = !c.cell.end_of_frame;
      run.last_ready = ready;
    } else {
      Staged& s = out.fabric.push_slot();
      s.ready = ready;
      s.order = c.order;
      s.cell = c.cell;
    }
  }
  out.depth_gauges[b]->set(static_cast<std::int64_t>(out.band_depth[b]));
  if (!vq.q.empty()) activate(out, vq);

  // Re-create the events the per-cell path has pending, each ordered as
  // armed when the per-cell path arms it: the drain wakeup when the last
  // cell started; the fabric event when its front cell arrived, or when
  // the cell before it left the fabric if that was later.
  const bool drain_pending = !cut.passed(run.done);
  assert(drain_pending || vq.q.empty());
  out.draining = drain_pending;
  if (drain_pending) {
    arm_drain(out, run.done, sim::SimTime{run.done.ns() - out.out->cell_time().ns()});
  }
  if (!out.fabric.empty()) {
    const sim::SimTime arrived{out.fabric.front().ready.ns() - per_cell_latency_.ns()};
    arm_fabric(out, run.last_ready != kNever && run.last_ready >= arrived ? run.last_ready
                                                                           : arrived);
  }

  // Cells still on the wire go back to the input link, latest first.
  CellLink* in = ports_[static_cast<std::size_t>(run.in_port)]->in;
  if (run.counted < run.cells.size()) {
    for (std::size_t j = run.cells.size(); j-- > run.counted;) {
      Cell c = run.cells[j].cell;
      c.vci = run.in_vci;
      in->give_back(c, run.cells[j].at, run.cells[j].order);
    }
    in->rearm();
  }
  run.cells.clear();
  run.vq = nullptr;
  out.out->set_source(nullptr);
}

void AtmSwitch::fabric_deliver(Port& out) {
  out.fabric_armed = 0;
  const sim::SimTime now = sim_.now();
  // Trains share a VCI, so memoize the per-VC queue lookup too.  A route
  // removed while its cells were mid-fabric leaves them with no queue;
  // they are counted unroutable, like cells whose route never existed.
  Vci last_vci = kInvalidVci;
  VcQueue* vq = nullptr;
  while (!out.fabric.empty() && out.fabric.front().ready <= now) {
    const Staged& s = out.fabric.front();
    if (s.cell.vci != last_vci) {
      auto it = out.vc_queues.find(s.cell.vci);
      vq = it != out.vc_queues.end() ? &it->second : nullptr;
      last_vci = s.cell.vci;
    }
    if (vq == nullptr) {
      ++cells_unroutable_;
      m_unroutable_->inc();
    } else {
      enqueue_out(out, *vq, s.cell);
    }
    out.fabric.pop_front();
  }
  if (out.fabric_armed == 0 && !out.fabric.empty()) arm_fabric(out, now);
}

void AtmSwitch::arm_fabric(Port& out, sim::SimTime armed) {
  // xunet-lint: allow(LIFE-REF-CAPTURE) -- &out is a heap Port owned by
  // this switch, whose destructor cancels the event.
  out.fabric_armed = sim_.schedule_at(out.fabric.front().ready, armed,
                                      [this, &out] { fabric_deliver(out); });
}

void AtmSwitch::arm_drain(Port& out, sim::SimTime at, sim::SimTime armed) {
  out.drain_at = at;
  // xunet-lint: allow(LIFE-REF-CAPTURE) -- &out is a heap Port owned by
  // this switch, whose destructor cancels the event.
  out.drain_armed = sim_.schedule_at(at, armed, [this, &out] { drain(out); });
}

void AtmSwitch::drop_cell(Port& at, ServiceClass band, DiscardCause cause) {
  ++at.drops[band_idx(band)];
  ++at.discards[static_cast<std::size_t>(cause)];
  m_discards_[static_cast<std::size_t>(cause)]->inc();
}

void AtmSwitch::stamp_rm(Port& out, Cell& cell) const {
  if (!cell.rm || cell.backward) return;
  // ABR explicit-rate feedback: a forward RM cell leaving this port may not
  // claim more than the port's fair share of unreserved capacity, split
  // evenly among the ABR VCs routed through it (Goyal/Jain's switch rule in
  // its simplest form).  The congestion bit trips at a quarter-full buffer.
  const std::uint64_t rate = out.out != nullptr ? out.out->rate_bps() : 0;
  const std::uint64_t avail = rate > out.reserved_bps ? rate - out.reserved_bps : 0;
  const std::uint64_t share = std::max<std::uint64_t>(
      1, avail / std::max<std::size_t>(std::size_t{1}, out.abr_routes));
  if (cell.er_bps == 0 || cell.er_bps > share) cell.er_bps = share;
  if (out.depth >= port_queue_cells_ / 4) cell.ci = true;
}

void AtmSwitch::activate(Port& out, VcQueue& vq) {
  // SCFQ: a queue waking up starts one cell-cost past the band's virtual
  // clock, so it cannot claim credit for the time it was idle.
  const std::size_t b = band_idx(vq.band);
  vq.finish = out.vtime[b] + wfq_cost(vq);
  out.active[b].push_back(&vq);
  vq.active = true;
}

void AtmSwitch::deactivate(Port& out, VcQueue& vq) {
  auto& list = out.active[band_idx(vq.band)];
  list.erase(std::find(list.begin(), list.end(), &vq));
  vq.active = false;
}

AtmSwitch::VcQueue* AtmSwitch::select(Port& out) {
  // Strict priority across bands; SCFQ (minimum finish tag, ties broken
  // toward the lowest VCI for determinism) within one.
  for (std::size_t b = kServiceClassCount; b-- > 0;) {
    auto& list = out.active[b];
    if (list.empty()) continue;
    VcQueue* best = list.front();
    for (VcQueue* cand : list) {
      if (cand->finish < best->finish ||
          (cand->finish == best->finish && cand->vci < best->vci)) {
        best = cand;
      }
    }
    return best;
  }
  return nullptr;
}

void AtmSwitch::enqueue_out(Port& out, VcQueue& vq, Cell cell) {
  if (cell.rm) stamp_rm(out, cell);
  // Track AAL5 frame boundaries in the arrival stream (RM cells are
  // transparent to framing) so the frame-aware policy knows where frames
  // start.
  bool frame_start = false;
  if (!cell.rm) {
    frame_start = !vq.in_frame;
    vq.in_frame = !cell.end_of_frame;
  }
  if (policy_ == DiscardPolicy::epd_ppd && !cell.rm) {
    if (vq.skipping_epd) {
      // EPD in progress: the whole frame goes, including its delimiter.
      // The receiver sees a clean gap in the AAL5 sequence, never a
      // truncated CRC-broken frame.
      if (cell.end_of_frame) vq.skipping_epd = false;
      drop_cell(out, vq.band, DiscardCause::epd);
      return;
    }
    if (vq.discarding_ppd) {
      if (!cell.end_of_frame) {
        drop_cell(out, vq.band, DiscardCause::ppd);
        return;
      }
      // Keep the end-of-frame delimiter when space allows: it closes the
      // ruined frame so the next one reassembles.
      vq.discarding_ppd = false;
    }
    if (frame_start && out.depth >= epd_threshold()) {
      if (!cell.end_of_frame) vq.skipping_epd = true;
      drop_cell(out, vq.band, DiscardCause::epd);
      return;
    }
  }
  if (out.depth >= port_queue_cells_) {
    if (policy_ == DiscardPolicy::pushout) {
      // Bounded output buffer with push-out: a higher-class arrival evicts
      // the youngest cell of the lowest occupied band (largest VC queue
      // there, ties toward the lowest VCI), so best-effort occupancy can
      // never crowd out reserved traffic.
      VcQueue* victim = nullptr;
      for (std::size_t b = 0; b < band_idx(vq.band); ++b) {
        if (out.band_depth[b] == 0) continue;
        for (VcQueue* cand : out.active[b]) {
          if (victim == nullptr || cand->q.size() > victim->q.size() ||
              (cand->q.size() == victim->q.size() &&
               cand->vci < victim->vci)) {
            victim = cand;
          }
        }
        break;
      }
      if (victim == nullptr) {
        // No lower band to raid: longest-queue drop within the arrival's
        // own band (Suter/Lakshman).  Shared-buffer tail drop would let a
        // greedy VC's standing queue starve its peers of buffer space and
        // defeat the fair scheduler; evicting from the longest queue keeps
        // goodput at the WFQ shares.  Only a strictly longer queue is
        // raided, so the longest queue itself tail-drops.
        for (VcQueue* cand : out.active[band_idx(vq.band)]) {
          if (cand == &vq || cand->q.size() <= vq.q.size()) continue;
          if (victim == nullptr || cand->q.size() > victim->q.size() ||
              (cand->q.size() == victim->q.size() &&
               cand->vci < victim->vci)) {
            victim = cand;
          }
        }
      }
      if (victim == nullptr) {
        drop_cell(out, vq.band, DiscardCause::overflow);
        return;
      }
      victim->q.pop_back();
      const std::size_t vb = band_idx(victim->band);
      --out.band_depth[vb];
      --out.depth;
      out.depth_gauges[vb]->set(static_cast<std::int64_t>(out.band_depth[vb]));
      if (victim->q.empty()) deactivate(out, *victim);
      drop_cell(out, victim->band, DiscardCause::overflow);
    } else {
      // tail_drop — and the epd_ppd hard limit, where losing a mid-frame
      // cell dooms the rest of the frame to partial packet discard.
      if (policy_ == DiscardPolicy::epd_ppd && !cell.rm &&
          !cell.end_of_frame) {
        vq.discarding_ppd = true;
      }
      drop_cell(out, vq.band, DiscardCause::overflow);
      return;
    }
  }
  vq.q.push_back(cell);
  const std::size_t b = band_idx(vq.band);
  ++out.band_depth[b];
  ++out.depth;
  out.depth_gauges[b]->set(static_cast<std::int64_t>(out.band_depth[b]));
  if (!vq.active) activate(out, vq);
  if (!out.draining) {
    out.draining = true;
    drain(out);
  }
}

void AtmSwitch::drain(Port& out) {
  out.drain_armed = 0;
  VcQueue* vq = select(out);
  if (vq == nullptr) {
    out.draining = false;
    return;
  }
  const std::size_t b = band_idx(vq->band);
  out.vtime[b] = vq->finish;
  out.out->send(vq->q.front());
  vq->q.pop_front();
  --out.band_depth[b];
  --out.depth;
  out.depth_gauges[b]->set(static_cast<std::int64_t>(out.band_depth[b]));
  if (vq->q.empty()) {
    deactivate(out, *vq);
  } else {
    vq->finish += wfq_cost(*vq);
  }
  // Serve the next cell once the line has sent this one.
  arm_drain(out, sim_.now() + out.out->cell_time(), sim_.now());
}

std::uint64_t AtmSwitch::cells_switched() const noexcept {
  const Cut cut = cut_now(sim_);
  std::uint64_t n = cells_switched_;
  for (const auto& p : ports_) {
    const Run& run = p->run;
    if (run.vq == nullptr) continue;
    for (std::size_t i = run.counted; i < run.cells.size(); ++i) {
      const sim::SimTime at = run.cells[i].at;
      if (!cut.passed(at) && at > run.real_until) break;
      ++n;
    }
  }
  return n;
}

std::uint64_t AtmSwitch::cells_dropped(int port, ServiceClass c) const {
  assert(port >= 0 && port < port_count());
  return ports_[static_cast<std::size_t>(port)]->drops[band_idx(c)];
}

std::uint64_t AtmSwitch::cells_discarded(int port, DiscardCause cause) const {
  assert(port >= 0 && port < port_count());
  return ports_[static_cast<std::size_t>(port)]
      ->discards[static_cast<std::size_t>(cause)];
}

std::size_t AtmSwitch::queue_depth(int port) const {
  assert(port >= 0 && port < port_count());
  const Port& p = *ports_[static_cast<std::size_t>(port)];
  return p.depth + run_queued(p, cut_now(sim_));
}

std::size_t AtmSwitch::abr_route_count(int port) const {
  assert(port >= 0 && port < port_count());
  return ports_[static_cast<std::size_t>(port)]->abr_routes;
}

}  // namespace xunet::atm
