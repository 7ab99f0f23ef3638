#include "atm/network.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

namespace xunet::atm {

using util::Errc;

util::Result<Vci> VciAllocator::allocate(std::uint16_t mod, std::uint16_t rem) {
  if (mod == 0) mod = 1;
  rem = static_cast<std::uint16_t>(rem % mod);
  // First VCI of the residue class at or above the switched floor.  All the
  // arithmetic runs in 32 bits: kMaxVci is the full uint16 range, so a Vci
  // loop variable would wrap instead of terminating.
  std::uint32_t first = kFirstSwitchedVci;
  if (first % mod != rem) first += mod - (first % mod - rem + mod) % mod;
  const std::uint32_t key = (std::uint32_t(mod) << 16) | rem;
  ClassState& cls = classes_.try_emplace(key, ClassState{first, {}}).first->second;
  while (!cls.holes.empty()) {
    std::ranges::pop_heap(cls.holes, std::greater{});
    const Vci v = cls.holes.back();
    cls.holes.pop_back();
    if (!taken(v)) {
      take(v);
      return v;
    }
  }
  // The frontier only moves forward, so this scan is amortized O(1) per
  // allocation over the allocator's lifetime.
  for (; cls.frontier <= kMaxVci; cls.frontier += mod) {
    if (!taken(cls.frontier)) {
      take(cls.frontier);
      cls.frontier += mod;
      return static_cast<Vci>(cls.frontier - mod);
    }
  }
  return Errc::no_resources;
}

util::Result<void> VciAllocator::reserve(Vci vci) {
  if (vci == kInvalidVci) return Errc::invalid_argument;
  if (taken(vci)) return Errc::duplicate;
  take(vci);
  return {};
}

void VciAllocator::release(Vci vci) noexcept {
  if (!taken(vci)) return;
  used_[vci] = false;
  if (vci < kFirstSwitchedVci) return;
  // Every class the freed VCI belongs to and whose frontier passed it
  // gains a hole.
  for (auto& [key, cls] : classes_) {
    const std::uint32_t mod = key >> 16;
    const std::uint32_t rem = key & 0xffffu;
    if (vci % mod != rem || vci >= cls.frontier) continue;
    cls.holes.push_back(vci);
    std::ranges::push_heap(cls.holes, std::greater{});
    // Past twice the class's members below the frontier, holes are mostly
    // stale or repeated: drop those (sorted, the rest is still a min-heap).
    if (cls.holes.size() > 2 * (cls.frontier / mod)) {
      std::ranges::sort(cls.holes);
      const auto dup = std::ranges::unique(cls.holes);
      cls.holes.erase(dup.begin(), dup.end());
      std::erase_if(cls.holes, [this](Vci v) { return taken(v); });
    }
  }
}

AtmNetwork::AtmNetwork(sim::Simulator& sim) : sim_(sim) {}

int AtmNetwork::add_node(Node n) {
  nodes_.push_back(std::move(n));
  out_edges_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

AtmSwitch& AtmNetwork::make_switch(const std::string& name) {
  switches_.push_back(std::make_unique<AtmSwitch>(sim_, name));
  AtmSwitch& sw = *switches_.back();
  add_node(Node{Node::Kind::sw, name, &sw, nullptr});
  return sw;
}

int AtmNetwork::node_of_switch(const AtmSwitch& sw) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].sw == &sw) return static_cast<int>(i);
  }
  return -1;
}

util::Result<CellLink*> AtmNetwork::attach_endpoint(
    const AtmAddress& addr, CellSink& sink, AtmSwitch& sw,
    std::uint64_t rate_bps, sim::SimDuration propagation) {
  if (endpoint_nodes_.contains(addr)) return Errc::duplicate;
  int sw_node = node_of_switch(sw);
  if (sw_node < 0) return Errc::invalid_argument;

  int ep_node = add_node(Node{Node::Kind::endpoint, addr.name, nullptr, &sink});
  endpoint_nodes_.emplace(addr, ep_node);
  auto shared_vcis = std::make_shared<VciAllocator>();

  // Uplink: endpoint -> switch input port.
  int in_port = sw.add_port();
  Edge up;
  up.from = ep_node;
  up.to = sw_node;
  up.to_port = in_port;
  up.vcis = shared_vcis;
  up.link = std::make_unique<CellLink>(sim_, rate_bps, propagation,
                                       sw.input(in_port));
  edges_.push_back(std::move(up));
  out_edges_[static_cast<std::size_t>(ep_node)].push_back(
      static_cast<int>(edges_.size()) - 1);
  CellLink* uplink = edges_.back().link.get();

  // Downlink: switch output port -> endpoint sink.
  int out_port = sw.add_port();
  Edge down;
  down.from = sw_node;
  down.to = ep_node;
  down.from_port = out_port;
  down.vcis = shared_vcis;
  down.link = std::make_unique<CellLink>(sim_, rate_bps, propagation, sink);
  sw.set_output(out_port, *down.link);
  edges_.push_back(std::move(down));
  out_edges_[static_cast<std::size_t>(sw_node)].push_back(
      static_cast<int>(edges_.size()) - 1);

  return uplink;
}

void AtmNetwork::connect_switches(AtmSwitch& a, AtmSwitch& b,
                                  std::uint64_t rate_bps,
                                  sim::SimDuration propagation) {
  int na = node_of_switch(a);
  int nb = node_of_switch(b);
  assert(na >= 0 && nb >= 0);
  auto one_way = [&](AtmSwitch& from, int nfrom, AtmSwitch& to, int nto) {
    int out_port = from.add_port();
    int in_port = to.add_port();
    Edge e;
    e.from = nfrom;
    e.to = nto;
    e.from_port = out_port;
    e.to_port = in_port;
    e.link = std::make_unique<CellLink>(sim_, rate_bps, propagation,
                                        to.input(in_port));
    from.set_output(out_port, *e.link);
    edges_.push_back(std::move(e));
    out_edges_[static_cast<std::size_t>(nfrom)].push_back(
        static_cast<int>(edges_.size()) - 1);
  };
  one_way(a, na, b, nb);
  one_way(b, nb, a, na);
}

std::vector<int> AtmNetwork::find_path(int src, int dst) const {
  // bfs_prev_[n] is the node n was reached from (-1 for src, kUnseen until
  // reached).  Both scratch vectors keep their capacity, so a lookup
  // allocates only the path it returns.
  constexpr int kUnseen = -2;
  bfs_prev_.assign(nodes_.size(), kUnseen);
  bfs_prev_[static_cast<std::size_t>(src)] = -1;
  bfs_queue_.assign(1, src);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const int n = bfs_queue_[head];
    if (n == dst) break;
    for (int ei : out_edges_[static_cast<std::size_t>(n)]) {
      int m = edges_[static_cast<std::size_t>(ei)].to;
      // Paths may not transit other endpoints.
      if (m != dst && nodes_[static_cast<std::size_t>(m)].kind == Node::Kind::endpoint) continue;
      if (bfs_prev_[static_cast<std::size_t>(m)] == kUnseen) {
        bfs_prev_[static_cast<std::size_t>(m)] = n;
        bfs_queue_.push_back(m);
      }
    }
  }
  if (bfs_prev_[static_cast<std::size_t>(dst)] == kUnseen) return {};
  std::vector<int> path;
  for (int n = dst; n != -1; n = bfs_prev_[static_cast<std::size_t>(n)]) path.push_back(n);
  std::reverse(path.begin(), path.end());
  return path;
}

int AtmNetwork::edge_between(int a, int b) const {
  for (int ei : out_edges_[static_cast<std::size_t>(a)]) {
    if (edges_[static_cast<std::size_t>(ei)].to == b) return ei;
  }
  return -1;
}

util::Result<AtmNetwork::ActiveVc> AtmNetwork::install_path(
    const std::vector<int>& path, const Qos& qos,
    std::optional<Vci> fixed_vci, VciPartition part) {
  ActiveVc vc{.src = path.front(), .dst = path.back()};
  if (path.size() - 1 > kInlineHops) {
    vc.far = std::make_unique<HopState[]>(path.size() - 1);
  }
  // Allocate a VCI on every edge of the path.  The partition constraint
  // applies only to the two endpoint-facing edges: those VCIs are what the
  // endpoint kernels demux on, while interior trunk VCIs are private to the
  // switches.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    int ei = edge_between(path[i], path[i + 1]);
    if (ei < 0) {
      uninstall(vc, 0);
      return Errc::no_route;
    }
    const bool endpoint_edge = (i == 0) || (i + 2 == path.size());
    Edge& e = edges_[static_cast<std::size_t>(ei)];
    util::Result<Vci> vci = fixed_vci ? (e.vcis->reserve(*fixed_vci)
                                             ? util::Result<Vci>(*fixed_vci)
                                             : util::Result<Vci>(Errc::duplicate))
                                      : (endpoint_edge
                                             ? e.vcis->allocate(part.mod, part.rem)
                                             : e.vcis->allocate());
    if (!vci) {
      uninstall(vc, 0);
      return vci.error();
    }
    vc.push(HopState{ei, *vci});
  }
  // Install switch routes: the switch each hop but the last enters routes
  // (incoming edge's port, incoming VCI) -> (outgoing edge's port, out VCI).
  for (std::size_t i = 0; i + 1 < vc.hop_count; ++i) {
    const HopState& in = vc.hops()[i];
    const HopState& out = vc.hops()[i + 1];
    const Edge& in_e = edges_[static_cast<std::size_t>(in.edge)];
    const Edge& out_e = edges_[static_cast<std::size_t>(out.edge)];
    const Node& n = nodes_[static_cast<std::size_t>(in_e.to)];
    assert(n.kind == Node::Kind::sw);
    auto r = n.sw->install_route(in_e.to_port, in.vci, out_e.from_port,
                                 out.vci, qos);
    if (!r) {
      uninstall(vc, i);
      return r.error();
    }
  }
  return vc;
}

void AtmNetwork::uninstall(ActiveVc& vc, std::size_t routes) {
  for (std::size_t i = 0; i < routes; ++i) {
    const HopState& h = vc.hops()[i];
    const Edge& e = edges_[static_cast<std::size_t>(h.edge)];
    (void)nodes_[static_cast<std::size_t>(e.to)].sw->remove_route(e.to_port, h.vci);
  }
  for (const HopState& h : vc.hops()) {
    edges_[static_cast<std::size_t>(h.edge)].vcis->release(h.vci);
  }
  vc.hop_count = 0;
}

VcHandle AtmNetwork::activate(ActiveVc vc) {
  VcHandle h;
  h.id = next_vc_id_++;
  h.src_vci = vc.hops().front().vci;
  h.dst_vci = vc.hops().back().vci;
  h.hop_count = static_cast<int>(vc.hop_count);
  active_.try_emplace(h.id, std::move(vc));
  return h;
}

void AtmNetwork::setup_vc(const AtmAddress& src, const AtmAddress& dst,
                          const Qos& qos, SetupHandler done,
                          const std::string& call, std::uint64_t trace_id,
                          std::uint64_t parent_span, VciPartition part) {
  ++setups_attempted_;
  obs::Observability& o = sim_.obs();
  o.metrics().counter("atm.net.setups_attempted").inc();
  // Admission and routing are evaluated now; the outcome arrives after each
  // switch on the path processes the call once and the confirmation crosses
  // every link twice (one switch's processing when there is no route).
  util::Result<VcHandle> r = Errc::no_route;
  sim::SimDuration latency = kPerSwitchSetup;
  auto s = endpoint_nodes_.find(src);
  auto d = endpoint_nodes_.find(dst);
  std::vector<int> path;
  if (s != endpoint_nodes_.end() && d != endpoint_nodes_.end() && src != dst) {
    path = find_path(s->second, d->second);
  }
  if (!path.empty()) {
    latency = {};
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      int ei = edge_between(path[i], path[i + 1]);
      latency += edges_[static_cast<std::size_t>(ei)].link->propagation() * 2;
    }
    latency += kPerSwitchSetup * static_cast<std::int64_t>(path.size() - 2);
    auto vc = install_path(path, qos, std::nullopt, part);
    r = vc ? util::Result<VcHandle>(activate(std::move(*vc))) : vc.error();
  }
  if (!r) {
    ++setups_denied_;
    o.metrics().counter("atm.net.setups_denied").inc();
  }
  // The VC-install span covers the modeled network-signaling latency.
  if (XOBS_TRACING(&o)) {
    obs::TraceIds ids;
    ids.call_id = call;
    // The deepest hop of the causal call tree: a child of the callee
    // sighost's call.serve span (carried here via PEER_ACCEPT).
    ids.trace_id = trace_id;
    ids.parent_span = parent_span;
    (void)o.complete(latency, "atm", r ? "vc.setup" : "vc.setup_denied", "net",
                     std::move(ids));
  }
  sim_.schedule(latency, [done = std::move(done), r = std::move(r)] { done(r); });
}

util::Result<VcHandle> AtmNetwork::setup_pvc(const AtmAddress& src,
                                             const AtmAddress& dst, Vci vci,
                                             const Qos& qos) {
  auto s = endpoint_nodes_.find(src);
  auto d = endpoint_nodes_.find(dst);
  if (s == endpoint_nodes_.end() || d == endpoint_nodes_.end() || src == dst) {
    return Errc::no_route;
  }
  std::vector<int> path = find_path(s->second, d->second);
  if (path.empty()) return Errc::no_route;
  auto vc = install_path(path, qos, vci);
  if (!vc) return vc.error();
  return activate(std::move(*vc));
}

std::size_t AtmNetwork::set_trunk_down(const AtmSwitch& a, const AtmSwitch& b,
                                       bool down) {
  const std::vector<CellLink*> links = trunk_links(a, b);
  for (CellLink* l : links) l->set_down(down);
  return links.size();
}

std::vector<CellLink*> AtmNetwork::trunk_links(const AtmSwitch& a,
                                               const AtmSwitch& b) {
  int na = node_of_switch(a);
  int nb = node_of_switch(b);
  std::vector<CellLink*> links;
  for (Edge& e : edges_) {
    if ((e.from == na && e.to == nb) || (e.from == nb && e.to == na)) {
      links.push_back(e.link.get());
    }
  }
  return links;
}

std::vector<CellLink*> AtmNetwork::endpoint_links(const AtmAddress& addr) {
  auto it = endpoint_nodes_.find(addr);
  if (it == endpoint_nodes_.end()) return {};
  std::vector<CellLink*> links;
  for (Edge& e : edges_) {
    if (e.from == it->second || e.to == it->second) links.push_back(e.link.get());
  }
  return links;
}

std::vector<AtmNetwork::VcAudit> AtmNetwork::audit_vcs(
    const AtmAddress& endpoint) const {
  std::vector<VcAudit> out;
  auto ep = endpoint_nodes_.find(endpoint);
  if (ep == endpoint_nodes_.end()) return out;
  for (const auto& [id, vc] : active_) {
    VcAudit a;
    a.id = id;
    if (vc.src == ep->second) {
      a.local_vci = vc.hops().front().vci;
      a.remote_vci = vc.hops().back().vci;
      a.remote = AtmAddress{node_name(vc.dst)};
      a.originator = true;
    } else if (vc.dst == ep->second) {
      a.local_vci = vc.hops().back().vci;
      a.remote_vci = vc.hops().front().vci;
      a.remote = AtmAddress{node_name(vc.src)};
      a.originator = false;
    } else {
      continue;
    }
    out.push_back(std::move(a));
  }
  // active_ iterates by VC id; this surface is keyed by local VCI.
  std::sort(out.begin(), out.end(), [](const VcAudit& x, const VcAudit& y) {
    return x.local_vci < y.local_vci;
  });
  return out;
}

std::vector<AtmNetwork::VcSummary> AtmNetwork::audit_all_vcs() const {
  std::vector<VcSummary> out;
  for (const auto& [id, vc] : active_) {
    out.push_back(VcSummary{id, AtmAddress{node_name(vc.src)},
                            AtmAddress{node_name(vc.dst)}, vc.hops().front().vci,
                            vc.hops().back().vci});
  }
  return out;
}

std::vector<AtmNetwork::RouteAudit> AtmNetwork::audit_routes() const {
  std::vector<RouteAudit> out;
  for (const auto& [id, vc] : active_) {
    for (std::size_t i = 0; i + 1 < vc.hop_count; ++i) {
      const Edge& e = edges_[static_cast<std::size_t>(vc.hops()[i].edge)];
      out.push_back(RouteAudit{nodes_[static_cast<std::size_t>(e.to)].sw->name(),
                               e.to_port, vc.hops()[i].vci, id});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<AtmNetwork::ReservationAudit> AtmNetwork::audit_reservations()
    const {
  std::vector<ReservationAudit> out;
  for (const auto& sw : switches_) {
    for (int p = 0; p < sw->port_count(); ++p) {
      ReservationAudit a;
      a.sw = sw->name();
      a.port = p;
      a.reserved_bps = sw->reserved_bps(p);
      a.capacity_bps = sw->output_rate_bps(p);
      out.push_back(std::move(a));
    }
  }
  // switches_ is creation-ordered, not name-ordered; audits sort.
  std::sort(out.begin(), out.end());
  return out;
}

AtmSwitch* AtmNetwork::switch_by_name(const std::string& name) noexcept {
  for (auto& sw : switches_) {
    if (sw->name() == name) return sw.get();
  }
  return nullptr;
}

util::Result<void> AtmNetwork::teardown(VcId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return Errc::not_found;
  ActiveVc& vc = it->second;
  uninstall(vc, vc.hop_count - 1);
  active_.erase(it);
  return {};
}

}  // namespace xunet::atm
