#include "core/testbed.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace xunet::core {

using util::Errc;

namespace {
/// Host↔router links are FDDI (ip::kFddiBps, ip::kFddiMtu) of this length.
constexpr sim::SimDuration kHostLinkPropagation = sim::microseconds(50);
sig::SighostConfig shard_config(sig::SighostConfig c, int s, int shards) {
  if (shards > 1) {
    c.shard_count = static_cast<std::uint16_t>(shards);
    c.shard_id = static_cast<std::uint16_t>(s);
  }
  return c;
}
}  // namespace

std::string LeakReport::describe() const {
  std::string s;
  auto add = [&s](const char* what, std::size_t n) {
    if (n != 0) {
      s += std::string(what) + "=" + std::to_string(n) + " ";
    }
  };
  add("network_vcs", network_vcs);
  add("outgoing", sighost_outgoing);
  add("incoming", sighost_incoming);
  add("wait_bind", sighost_wait_bind);
  add("vci_mappings", sighost_vci_mappings);
  return s.empty() ? "clean" : s;
}

Testbed::Testbed(TestbedConfig cfg) : cfg_(std::move(cfg)) {
  sim_ = std::make_unique<sim::Simulator>();
  net_ = std::make_unique<atm::AtmNetwork>(*sim_);
}

Testbed::~Testbed() = default;

atm::AtmSwitch& Testbed::add_switch(const std::string& name) {
  return net_->make_switch(name);
}

void Testbed::connect_switches(atm::AtmSwitch& a, atm::AtmSwitch& b) {
  net_->connect_switches(a, b, cfg_.atm_rate_bps, cfg_.atm_propagation);
}

Router& Testbed::add_router(const std::string& atm_name, ip::IpAddress ip,
                            atm::AtmSwitch& sw) {
  auto r = std::make_unique<Router>();
  r->kernel = std::make_unique<kern::Kernel>(
      *sim_, atm_name, kern::Kernel::Role::router, ip,
      atm::AtmAddress{atm_name}, cfg_.kernel);
  auto attached = r->kernel->attach_atm(*net_, sw, cfg_.atm_rate_bps,
                                        cfg_.atm_propagation);
  assert(attached.ok());
  (void)attached;
  r->sw = &sw;
  r->anand_server = std::make_unique<sig::AnandServerStub>(*r->kernel);
  r->sighost = std::make_unique<sig::Sighost>(
      *r->kernel, *net_, shard_config(cfg_.sighost, 0, cfg_.sighost_shards));
  for (int s = 1; s < cfg_.sighost_shards; ++s) {
    r->extra_shards.push_back(std::make_unique<sig::Sighost>(
        *r->kernel, *net_, shard_config(cfg_.sighost, s, cfg_.sighost_shards)));
  }
  routers_.push_back(std::move(r));
  return *routers_.back();
}

Host& Testbed::add_host(const std::string& name, ip::IpAddress ip,
                        Router& via) {
  auto h = std::make_unique<Host>();
  h->kernel = std::make_unique<kern::Kernel>(
      *sim_, name, kern::Kernel::Role::host, ip, atm::AtmAddress{name},
      cfg_.kernel);
  h->home = &via;
  h->link = std::make_unique<ip::IpLink>(*sim_, ip::kFddiBps,
                                         kHostLinkPropagation, ip::kFddiMtu);
  h->link->attach(h->kernel->ip_node(), via.kernel->ip_node());
  h->kernel->ip_node().set_default_route(*h->link);
  via.kernel->ip_node().add_route(ip, *h->link);
  h->anand_client = std::make_unique<sig::AnandClientStub>(
      *h->kernel, via.kernel->ip_node().address());
  hosts_.push_back(std::move(h));
  return *hosts_.back();
}

util::Result<void> Testbed::bring_up() {
  if (up_) return Errc::duplicate;
  up_ = true;
  for (auto& r : routers_) {
    if (auto rc = r->anand_server->start(); !rc) return rc;
    for (std::size_t s = 0; s < r->shard_count(); ++s) {
      if (auto rc = r->shard(s)->start(); !rc) return rc;
    }
  }
  // PVC mesh: one simplex PVC per ordered router pair AND sighost shard,
  // with a well-known sub-floor VCI reserved end to end.  Shard s of one
  // router talks only to shard s of its peers (they own the same residue
  // class).  adjacent_pvc_mesh restricts the mesh to chain neighbours so
  // long sharded chains fit the PVC VCI space.
  const std::size_t shards =
      routers_.empty() ? 1 : routers_.front()->shard_count();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    for (std::size_t j = i + 1; j < routers_.size(); ++j) {
      if (cfg_.adjacent_pvc_mesh && j != i + 1) continue;
      for (std::size_t s = 0; s < shards; ++s) {
        atm::Vci ij = next_pvc_vci_++;
        atm::Vci ji = next_pvc_vci_++;
        assert(ji < atm::kFirstSwitchedVci && "too many routers for PVC VCIs");
        const atm::AtmAddress& a = routers_[i]->kernel->atm_address();
        const atm::AtmAddress& b = routers_[j]->kernel->atm_address();
        atm::Qos pvc_qos;  // best effort: signaling traffic is tiny
        auto p1 = net_->setup_pvc(a, b, ij, pvc_qos);
        if (!p1) return p1.error();
        auto p2 = net_->setup_pvc(b, a, ji, pvc_qos);
        if (!p2) return p2.error();
        pvc_count_ += 2;
        if (auto rc = routers_[i]->shard(s)->add_peer(b, ij, ji); !rc) return rc;
        if (auto rc = routers_[j]->shard(s)->add_peer(a, ji, ij); !rc) return rc;
        peer_pvcs_.resize(routers_.size());
        peer_pvcs_[i].push_back({j, s, ij, ji});
        peer_pvcs_[j].push_back({i, s, ji, ij});
      }
    }
  }
  if (cfg_.ip_over_atm) {
    // One PVC pair per ordered router pair carries classical IP.
    for (std::size_t i = 0; i < routers_.size(); ++i) {
      for (std::size_t j = i + 1; j < routers_.size(); ++j) {
        atm::Vci ij = next_pvc_vci_++;
        atm::Vci ji = next_pvc_vci_++;
        assert(ji < atm::kFirstSwitchedVci && "PVC VCI space exhausted");
        const atm::AtmAddress& a = routers_[i]->kernel->atm_address();
        const atm::AtmAddress& b = routers_[j]->kernel->atm_address();
        atm::Qos q;  // IP rides best-effort, as on Xunet
        auto p1 = net_->setup_pvc(a, b, ij, q);
        if (!p1) return p1.error();
        auto p2 = net_->setup_pvc(b, a, ji, q);
        if (!p2) return p2.error();
        pvc_count_ += 2;
        auto& if_a = routers_[i]->kernel->add_ip_over_atm(ij, ji);
        auto& if_b = routers_[j]->kernel->add_ip_over_atm(ji, ij);
        // Routes: the peer router itself plus every host behind it.
        auto add_routes = [this](Router& from, Router& to, kern::IpOverAtm& via) {
          from.kernel->ip_node().add_route(to.kernel->ip_node().address(), via);
          for (auto& h : hosts_) {
            if (h->home == &to) {
              from.kernel->ip_node().add_route(h->kernel->ip_node().address(),
                                               via);
            }
          }
        };
        add_routes(*routers_[i], *routers_[j], if_a);
        add_routes(*routers_[j], *routers_[i], if_b);
      }
    }
  }
  for (auto& h : hosts_) {
    if (auto rc = h->anand_client->start(); !rc) return rc;
  }
  // Let control-plane TCP connections establish.
  sim_->run_for(sim::milliseconds(200));
  return {};
}

void Testbed::set_wire_fault(sig::Sighost::WireFaultFn fn) {
  wire_fault_ = std::move(fn);
  for (auto& r : routers_) {
    for (std::size_t s = 0; s < r->shard_count(); ++s) {
      if (sig::Sighost* sh = r->shard(s)) sh->set_wire_fault(wire_fault_);
    }
  }
}

void Testbed::crash_sighost(std::size_t i) {
  Router& r = *routers_.at(i);
  if (!r.sighost) return;
  // Kill the process(es) first (the kernel reclaims their sockets exactly
  // as it would for any crashed program), then drop the objects (cancelling
  // their timers — a dead process fires no more events).  All shards of the
  // router die together: this models the machine rebooting.
  (void)r.kernel->kill_process(r.sighost->pid());
  r.sighost.reset();
  for (auto& sh : r.extra_shards) {
    if (!sh) continue;
    (void)r.kernel->kill_process(sh->pid());
    sh.reset();
  }
}

util::Result<void> Testbed::restart_sighost(std::size_t i) {
  Router& r = *routers_.at(i);
  if (r.sighost) return Errc::duplicate;
  const std::size_t shards = r.shard_count();
  for (std::size_t s = 0; s < shards; ++s) {
    auto sh = std::make_unique<sig::Sighost>(
        *r.kernel, *net_,
        shard_config(cfg_.sighost, static_cast<int>(s), cfg_.sighost_shards));
    if (wire_fault_) sh->set_wire_fault(wire_fault_);
    if (auto rc = sh->start(); !rc) return rc;
    if (peer_pvcs_.size() > i) {
      for (const PeerPvc& p : peer_pvcs_[i]) {
        if (p.shard != s) continue;
        const atm::AtmAddress& peer =
            routers_.at(p.other)->kernel->atm_address();
        if (auto rc = sh->add_peer(peer, p.send_vci, p.recv_vci); !rc) {
          return rc;
        }
      }
    }
    if (s == 0) {
      r.sighost = std::move(sh);
    } else {
      r.extra_shards.at(s - 1) = std::move(sh);
    }
  }
  // Recover each shard only after every shard is listening again, so the
  // per-shard audits see the same post-crash kernel state.
  for (std::size_t s = 0; s < shards; ++s) {
    if (auto rc = r.shard(s)->recover(); !rc) return rc;
  }
  return {};
}

namespace {

/// Site name of router `i` — the first two keep the paper's Murray Hill /
/// Berkeley names so the generalized topology is a superset of canonical().
std::string site_prefix(int i) {
  if (i == 0) return "mh";
  if (i == 1) return "berkeley";
  return "site" + std::to_string(i);
}

}  // namespace

std::unique_ptr<Testbed> TestbedConfig::build_deferred() const {
  assert(n_routers >= 1);
  auto tb = std::make_unique<Testbed>(*this);

  // Chain of switches, one router per switch: mh.rt — s1 — s2 — … — sN.
  std::vector<atm::AtmSwitch*> switches;
  for (int i = 0; i < n_routers; ++i) {
    switches.push_back(&tb->add_switch("s" + std::to_string(i + 1)));
    if (i > 0) {
      tb->connect_switches(*switches[static_cast<std::size_t>(i - 1)],
                           *switches[static_cast<std::size_t>(i)]);
    }
  }
  for (int i = 0; i < n_routers; ++i) {
    tb->add_router(site_prefix(i) + ".rt",
                   ip::make_ip(10, 0, static_cast<std::uint8_t>(i), 1),
                   *switches[static_cast<std::size_t>(i)]);
  }
  // Hosts round-robin across routers; per-site numbering from 1, matching
  // canonical_with_hosts ("mh.host1" at 10.0.0.2, "berkeley.host1" at
  // 10.0.1.2).
  std::vector<int> per_site(static_cast<std::size_t>(n_routers), 0);
  for (int k = 0; k < n_hosts; ++k) {
    const int home = k % n_routers;
    const int idx = ++per_site[static_cast<std::size_t>(home)];
    tb->add_host(site_prefix(home) + ".host" + std::to_string(idx),
                 ip::make_ip(10, 0, static_cast<std::uint8_t>(home),
                             static_cast<std::uint8_t>(1 + idx)),
                 tb->router(static_cast<std::size_t>(home)));
  }
  return tb;
}

std::unique_ptr<Testbed> TestbedConfig::build() const {
  auto tb = build_deferred();
  if (auto_bring_up) {
    if (auto rc = tb->bring_up(); !rc) {
      std::fprintf(stderr, "TestbedConfig::build: bring_up failed: %d\n",
                   static_cast<int>(rc.error()));
      std::abort();
    }
  }
  return tb;
}

LeakReport Testbed::audit() const {
  LeakReport rep;
  rep.network_vcs = net_->active_vc_count() - pvc_count_;
  for (const auto& r : routers_) {
    for (std::size_t s = 0; s < r->shard_count(); ++s) {
      const sig::Sighost* sh = r->shard(s);
      if (sh == nullptr) continue;  // crashed shard: nothing to count
      rep.sighost_outgoing += sh->outgoing_requests_size();
      rep.sighost_incoming += sh->incoming_requests_size();
      rep.sighost_wait_bind += sh->wait_for_bind_size();
      rep.sighost_vci_mappings += sh->vci_mapping_size();
    }
  }
  return rep;
}

}  // namespace xunet::core
