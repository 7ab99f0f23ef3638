// testbed.hpp — builds complete simulated Xunet deployments.
//
// A Testbed owns the simulator, the ATM network, every machine's kernel,
// the signaling entities and the anand stubs, wires PVC signaling channels
// between all routers, and offers the canonical measurement topology of §9:
// two routers (SGI 4D/30 class) joined by a three-hop, two-switch ATM path,
// each optionally serving IP-connected hosts over FDDI.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kern/kernel.hpp"
#include "signaling/anand_stubs.hpp"
#include "signaling/sighost.hpp"

namespace xunet::core {

class Testbed;

/// All tunables of a deployment in one place, plus a fluent builder over
/// them.  Benches sweep the fields directly; scenario code chains the
/// builder:
///
///   auto tb = TestbedConfig{}
///                 .routers(3)
///                 .hosts(4)
///                 .trunk(atm::kOc12Bps)
///                 .pvc_mesh()
///                 .build();
///
/// build() constructs the generalized §9 topology — `n_routers` switches in
/// a chain, one router per switch, hosts distributed round-robin — and,
/// when pvc_mesh() was requested, brings the deployment up (anand servers,
/// sighosts, the signaling-PVC full mesh).  build_deferred() never brings
/// up, whatever pvc_mesh() said.
struct TestbedConfig {
  kern::KernelConfig kernel;          ///< default kernel config (all machines)
  sig::SighostConfig sighost;         ///< default sighost config (all routers)
  std::uint64_t atm_rate_bps = atm::kDs3Bps;
  sim::SimDuration atm_propagation = sim::microseconds(500);
  /// Provision classical IP-over-ATM between every router pair at bring-up
  /// (§1's Xunet IP service): cross-router IP connectivity for hosts.
  bool ip_over_atm = false;
  /// Topology: routers (one per switch, switches chained) and hosts
  /// (distributed round-robin across routers).
  int n_routers = 2;
  int n_hosts = 0;
  /// Sighost shards per router: shard s owns the switched VCIs with
  /// vci % sighost_shards == s, listens on sighost.port + s, and gets its
  /// own signaling-PVC mesh to shard s of every peer.  1 = the paper's
  /// one-sighost-per-router deployment.
  int sighost_shards = 1;
  /// Provision signaling PVCs only between chain-adjacent routers instead
  /// of the full mesh.  Long chains at high shard counts would otherwise
  /// exhaust the sub-floor PVC VCI space; calls must then stay between
  /// adjacent routers.
  bool adjacent_pvc_mesh = false;
  /// build() calls bring_up() when set (the fluent pvc_mesh() sets it).
  bool auto_bring_up = false;

  // -- fluent builder -------------------------------------------------------
  TestbedConfig& routers(int n) { n_routers = n; return *this; }
  TestbedConfig& hosts(int n) { n_hosts = n; return *this; }
  /// Line rate of every ATM link (trunks and endpoint links).
  TestbedConfig& trunk(std::uint64_t bps) { atm_rate_bps = bps; return *this; }
  TestbedConfig& propagation(sim::SimDuration d) { atm_propagation = d; return *this; }
  /// Provision classical IP-over-ATM between the routers at bring-up.
  TestbedConfig& ip_gateway() { ip_over_atm = true; return *this; }
  /// Bring the deployment up inside build(), provisioning the signaling
  /// PVC full mesh between routers.
  TestbedConfig& pvc_mesh() { auto_bring_up = true; return *this; }
  /// Run `n` sighost shards per router.
  TestbedConfig& shards(int n) { sighost_shards = n; return *this; }
  /// Signaling PVCs between chain-adjacent routers only.
  TestbedConfig& adjacent_pvc_only() { adjacent_pvc_mesh = true; return *this; }

  /// Build the deployment; brings it up when pvc_mesh() was requested
  /// (aborting on bring-up failure — a topology bug, not a runtime
  /// condition).
  [[nodiscard]] std::unique_ptr<Testbed> build() const;
  /// Build the topology only — the caller owns bring_up().
  [[nodiscard]] std::unique_ptr<Testbed> build_deferred() const;
};

/// One router: kernel + Hobbit + sighost shard(s) + anand server.
struct Router {
  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<sig::AnandServerStub> anand_server;
  std::unique_ptr<sig::Sighost> sighost;  ///< shard 0 (the only one at 1)
  /// Shards 1..N-1 when the testbed was configured with shards(N).
  std::vector<std::unique_ptr<sig::Sighost>> extra_shards;
  atm::AtmSwitch* sw = nullptr;  ///< the switch this router attaches to

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return 1 + extra_shards.size();
  }
  /// Shard s, nullptr while crashed.
  [[nodiscard]] sig::Sighost* shard(std::size_t s) noexcept {
    return s == 0 ? sighost.get() : extra_shards.at(s - 1).get();
  }
};

/// One IP-connected host: kernel + anand client, homed on a router.
struct Host {
  std::unique_ptr<kern::Kernel> kernel;
  std::unique_ptr<sig::AnandClientStub> anand_client;
  Router* home = nullptr;
  std::unique_ptr<ip::IpLink> link;  ///< host↔router FDDI link
};

/// Post-run resource audit (§4 "frugal use of resources").
struct LeakReport {
  std::size_t network_vcs = 0;          ///< VCs beyond the signaling PVCs
  std::size_t sighost_outgoing = 0;
  std::size_t sighost_incoming = 0;
  std::size_t sighost_wait_bind = 0;
  std::size_t sighost_vci_mappings = 0;
  /// True when every call's state is fully reclaimed.
  [[nodiscard]] bool clean() const noexcept {
    return network_vcs == 0 && sighost_outgoing == 0 && sighost_incoming == 0 &&
           sighost_wait_bind == 0 && sighost_vci_mappings == 0;
  }
  [[nodiscard]] std::string describe() const;
};

/// The deployment builder/owner.
class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg = TestbedConfig{});
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] atm::AtmNetwork& network() noexcept { return *net_; }
  [[nodiscard]] const TestbedConfig& config() const noexcept { return cfg_; }

  // -- topology -------------------------------------------------------------
  atm::AtmSwitch& add_switch(const std::string& name);
  void connect_switches(atm::AtmSwitch& a, atm::AtmSwitch& b);
  /// Create a router attached to `sw`.  `atm_name` is its sighost address
  /// (e.g. "mh.rt"); `ip` its IP address.
  Router& add_router(const std::string& atm_name, ip::IpAddress ip,
                     atm::AtmSwitch& sw);
  /// Create a host homed on `via`, connected over a point-to-point IP link.
  Host& add_host(const std::string& name, ip::IpAddress ip, Router& via);

  /// Bring everything up: anand servers, sighosts, the PVC full mesh
  /// between routers, anand clients.  Then run the simulator briefly so all
  /// control connections establish.
  util::Result<void> bring_up();

  // -- access ----------------------------------------------------------------
  [[nodiscard]] Router& router(std::size_t i) { return *routers_.at(i); }
  [[nodiscard]] Host& host(std::size_t i) { return *hosts_.at(i); }
  [[nodiscard]] std::size_t router_count() const noexcept { return routers_.size(); }
  [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }

  // -- fault injection --------------------------------------------------------
  /// Install a wire-fault hook on every router's sighost (and remember it,
  /// so a restarted sighost gets it too).  Pass nullptr to clear.
  void set_wire_fault(sig::Sighost::WireFaultFn fn);

  /// Kill router i's sighost process(es) abruptly: their TCP listen
  /// sockets, application channels and signaling-PVC sockets all close;
  /// established data VCs (owned by application processes) keep flowing.
  /// With shards, every shard of the router dies together (a machine
  /// crash, not a single-process one).
  void crash_sighost(std::size_t i);

  /// Construct replacement sighost shard(s) on router i, re-provision
  /// their signaling PVC channels, and run crash recovery (kernel/network
  /// audit plus peer resync) per shard.  Requires crash_sighost(i) first.
  util::Result<void> restart_sighost(std::size_t i);

  // -- audits ------------------------------------------------------------------
  /// Count what calls left behind; copies nothing, so it is cheap at any
  /// call load.  core/audit.hpp cross-checks every live call's state.
  [[nodiscard]] LeakReport audit() const;

 private:
  /// One provisioned signaling-PVC pair, recorded so a restarted sighost
  /// can re-attach to the same well-known VCIs.
  struct PeerPvc {
    std::size_t other = 0;  ///< peer router index
    std::size_t shard = 0;  ///< owning sighost shard (both ends)
    atm::Vci send_vci = atm::kInvalidVci;
    atm::Vci recv_vci = atm::kInvalidVci;
  };

  TestbedConfig cfg_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<atm::AtmNetwork> net_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::vector<PeerPvc>> peer_pvcs_;  ///< by router index
  sig::Sighost::WireFaultFn wire_fault_;
  std::size_t pvc_count_ = 0;  ///< PVCs provisioned at bring-up
  atm::Vci next_pvc_vci_ = 1;
  bool up_ = false;
};

}  // namespace xunet::core
