#include "core/audit.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/testbed.hpp"

namespace xunet::core {

namespace {

std::string vci_str(atm::Vci v) { return std::to_string(static_cast<int>(v)); }

/// A (name, VCI) pair: a sighost's call record, a machine's socket, or one
/// end of a network VC.
using Key = std::pair<std::string_view, atm::Vci>;

/// Does any element carry this key?  `keys` is sorted; two elements that
/// share one key both find it.
bool has(const std::vector<Key>& keys, std::string_view name, atm::Vci vci) {
  return std::binary_search(keys.begin(), keys.end(), Key{name, vci});
}

}  // namespace

Snapshot capture(Testbed& tb) {
  Snapshot snap;

  // Endpoint resolution: IP address -> machine name, machine -> sighost.
  std::unordered_map<std::uint32_t, std::string> machine_by_ip;
  for (std::size_t i = 0; i < tb.router_count(); ++i) {
    kern::Kernel& k = *tb.router(i).kernel;
    machine_by_ip[k.ip_node().address().value] = k.name();
  }
  for (std::size_t i = 0; i < tb.host_count(); ++i) {
    kern::Kernel& k = *tb.host(i).kernel;
    machine_by_ip[k.ip_node().address().value] = k.name();
  }

  auto add_kernel = [&snap](kern::Kernel& k, const std::string& sighost) {
    for (const kern::Kernel::XunetVciInfo& s : k.audit_xunet_vcis()) {
      if (s.vci < atm::kFirstSwitchedVci) continue;  // signaling PVCs
      snap.kernel_vcis.push_back(
          {k.name(), sighost, s.vci, s.state == kern::SocketState::bound});
    }
  };

  for (std::size_t i = 0; i < tb.router_count(); ++i) {
    Router& r = tb.router(i);
    const std::string name = r.kernel->atm_address().name;
    add_kernel(*r.kernel, name);

    SighostView sv;
    sv.name = name;
    // Shards crash and restart together (a machine crash, not a process
    // one), so the router's view is alive only when every shard is.
    sv.alive = true;
    for (std::size_t s = 0; s < r.shard_count(); ++s) {
      if (r.shard(s) == nullptr) sv.alive = false;
    }
    if (sv.alive) {
      // Merge the shards into one per-router view: shards partition the
      // switched VCI space, so concatenating their lists loses nothing,
      // and sorting restores the deterministic order the checker needs.
      const std::size_t first = snap.call_records.size();
      for (std::size_t s = 0; s < r.shard_count(); ++s) {
        sig::Sighost::ListSnapshot lists = r.shard(s)->audit_snapshot();
        sv.outgoing_calls.insert(sv.outgoing_calls.end(),
                                 lists.outgoing_calls.begin(),
                                 lists.outgoing_calls.end());
        sv.incoming_calls.insert(sv.incoming_calls.end(),
                                 lists.incoming_calls.begin(),
                                 lists.incoming_calls.end());
        sv.wait_for_bind.insert(sv.wait_for_bind.end(),
                                lists.wait_for_bind.begin(),
                                lists.wait_for_bind.end());
        for (sig::Sighost::VciAuditEntry& e : lists.vci_mapping) {
          auto it = e.endpoint_ip.valid()
                        ? machine_by_ip.find(e.endpoint_ip.value)
                        : machine_by_ip.end();
          snap.call_records.push_back(
              {name, e.vci, std::move(e.call_key), e.confirmed, e.recovered,
               it != machine_by_ip.end() ? it->second : r.kernel->name()});
        }
      }
      std::sort(sv.outgoing_calls.begin(), sv.outgoing_calls.end());
      std::sort(sv.incoming_calls.begin(), sv.incoming_calls.end());
      std::sort(sv.wait_for_bind.begin(), sv.wait_for_bind.end());
      std::sort(snap.call_records.begin() + static_cast<std::ptrdiff_t>(first),
                snap.call_records.end(),
                [](const CallRecordView& a, const CallRecordView& b) {
                  return a.vci < b.vci;
                });
    }
    snap.sighosts.push_back(std::move(sv));
  }
  for (std::size_t i = 0; i < tb.host_count(); ++i) {
    Host& h = tb.host(i);
    add_kernel(*h.kernel, h.home->kernel->atm_address().name);
  }

  for (const atm::AtmNetwork::VcSummary& v : tb.network().audit_all_vcs()) {
    if (v.src_vci < atm::kFirstSwitchedVci) continue;  // signaling PVCs
    snap.vcs.push_back({v.id, v.src.name, v.dst.name, v.src_vci, v.dst_vci});
  }

  for (std::size_t i = 0; i < tb.router_count(); ++i) {
    atm::AtmSwitch* sw = tb.router(i).sw;
    if (sw == nullptr) continue;
    for (const atm::AtmSwitch::RouteInfo& r : sw->route_table()) {
      snap.routes_installed.push_back({sw->name(), r.in_port, r.in_vci});
    }
  }
  for (const atm::AtmNetwork::RouteAudit& r : tb.network().audit_routes()) {
    snap.routes_expected.push_back({r.sw, r.in_port, r.in_vci});
  }
  std::sort(snap.routes_installed.begin(), snap.routes_installed.end());
  std::sort(snap.routes_expected.begin(), snap.routes_expected.end());

  for (const atm::AtmNetwork::ReservationAudit& r :
       tb.network().audit_reservations()) {
    snap.reservations.push_back(
        {r.sw, r.port, r.reserved_bps, r.capacity_bps});
  }
  return snap;
}

std::vector<Violation> check(const Snapshot& snap,
                             const WorkloadCounts& workload) {
  std::vector<Violation> out;
  auto add = [&out](const char* rule, std::string detail) {
    out.push_back({rule, std::move(detail)});
  };

  // Sorted keys for every cross-layer lookup.
  std::vector<Key> records, sockets, vc_ends;
  for (const CallRecordView& cr : snap.call_records) {
    records.emplace_back(cr.sighost, cr.vci);
  }
  for (const KernelVciView& kv : snap.kernel_vcis) {
    sockets.emplace_back(kv.machine, kv.vci);
  }
  for (const VcView& vc : snap.vcs) {
    vc_ends.emplace_back(vc.src, vc.src_vci);
    vc_ends.emplace_back(vc.dst, vc.dst_vci);
  }
  for (std::vector<Key>* keys : {&records, &sockets, &vc_ends}) {
    std::sort(keys->begin(), keys->end());
  }
  // Crashed or unknown sighosts are skipped: their lists are unknowable.
  // The first view of a name decides.
  std::map<std::string_view, bool> alive;
  for (const SighostView& s : snap.sighosts) alive.try_emplace(s.name, s.alive);
  auto live = [&alive](std::string_view name) {
    auto it = alive.find(name);
    return it != alive.end() && it->second;
  };

  // 1. Every live data socket must be backed by a sighost call record: a
  //    socket without one can never be torn down by signaling.
  for (const KernelVciView& kv : snap.kernel_vcis) {
    if (live(kv.sighost) && !has(records, kv.sighost, kv.vci)) {
      add(kOrphanKernelVci, "machine=" + kv.machine + " vci=" +
                                vci_str(kv.vci) +
                                (kv.bound ? " side=bound" : " side=connected") +
                                " sighost=" + kv.sighost);
    }
  }

  // 2. Every confirmed call record must have (a) the data socket it claims
  //    was bound/connected and (b) a network VC carrying it.
  for (const CallRecordView& cr : snap.call_records) {
    if (!cr.confirmed) continue;
    if (!has(sockets, cr.endpoint_machine, cr.vci)) {
      add(kMissingKernelSocket, "sighost=" + cr.sighost + " vci=" +
                                    vci_str(cr.vci) + " call=" + cr.call_key +
                                    " endpoint=" + cr.endpoint_machine);
    }
    if (!has(vc_ends, cr.sighost, cr.vci)) {
      add(kOrphanCallRecord, "sighost=" + cr.sighost + " vci=" +
                                 vci_str(cr.vci) + " call=" + cr.call_key +
                                 " has no network VC");
    }
  }

  // 3. Every switched VC must be claimed by a call record at both live ends
  //    (an unclaimed VC holds bandwidth reservations forever).
  for (const VcView& vc : snap.vcs) {
    if (live(vc.src) && !has(records, vc.src, vc.src_vci)) {
      add(kOrphanNetworkVc, "vc=" + std::to_string(vc.id) + " side=src" +
                                " sighost=" + vc.src +
                                " vci=" + vci_str(vc.src_vci));
    }
    if (live(vc.dst) && !has(records, vc.dst, vc.dst_vci)) {
      add(kOrphanNetworkVc, "vc=" + std::to_string(vc.id) + " side=dst" +
                                " sighost=" + vc.dst +
                                " vci=" + vci_str(vc.dst_vci));
    }
  }

  // 4. Switch tables and the controller's route ownership must agree
  //    exactly, both directions.
  std::vector<RouteView> diff;
  std::set_difference(snap.routes_installed.begin(),
                      snap.routes_installed.end(),
                      snap.routes_expected.begin(), snap.routes_expected.end(),
                      std::back_inserter(diff));
  for (const RouteView& r : diff) {
    add(kDanglingSwitchRoute, "sw=" + r.sw + " in_port=" +
                                  std::to_string(r.in_port) +
                                  " in_vci=" + vci_str(r.in_vci));
  }
  diff.clear();
  std::set_difference(snap.routes_expected.begin(), snap.routes_expected.end(),
                      snap.routes_installed.begin(),
                      snap.routes_installed.end(), std::back_inserter(diff));
  for (const RouteView& r : diff) {
    add(kMissingSwitchRoute, "sw=" + r.sw + " in_port=" +
                                 std::to_string(r.in_port) +
                                 " in_vci=" + vci_str(r.in_vci));
  }

  // 5. Five-list exclusivity: one call key must never sit on both request
  //    lists of one sighost.
  for (const SighostView& sv : snap.sighosts) {
    if (!sv.alive) continue;
    std::vector<std::string_view> incoming(sv.incoming_calls.begin(),
                                           sv.incoming_calls.end());
    std::sort(incoming.begin(), incoming.end());
    for (const std::string& key : sv.outgoing_calls) {
      if (std::binary_search(incoming.begin(), incoming.end(),
                             std::string_view(key))) {
        add(kDoubleListedCall, "sighost=" + sv.name + " call=" + key);
      }
    }
  }

  // 6. Call conservation: every open resolves exactly once.
  if (workload.multi_fired > 0) {
    add(kCallConservation,
        "multi_fired=" + std::to_string(workload.multi_fired));
  }
  if (workload.delivered + workload.failed + workload.unresolved !=
      workload.opened) {
    add(kCallConservation,
        "opened=" + std::to_string(workload.opened) +
            " delivered=" + std::to_string(workload.delivered) +
            " failed=" + std::to_string(workload.failed) +
            " unresolved=" + std::to_string(workload.unresolved));
  }

  // 7. QoS conservation: at quiescence the sum of granted guaranteed
  //    bandwidth on any trunk must not exceed its capacity — whatever
  //    crashes, trunk flaps and recoveries the run injected, admission
  //    control must never have double-granted a reservation it later
  //    could not unwind.  (Ports with no output link carry no traffic and
  //    can hold no reservation worth checking.)
  for (const ReservationView& rv : snap.reservations) {
    if (rv.capacity_bps == 0) continue;
    if (rv.reserved_bps > rv.capacity_bps) {
      add(kQosOvercommit,
          "sw=" + rv.sw + " port=" + std::to_string(rv.port) +
              " reserved=" + std::to_string(rv.reserved_bps) +
              " capacity=" + std::to_string(rv.capacity_bps));
    }
  }

  // 8. Liveness: once faults heal, nothing may still be pending.
  if (workload.unresolved > 0) {
    add(kLiveness, "opens unresolved at quiescence: " +
                       std::to_string(workload.unresolved));
  }
  for (const SighostView& sv : snap.sighosts) {
    if (!sv.alive) {
      add(kLiveness, "sighost=" + sv.name + " down at quiescence");
      continue;
    }
    if (!sv.outgoing_calls.empty()) {
      add(kLiveness, "sighost=" + sv.name + " outgoing_requests=" +
                         std::to_string(sv.outgoing_calls.size()));
    }
    if (!sv.incoming_calls.empty()) {
      add(kLiveness, "sighost=" + sv.name + " incoming_requests=" +
                         std::to_string(sv.incoming_calls.size()));
    }
    if (!sv.wait_for_bind.empty()) {
      add(kLiveness, "sighost=" + sv.name + " wait_for_bind=" +
                         std::to_string(sv.wait_for_bind.size()));
    }
  }
  for (const CallRecordView& cr : snap.call_records) {
    if (!cr.confirmed) {
      add(kLiveness, "sighost=" + cr.sighost + " vci=" + vci_str(cr.vci) +
                         " unconfirmed at quiescence");
    }
  }

  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace xunet::core
