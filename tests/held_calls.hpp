// held_calls.hpp — pathbench call_hold's shape as a test rig: 10^4 calls
// held live over a six-router chain with two sighost shards per router.
// Shared by the cross-layer audit and the held-call memory budget.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/apps.hpp"
#include "core/audit.hpp"
#include "core/testbed.hpp"

namespace xunet::held {

constexpr int kRouters = 6;
constexpr int kShards = 2;
constexpr int kPerPair = 2000;  ///< 5 pairs x 2000 = 10^4 live calls
constexpr std::uint64_t kCalls = (kRouters - 1) * kPerPair;

/// 10^4 calls held open with call_hold's cost config: pair p runs a client
/// on router p calling a server on router p+1, each pair opening one call
/// every 100 us, so every call crosses exactly one trunk.  Construction
/// builds the testbed and registers the servers; hold() places the calls.
struct HeldCalls {
  std::unique_ptr<core::Testbed> tb;
  std::vector<std::unique_ptr<core::CallServer>> servers;
  std::vector<std::unique_ptr<core::CallClient>> clients;
  core::WorkloadCounts counts;

  HeldCalls() {
    core::TestbedConfig cfg;
    cfg.kernel.fd_table_size = kPerPair * 2 + 2048;
    cfg.kernel.tcp_msl = sim::milliseconds(200);
    cfg.kernel.context_switch = sim::microseconds(10);
    cfg.kernel.anand_buffers = 65536;
    cfg.sighost.per_call_log_cost = sim::SimDuration{};
    cfg.sighost.maintenance_logging = false;
    cfg.sighost.max_outgoing_requests = 1u << 16;
    cfg.sighost.max_incoming_requests = 1u << 16;
    tb = cfg.routers(kRouters)
             .shards(kShards)
             .adjacent_pvc_only()
             .pvc_mesh()
             .build();
    for (std::size_t p = 0; p + 1 < kRouters; ++p) {
      core::Router& dst = tb->router(p + 1);
      servers.push_back(std::make_unique<core::CallServer>(
          *dst.kernel, dst.kernel->ip_node().address(), "hold", 5700, kShards));
      servers.back()->start([](util::Result<void>) {});
      core::Router& src = tb->router(p);
      clients.push_back(std::make_unique<core::CallClient>(
          *src.kernel, src.kernel->ip_node().address(), kShards));
    }
    tb->sim().run_for(sim::milliseconds(500));
  }

  /// Open every call and run until each has resolved and bound.
  void hold() {
    app::OpenOptions opts;
    opts.deadline = sim::seconds(60);
    opts.retry_backoff = sim::milliseconds(10);
    opts.retry_backoff_max = sim::milliseconds(200);
    auto on_open = [this](util::Result<core::CallClient::Call> r) {
      ++(r.ok() ? counts.delivered : counts.failed);
    };
    for (int i = 0; i < kPerPair; ++i) {
      for (std::size_t p = 0; p < clients.size(); ++p) {
        ++counts.opened;
        clients[p]->open(tb->router(p + 1).kernel->atm_address().name, "hold",
                         "", opts, on_open);
      }
      tb->sim().run_for(sim::microseconds(100));
    }
    for (int i = 0; i < 120 && resolved() < counts.opened; ++i) {
      tb->sim().run_for(sim::milliseconds(500));
    }
    tb->sim().run_for(sim::milliseconds(100));  // last binds confirm
    counts.unresolved = counts.opened - resolved();
  }

  [[nodiscard]] std::uint64_t resolved() const {
    return counts.delivered + counts.failed;
  }
};

}  // namespace xunet::held
