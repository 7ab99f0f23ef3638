// anand_stubs.hpp — the anand server (router) and anand client (host)
// processes (§7.2, §7.4).
//
// anand server: holds the router's /dev/anand, accepts TCP connections from
// sighost and from anand clients on IP hosts, relays indications upward and
// disconnect requests downward, and manages the router's VCI_BIND/VCI_SHUT
// forwarding state for host-bound VCIs.
//
// anand client: holds a host's /dev/anand, configures the host's
// IPPROTO_ATM forwarding router at startup ("the default forwarding
// decision can be set by putting anand client in the boot sequence"),
// relays the host kernel's indications to the anand server, and applies
// downward disconnects to the host kernel.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "kern/kernel.hpp"
#include "signaling/stub_proto.hpp"

namespace xunet::sig {

/// The router-side stub.
class AnandServerStub {
 public:
  explicit AnandServerStub(kern::Kernel& router);

  /// Spawn the process, open /dev/anand and the control socket, listen.
  util::Result<void> start();

  /// VCIs currently VCI_BINDed to hosts (leak audits).
  [[nodiscard]] std::size_t forwarded_vci_count() const noexcept {
    return vci_host_.size();
  }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }

 private:
  struct Conn {
    int fd = -1;
    bool is_sighost = false;
    std::uint16_t shard_id = 0;  ///< for sighost conns (hello carries it)
    ip::IpAddress client_ip;  ///< for anand clients
    std::unique_ptr<StubFramer> framer;
  };

  void drain_device();
  void relay_up(const kern::AnandUpMsg& msg, ip::IpAddress origin);
  void handle_conn_msg(Conn& c, const StubMsg& m);
  void handle_down(const StubMsg& m);
  void send_to(int fd, const StubMsg& m);

  kern::Kernel& k_;
  kern::Pid pid_ = -1;
  int listen_fd_ = -1;
  int anand_fd_ = -1;
  int ctl_fd_ = -1;  ///< raw IPPROTO_ATM socket for VCI_BIND/VCI_SHUT
  std::map<int, Conn> conns_;
  /// Attached sighost shards, slot s = the shard owning vci % shard_count_
  /// == s (-1 when that shard has not said hello / has disconnected).
  /// Single-shard topologies degenerate to one slot, the classic wiring.
  std::vector<int> sighost_fds_ = {-1};
  std::uint16_t shard_count_ = 1;
  std::map<std::uint16_t, ip::IpAddress> vci_host_;  ///< VCI → remote host
};

/// The host-side stub.
class AnandClientStub {
 public:
  AnandClientStub(kern::Kernel& host, ip::IpAddress router_ip);

  /// Spawn the process, configure IPPROTO_ATM forwarding, open /dev/anand,
  /// connect to the anand server.
  util::Result<void> start();

  [[nodiscard]] bool connected() const noexcept { return server_fd_ >= 0; }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }

 private:
  void drain_device();

  kern::Kernel& k_;
  ip::IpAddress router_ip_;
  kern::Pid pid_ = -1;
  int anand_fd_ = -1;
  int server_fd_ = -1;
  std::unique_ptr<StubFramer> framer_;
};

}  // namespace xunet::sig
