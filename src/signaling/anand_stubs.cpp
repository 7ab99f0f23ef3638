#include "signaling/anand_stubs.hpp"

#include <algorithm>

#include "atm/types.hpp"

namespace xunet::sig {

using util::Errc;

// ----------------------------------------------------------- AnandServerStub

AnandServerStub::AnandServerStub(kern::Kernel& router) : k_(router) {}

util::Result<void> AnandServerStub::start() {
  pid_ = k_.spawn("anand_server");
  auto anand_fd = k_.open_anand(pid_);
  if (!anand_fd) return anand_fd.error();
  anand_fd_ = *anand_fd;
  auto ctl = k_.proto_atm_socket(pid_);
  if (!ctl) return ctl.error();
  ctl_fd_ = *ctl;

  // Upward: block on select(); when unblocked, drain the device.
  (void)k_.anand_set_readable(pid_, anand_fd_, [this] { drain_device(); });

  auto lfd = k_.tcp_listen(pid_, kAnandServerPort, [this](int fd) {
    Conn c;
    c.fd = fd;
    c.framer = std::make_unique<StubFramer>(
        [this, fd](const StubMsg& m) { handle_conn_msg(conns_.at(fd), m); });
    auto [it, ok] = conns_.emplace(fd, std::move(c));
    (void)ok;
    (void)k_.tcp_on_receive(pid_, fd, [this, fd](util::BytesView data) {
      if (auto cit = conns_.find(fd); cit != conns_.end()) {
        cit->second.framer->feed(data);
      }
    });
    (void)k_.tcp_on_close(pid_, fd, [this, fd](util::Errc) {
      if (auto cit = conns_.find(fd); cit != conns_.end()) {
        if (cit->second.is_sighost) {
          for (int& sfd : sighost_fds_) {
            if (sfd == fd) sfd = -1;
          }
        }
        conns_.erase(cit);
      }
      (void)k_.close(pid_, fd);
    });
  });
  if (!lfd) return lfd.error();
  listen_fd_ = *lfd;
  return {};
}

void AnandServerStub::drain_device() {
  for (;;) {
    auto msg = k_.anand_read(pid_, anand_fd_);
    if (!msg) return;
    relay_up(*msg, ip::IpAddress{});  // origin 0 = the router itself
  }
}

void AnandServerStub::relay_up(const kern::AnandUpMsg& msg,
                               ip::IpAddress origin) {
  if (std::all_of(sighost_fds_.begin(), sighost_fds_.end(),
                  [](int fd) { return fd < 0; })) {
    return;  // no sighost attached yet: indication lost
  }
  obs::Observability& o = k_.simulator().obs();
  if (XOBS_TRACING(&o)) {
    obs::TraceIds ids;
    ids.vci = msg.vci;
    ids.pid = pid_;
    o.instant("stub", "anand.relay_up", k_.name(), std::move(ids));
  }
  StubMsg m;
  m.type = StubMsg::Type::up_indication;
  m.up_type = msg.type;
  m.vci = msg.vci;
  m.cookie = msg.cookie;
  m.machine = origin;
  // Sharded demux: a switched VCI belongs to exactly one shard by residue
  // arithmetic, so only the owner sees its indications (if that shard is
  // down the indication is lost, same as the unsharded attach race).
  // Sub-floor VCIs (PVCs, provisioned channels) fan out to every shard:
  // each sighost filters its own signaling sockets via pvc_vcis_.
  if (shard_count_ > 1 && msg.vci >= atm::kFirstSwitchedVci) {
    const int fd = sighost_fds_[msg.vci % shard_count_];
    if (fd >= 0) send_to(fd, m);
    return;
  }
  for (int fd : sighost_fds_) {
    if (fd >= 0) send_to(fd, m);
  }
}

void AnandServerStub::handle_conn_msg(Conn& c, const StubMsg& m) {
  switch (m.type) {
    case StubMsg::Type::hello_sighost: {
      c.is_sighost = true;
      // The hello carries the shard map: vci = shard_id, cookie =
      // shard_count.  A legacy hello (both zero) is shard 0 of 1.
      const std::uint16_t count = std::max<std::uint16_t>(m.cookie, 1);
      const std::uint16_t shard =
          static_cast<std::uint16_t>(m.vci % count);
      c.shard_id = shard;
      if (count != shard_count_) {
        shard_count_ = count;
        sighost_fds_.assign(count, -1);
      }
      sighost_fds_[shard] = c.fd;
      break;
    }
    case StubMsg::Type::hello_client:
      c.client_ip = k_.tcp_peer(pid_, c.fd);
      break;
    case StubMsg::Type::up_indication: {
      if (c.is_sighost) break;  // sighost never sends indications
      // §7.4: a bind indication from a host tells the anand server both the
      // destination IP address and the VCI; it installs the forwarding
      // state with a VCI_BIND control write before relaying upward.
      if (m.up_type == kern::AnandUpType::bind_indication && k_.is_router()) {
        (void)k_.proto_atm_vci_bind(pid_, ctl_fd_, m.vci, c.client_ip);
        vci_host_[m.vci] = c.client_ip;
      }
      kern::AnandUpMsg up;
      up.type = m.up_type;
      up.vci = m.vci;
      up.cookie = m.cookie;
      relay_up(up, c.client_ip);
      break;
    }
    case StubMsg::Type::down_disconnect:
      if (c.is_sighost) handle_down(m);
      break;
  }
}

void AnandServerStub::handle_down(const StubMsg& m) {
  obs::Observability& o = k_.simulator().obs();
  if (XOBS_TRACING(&o)) {
    obs::TraceIds ids;
    ids.vci = m.vci;
    ids.pid = pid_;
    o.instant("stub", "anand.relay_down", k_.name(), std::move(ids));
  }
  // Stop forwarding first: "the server then writes a VCI_SHUT message ...
  // so that no more data is forwarded to the remote host on that VCI."  A
  // VCI a host connected on was never VCI_BIND-ed, but the router holds
  // its IPPROTO_ATM and AAL5 state all the same, so it is shut too.
  const bool local = !m.machine.valid() || m.machine == k_.ip_node().address();
  if (vci_host_.erase(m.vci) > 0 || !local) {
    (void)k_.proto_atm_vci_shut(pid_, ctl_fd_, m.vci);
  }
  if (local) {
    // Local: write the router's pseudo-device; its write routine calls
    // soisdisconnected().
    (void)k_.anand_write(pid_, anand_fd_,
                         kern::AnandDownMsg{kern::AnandDownType::disconnect_socket,
                                            m.vci});
    return;
  }
  // Remote: relay to the anand client on that host.
  for (auto& [fd, c] : conns_) {
    if (!c.is_sighost && c.client_ip == m.machine) {
      send_to(fd, m);
      return;
    }
  }
}

void AnandServerStub::send_to(int fd, const StubMsg& m) {
  (void)k_.tcp_send(pid_, fd, serialize(m));
}

// ----------------------------------------------------------- AnandClientStub

AnandClientStub::AnandClientStub(kern::Kernel& host, ip::IpAddress router_ip)
    : k_(host), router_ip_(router_ip) {}

util::Result<void> AnandClientStub::start() {
  pid_ = k_.spawn("anand_client");

  // Boot-sequence duty: configure the host's IPPROTO_ATM forwarding router.
  auto ctl = k_.proto_atm_socket(pid_);
  if (!ctl) return ctl.error();
  (void)k_.proto_atm_set_router(pid_, *ctl, router_ip_);

  auto anand_fd = k_.open_anand(pid_);
  if (!anand_fd) return anand_fd.error();
  anand_fd_ = *anand_fd;

  auto fd = k_.tcp_connect(pid_, router_ip_, kAnandServerPort,
                           [this](util::Result<int> r) {
                             if (!r) {
                               server_fd_ = -1;
                               return;
                             }
                             framer_ = std::make_unique<StubFramer>(
                                 [this](const StubMsg& m) {
                                   if (m.type == StubMsg::Type::down_disconnect) {
                                     (void)k_.anand_write(
                                         pid_, anand_fd_,
                                         kern::AnandDownMsg{
                                             kern::AnandDownType::disconnect_socket,
                                             m.vci});
                                   }
                                 });
                             (void)k_.tcp_on_receive(
                                 pid_, server_fd_,
                                 [this](util::BytesView data) {
                                   if (framer_) framer_->feed(data);
                                 });
                             StubMsg hello;
                             hello.type = StubMsg::Type::hello_client;
                             (void)k_.tcp_send(pid_, server_fd_, serialize(hello));
                             // Deliver anything queued before the link came up.
                             drain_device();
                           });
  if (!fd) return fd.error();
  server_fd_ = *fd;

  (void)k_.anand_set_readable(pid_, anand_fd_, [this] { drain_device(); });
  return {};
}

void AnandClientStub::drain_device() {
  if (server_fd_ < 0) return;
  obs::Observability& o = k_.simulator().obs();
  for (;;) {
    auto msg = k_.anand_read(pid_, anand_fd_);
    if (!msg) return;
    if (XOBS_TRACING(&o)) {
      obs::TraceIds ids;
      ids.vci = msg->vci;
      ids.pid = pid_;
      o.instant("stub", "anand.relay_up", k_.name(), std::move(ids));
    }
    StubMsg m;
    m.up_type = msg->type;
    m.vci = msg->vci;
    m.cookie = msg->cookie;
    m.machine = k_.ip_node().address();
    (void)k_.tcp_send(pid_, server_fd_, serialize(m));
  }
}

}  // namespace xunet::sig
