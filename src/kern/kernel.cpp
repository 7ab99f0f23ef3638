#include "kern/kernel.hpp"

#include <algorithm>
#include <cassert>

namespace xunet::kern {

using util::Errc;

/// Frames a PF_XUNET socket buffer holds before dropping (the analogue of
/// a BSD socket's receive-buffer high-water mark).
constexpr std::size_t kXunetSocketBufferFrames = 64;

/// Syscall/upcall cost on the PF_XUNET data path (send and delivery).  Data
/// transfer does not reschedule another process, so this is small.
constexpr sim::SimDuration kDataSyscall = sim::microseconds(30);

Kernel::Kernel(sim::Simulator& sim, std::string name, Role role,
               ip::IpAddress ip_addr, atm::AtmAddress atm_addr,
               KernelConfig cfg)
    : sim_(sim),
      name_(std::move(name)),
      role_(role),
      atm_addr_(std::move(atm_addr)),
      cfg_(cfg),
      anand_(cfg.anand_buffers) {
  obs_ = &sim_.obs();
  obs::MetricsRegistry& mx = obs_->metrics();
  m_x_tx_ = &mx.counter("kern." + name_ + ".xunet.tx");
  m_x_rx_ = &mx.counter("kern." + name_ + ".xunet.rx");
  m_x_dropped_ = &mx.counter("kern." + name_ + ".xunet.dropped");
  ip_ = std::make_unique<ip::IpNode>(sim_, name_, ip_addr);
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.msl = cfg_.tcp_msl;
  tcp_ = std::make_unique<tcp::TcpLayer>(*ip_, tcp_cfg);
  udp_ = std::make_unique<ip::UdpLayer>(*ip_);
  orc_ = std::make_unique<OrcDriver>(instr_);
  orc_->bind_obs(obs_, name_);
  proto_atm_ = std::make_unique<ProtoAtm>(
      *ip_, instr_,
      role_ == Role::router ? ProtoAtm::Role::router : ProtoAtm::Role::host,
      atm_addr_, cfg_.mbuf_bytes, cfg_.encap_checksum);
  proto_atm_->set_orc(*orc_);
  orc_->set_default_handler([this](atm::Vci vci, MbufChain chain) {
    pf_xunet_input(vci, std::move(chain));
  });
  if (role_ == Role::host) {
    // On a host the Orc driver's output routine calls the encapsulation
    // routine instead of the Hobbit board (§7.4).
    orc_->set_output_target([this](atm::Vci vci, const MbufChain& chain) {
      return proto_atm_->encap_output(vci, chain);
    });
  }
  anand_.set_down_handler([this](const AnandDownMsg& msg) {
    if (msg.type == AnandDownType::disconnect_socket) {
      mark_vci_disconnected(msg.vci);
    }
  });
}

Kernel::~Kernel() = default;

util::Result<void> Kernel::attach_atm(atm::AtmNetwork& net, atm::AtmSwitch& sw,
                                      std::uint64_t rate_bps,
                                      sim::SimDuration propagation) {
  if (role_ != Role::router) return Errc::invalid_argument;
  if (hobbit_) return Errc::duplicate;
  hobbit_ = std::make_unique<HobbitInterface>(atm_addr_, cfg_.mbuf_bytes);
  hobbit_->bind_obs(obs_);
  auto uplink = net.attach_endpoint(atm_addr_, *hobbit_, sw, rate_bps,
                                    propagation);
  if (!uplink) {
    hobbit_.reset();
    return uplink.error();
  }
  hobbit_->connect_uplink(**uplink);
  hobbit_->set_frame_handler([this](atm::Vci vci, MbufChain chain) {
    orc_->input(vci, std::move(chain));
  });
  orc_->set_output_target([this](atm::Vci vci, const MbufChain& chain) {
    return hobbit_->send(vci, chain);
  });
  return {};
}

IpOverAtm& Kernel::add_ip_over_atm(atm::Vci send_vci, atm::Vci recv_vci,
                                   std::size_t mtu) {
  ipatm_ifs_.push_back(
      std::make_unique<IpOverAtm>(*this, send_vci, recv_vci, mtu));
  return *ipatm_ifs_.back();
}

// ---------------------------------------------------------------- processes

Kernel::Proc* Kernel::proc(Pid pid) {
  if (pid < 0 || static_cast<std::size_t>(pid) >= procs_.size()) return nullptr;
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  return p.alive ? &p : nullptr;
}

const Kernel::Proc* Kernel::proc(Pid pid) const {
  if (pid < 0 || static_cast<std::size_t>(pid) >= procs_.size()) return nullptr;
  const Proc& p = procs_[static_cast<std::size_t>(pid)];
  return p.alive ? &p : nullptr;
}

Pid Kernel::spawn(std::string proc_name) {
  Proc p;
  p.pid = static_cast<Pid>(procs_.size());
  p.name = std::move(proc_name);
  p.alive = true;
  procs_.push_back(std::move(p));
  return procs_.back().pid;
}

bool Kernel::alive(Pid pid) const { return proc(pid) != nullptr; }

std::size_t Kernel::live_process_count() const {
  std::size_t n = 0;
  for (const Proc& p : procs_) {
    if (p.alive) ++n;
  }
  return n;
}

std::size_t Kernel::fd_in_use(Pid pid) const {
  const Proc* p = proc(pid);
  if (p == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& d : p->fds) {
    if (d.has_value()) ++n;
  }
  return n;
}

util::Result<void> Kernel::exit_process(Pid pid) { return terminate(pid); }
util::Result<void> Kernel::kill_process(Pid pid) { return terminate(pid); }

util::Result<void> Kernel::terminate(Pid pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  p->alive = false;  // first: no further syscalls from this pid succeed
  for (int fd = 0; fd < static_cast<int>(p->fds.size()); ++fd) {
    if (p->fds[static_cast<std::size_t>(fd)].has_value()) {
      cleanup_descriptor(*p, fd, /*process_dying=*/true);
    }
  }
  return {};
}

util::Result<int> Kernel::alloc_fd(Proc& p, Descriptor d) {
  if (!p.free_slots.empty()) {
    auto it = p.free_slots.begin();
    const std::size_t i = *it;  // lowest free index — POSIX semantics
    p.free_slots.erase(it);
    p.fds[i] = d;
    return static_cast<int>(i);
  }
  if (p.fds.size() >= cfg_.fd_table_size) return Errc::too_many_files;
  p.fds.push_back(d);
  return static_cast<int>(p.fds.size()) - 1;
}

void Kernel::free_fd(Proc& p, int fd) {
  if (fd >= 0 && static_cast<std::size_t>(fd) < p.fds.size() &&
      p.fds[static_cast<std::size_t>(fd)].has_value()) {
    p.fds[static_cast<std::size_t>(fd)].reset();
    p.free_slots.insert(static_cast<std::size_t>(fd));
  }
}

util::Result<Kernel::Descriptor> Kernel::descriptor(
    Pid pid, int fd, std::optional<Descriptor::Kind> want) const {
  const Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  if (fd < 0 || static_cast<std::size_t>(fd) >= p->fds.size() ||
      !p->fds[static_cast<std::size_t>(fd)].has_value()) {
    return Errc::bad_fd;
  }
  Descriptor d = *p->fds[static_cast<std::size_t>(fd)];
  if (want.has_value() && d.kind != *want) return Errc::bad_fd;
  return d;
}

void Kernel::cleanup_descriptor(Proc& p, int fd, bool process_dying) {
  Descriptor d = *p.fds[static_cast<std::size_t>(fd)];
  switch (d.kind) {
    case Descriptor::Kind::tcp: {
      auto it = tsocks_.find(d.handle);
      if (it != tsocks_.end()) {
        TcpSock& ts = it->second;
        if (ts.listener) {
          tcp_->stop_listening(ts.listen_port);
          tsocks_.erase(it);
          free_fd(p, fd);
        } else if (process_dying) {
          // Abortive close: the kernel resets connections of a dead process.
          tcp::ConnId conn = ts.conn;
          tcp_by_conn_.erase(conn);
          tsocks_.erase(it);
          free_fd(p, fd);
          if (conn != 0) tcp_->abort(conn);
        } else if (ts.released) {
          // Connection already gone (reset): the close just frees the slot.
          tcp_by_conn_.erase(ts.conn);
          tsocks_.erase(it);
          free_fd(p, fd);
        } else if (!ts.app_closed) {
          // Orderly close: FIN now, but the descriptor slot stays occupied
          // until the connection fully leaves the state machine — including
          // 2×MSL of TIME_WAIT.  This is the paper's §10 fd-table pressure.
          // (A second close() of the same descriptor is a no-op.)
          ts.app_closed = true;
          // The application reads nothing more from a closed descriptor.
          ts.app_receive.reset();
          ts.pending_data = util::Buffer{};
          if (ts.conn != 0) {
            // The close syscall crosses into the kernel like a send does;
            // deferring it by the same latency keeps the FIN ordered after
            // any data the process wrote just before closing.
            sim_.schedule(cfg_.context_switch, [this, conn = ts.conn] {
              // A close that can no longer proceed (peer already reset us,
              // or we raced teardown) is ignored; abort is only for
              // connections that never reached the data states.
              (void)tcp_->close(conn);
            });
          } else {
            // Never established; nothing to linger on.
            tcp_by_conn_.erase(ts.conn);
            tsocks_.erase(it);
            free_fd(p, fd);
          }
        }
      } else {
        free_fd(p, fd);
      }
      break;
    }
    case Descriptor::Kind::xunet: {
      auto it = xsocks_.find(d.handle);
      if (it != xsocks_.end()) {
        close_xunet(it->first, it->second);
        xsocks_.erase(it);
      }
      free_fd(p, fd);
      break;
    }
    case Descriptor::Kind::anand: {
      anand_holder_ = -1;
      anand_.set_readable_handler({});
      free_fd(p, fd);
      if (XOBS_TRACING(obs_)) {
        obs::TraceIds ids;
        ids.fd = fd;
        ids.pid = p.pid;
        obs_->instant("kern", "anand.close", name_, std::move(ids));
      }
      break;
    }
    case Descriptor::Kind::proto_atm_raw: {
      free_fd(p, fd);
      break;
    }
  }
}

util::Result<void> Kernel::close(Pid pid, int fd) {
  Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  if (fd < 0 || static_cast<std::size_t>(fd) >= p->fds.size() ||
      !p->fds[static_cast<std::size_t>(fd)].has_value()) {
    return Errc::bad_fd;
  }
  cleanup_descriptor(*p, fd, /*process_dying=*/false);
  return {};
}

// -------------------------------------------------------------- TCP sockets

util::Result<int> Kernel::tcp_listen(Pid pid, std::uint16_t port,
                                     TcpAcceptFn on_accept) {
  Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  if (!on_accept) return Errc::invalid_argument;

  std::uint64_t handle = next_handle_++;
  auto fd = alloc_fd(*p, Descriptor{Descriptor::Kind::tcp, handle});
  if (!fd) return fd.error();

  auto r = tcp_->listen(port, [this, pid, on_accept](tcp::ConnId conn) {
    Proc* owner = proc(pid);
    if (owner == nullptr) {
      tcp_->abort(conn);
      return;
    }
    std::uint64_t h = next_handle_++;
    auto afd = alloc_fd(*owner, Descriptor{Descriptor::Kind::tcp, h});
    if (!afd) {
      // Descriptor table full: the §10 failure mode — the server cannot
      // accept further simultaneous establishes.
      tcp_->abort(conn);
      return;
    }
    TcpSock ts;
    ts.owner = pid;
    ts.fd = *afd;
    ts.conn = conn;
    tsocks_.emplace(h, std::move(ts));
    tcp_by_conn_.emplace(conn, h);
    attach_tcp_handlers(h, conn);
    sim_.schedule(cfg_.context_switch, [this, pid, on_accept, afd = *afd] {
      // Never upcall into a process that died while the wakeup was queued.
      if (alive(pid)) on_accept(afd);
    });
  });
  if (!r) {
    free_fd(*p, *fd);
    return r.error();
  }
  TcpSock ts;
  ts.owner = pid;
  ts.fd = *fd;
  ts.listener = true;
  ts.listen_port = port;
  tsocks_.emplace(handle, ts);
  return *fd;
}

util::Result<int> Kernel::tcp_connect(Pid pid, ip::IpAddress dst,
                                      std::uint16_t port, TcpResultFn on_done) {
  Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  if (!on_done) return Errc::invalid_argument;

  std::uint64_t handle = next_handle_++;
  auto fd = alloc_fd(*p, Descriptor{Descriptor::Kind::tcp, handle});
  if (!fd) return fd.error();

  auto conn = tcp_->connect(
      dst, port, [this, pid, handle, fd = *fd, on_done](util::Result<tcp::ConnId> r) {
        Proc* owner = proc(pid);
        auto it = tsocks_.find(handle);
        if (owner == nullptr || it == tsocks_.end()) return;  // died meanwhile
        if (!r) {
          tcp_by_conn_.erase(it->second.conn);
          tsocks_.erase(it);
          free_fd(*owner, fd);
          sim_.schedule(cfg_.context_switch, [this, pid, on_done, e = r.error()] {
            if (alive(pid)) on_done(e);
          });
          return;
        }
        it->second.connecting = false;
        sim_.schedule(cfg_.context_switch, [this, pid, on_done, fd] {
          if (alive(pid)) on_done(fd);
        });
      });
  if (!conn) {
    free_fd(*p, *fd);
    return conn.error();
  }
  TcpSock ts;
  ts.owner = pid;
  ts.fd = *fd;
  ts.conn = *conn;
  ts.connecting = true;
  tsocks_.emplace(handle, std::move(ts));
  tcp_by_conn_.emplace(*conn, handle);
  attach_tcp_handlers(handle, *conn);
  return *fd;
}

void Kernel::attach_tcp_handlers(std::uint64_t handle, tcp::ConnId conn) {
  // The kernel owns the TCP upcalls from the moment the connection exists;
  // data and close events that beat the application's handler registration
  // are buffered on the socket, never dropped.
  tcp_->set_released_handler(conn, [this](tcp::ConnId c) { tcp_released(c); });
  tcp_->set_receive_handler(conn, [this, handle](util::Buffer data) {
    auto it = tsocks_.find(handle);
    if (it == tsocks_.end()) return;
    TcpSock& ts = it->second;
    if (ts.app_closed) return;
    if (ts.app_receive) {
      deliver(ts.app_receive, std::move(data), cfg_.context_switch);
    } else if (ts.pending_data.empty()) {
      ts.pending_data = std::move(data);
    } else {
      ts.pending_data.insert(ts.pending_data.end(), data.begin(), data.end());
    }
  });
  tcp_->set_close_handler(conn, [this, handle](util::Errc reason) {
    auto it = tsocks_.find(handle);
    if (it == tsocks_.end()) return;
    TcpSock& ts = it->second;
    if (ts.app_close) {
      sim_.schedule(cfg_.context_switch,
                    [this, owner = ts.owner, fn = ts.app_close, reason] {
                      if (alive(owner)) fn(reason);
                    });
    } else {
      ts.pending_close = reason;
    }
  });
}

void Kernel::deliver(std::shared_ptr<const Receiver> to, util::Buffer data,
                     sim::SimDuration delay) {
  auto up = [this, to = std::move(to), data = std::move(data)] {
    if (alive(to->owner)) to->fn(data);
  };
  static_assert(sim::Simulator::stored_inline<decltype(up)>);
  sim_.schedule(delay, std::move(up));
}

void Kernel::tcp_released(tcp::ConnId conn) {
  auto bit = tcp_by_conn_.find(conn);
  if (bit == tcp_by_conn_.end()) return;
  std::uint64_t handle = bit->second;
  tcp_by_conn_.erase(bit);
  auto it = tsocks_.find(handle);
  if (it == tsocks_.end()) return;
  TcpSock& ts = it->second;
  ts.released = true;
  if (!ts.app_closed) {
    // The connection evaporated (reset) while the application still holds
    // the descriptor: keep the socket so buffered data and the close reason
    // remain observable; the slot frees when the application close()s.
    if (!ts.pending_close.has_value() && !ts.app_close) {
      ts.pending_close = util::Errc::connection_reset;
    }
    return;
  }
  // Free the descriptor slot now that the connection has fully left the
  // state machine (post-TIME_WAIT, or reset).
  if (Proc* p = proc(ts.owner)) free_fd(*p, ts.fd);
  tsocks_.erase(it);
}

util::Result<void> Kernel::tcp_send(Pid pid, int fd, util::BytesView data) {
  return tcp_send(pid, fd, util::to_buffer(data));
}

util::Result<void> Kernel::tcp_send(Pid pid, int fd, util::Buffer&& data) {
  auto d = descriptor(pid, fd, Descriptor::Kind::tcp);
  if (!d) return d.error();
  auto it = tsocks_.find(d->handle);
  if (it == tsocks_.end() || it->second.listener || it->second.app_closed) {
    return Errc::bad_fd;
  }
  if (it->second.conn == 0 || it->second.connecting) return Errc::not_connected;
  if (it->second.released) return Errc::connection_reset;
  // One user→kernel crossing, then the data enters the TCP send buffer.
  sim_.schedule(cfg_.context_switch,
                [this, conn = it->second.conn, buf = std::move(data)] {
                  (void)tcp_->send(conn, buf);
                });
  return {};
}

util::Result<void> Kernel::tcp_on_receive(Pid pid, int fd, DataFn fn) {
  auto d = descriptor(pid, fd, Descriptor::Kind::tcp);
  if (!d) return d.error();
  auto it = tsocks_.find(d->handle);
  if (it == tsocks_.end() || it->second.listener) return Errc::not_connected;
  TcpSock& ts = it->second;
  ts.app_receive =
      fn ? std::make_shared<const Receiver>(Receiver{ts.owner, std::move(fn)}) : nullptr;
  if (ts.app_receive && !ts.pending_data.empty()) {
    // Deliver whatever arrived before the handler existed.
    deliver(ts.app_receive, std::move(ts.pending_data), cfg_.context_switch);
    ts.pending_data.clear();
  }
  return {};
}

util::Result<void> Kernel::tcp_on_close(Pid pid, int fd, CloseFn fn) {
  auto d = descriptor(pid, fd, Descriptor::Kind::tcp);
  if (!d) return d.error();
  auto it = tsocks_.find(d->handle);
  if (it == tsocks_.end() || it->second.listener) return Errc::not_connected;
  TcpSock& ts = it->second;
  ts.app_close = std::move(fn);
  if (ts.pending_close.has_value()) {
    sim_.schedule(cfg_.context_switch,
                  [this, owner = ts.owner, fn = ts.app_close,
                   reason = *ts.pending_close] {
                    if (alive(owner)) fn(reason);
                  });
    ts.pending_close.reset();
  }
  return {};
}

ip::IpAddress Kernel::tcp_peer(Pid pid, int fd) const {
  auto d = descriptor(pid, fd, Descriptor::Kind::tcp);
  if (!d) return {};
  auto it = tsocks_.find(d->handle);
  if (it == tsocks_.end()) return {};
  return tcp_->peer_addr(it->second.conn);
}

std::size_t Kernel::fds_in_time_wait() const {
  std::size_t n = 0;
  for (const auto& [h, ts] : tsocks_) {
    if (ts.app_closed && ts.conn != 0 &&
        tcp_->state(ts.conn) == tcp::State::time_wait) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------- PF_XUNET sockets

util::Result<int> Kernel::xunet_socket(Pid pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  std::uint64_t handle = next_handle_++;
  auto fd = alloc_fd(*p, Descriptor{Descriptor::Kind::xunet, handle});
  if (!fd) return fd.error();
  XunetSock xs;
  xs.owner = pid;
  xs.fd = *fd;
  xsocks_.emplace(handle, std::move(xs));
  return *fd;
}

util::Result<void> Kernel::xunet_bind(Pid pid, int fd, atm::Vci vci,
                                      std::uint16_t cookie) {
  auto d = descriptor(pid, fd, Descriptor::Kind::xunet);
  if (!d) return d.error();
  XunetSock& xs = xsocks_.at(d->handle);
  if (xs.state != SocketState::created) return Errc::already_connected;
  if (vci == atm::kInvalidVci) return Errc::invalid_argument;
  if (bound_xsock(vci) != nullptr) return Errc::address_in_use;
  xs.state = SocketState::bound;
  xs.vci = vci;
  xs.cookie = cookie;
  xsocks_by_vci_.emplace(vci, d->handle);
  orc_->set_discard(vci, false);  // a new call lifts an old VCI_SHUT mark
  // "The kernel passes messages upwards ... when it binds or connects to a
  // PF_XUNET socket."  A full pseudo-device buffer silently loses this.
  (void)anand_.post(AnandUpMsg{AnandUpType::bind_indication, vci, cookie, pid});
  return {};
}

util::Result<void> Kernel::xunet_connect(Pid pid, int fd, atm::Vci vci,
                                         std::uint16_t cookie) {
  auto d = descriptor(pid, fd, Descriptor::Kind::xunet);
  if (!d) return d.error();
  XunetSock& xs = xsocks_.at(d->handle);
  if (xs.state != SocketState::created) return Errc::already_connected;
  if (vci == atm::kInvalidVci) return Errc::invalid_argument;
  xs.state = SocketState::connected;
  xs.vci = vci;
  xs.cookie = cookie;
  xsocks_by_vci_.emplace(vci, d->handle);
  orc_->set_discard(vci, false);
  (void)anand_.post(
      AnandUpMsg{AnandUpType::connect_indication, vci, cookie, pid});
  return {};
}

util::Result<void> Kernel::xunet_output(Pid pid, int fd, MbufChain chain) {
  auto d = descriptor(pid, fd, Descriptor::Kind::xunet);
  if (!d) return d.error();
  XunetSock& xs = xsocks_.at(d->handle);
  if (xs.state == SocketState::disconnected) return Errc::connection_reset;
  if (xs.state != SocketState::connected && xs.state != SocketState::bound) {
    return Errc::not_connected;
  }
  // Table 1 send row: PF_XUNET and Orc "simply call the next layer down
  // without touching the data or the header, thus incurring zero cost".
  m_x_tx_->inc();
  if (XOBS_TRACING(obs_)) {
    // The span is the user→kernel crossing of the send syscall.
    obs::TraceIds ids;
    ids.vci = xs.vci;
    ids.fd = fd;
    ids.pid = pid;
    obs_->complete(kDataSyscall, "kern", "xunet.send", name_, std::move(ids));
  }
  sim_.schedule(kDataSyscall, [this, vci = xs.vci, chain = std::move(chain)] {
    (void)orc_->output(vci, chain);
  });
  return {};
}

util::Result<void> Kernel::xunet_send(Pid pid, int fd, util::BytesView data) {
  return xunet_output(pid, fd, MbufChain::from_bytes(data, cfg_.mbuf_bytes));
}

util::Result<void> Kernel::xunet_send(Pid pid, int fd, util::Buffer&& data) {
  return xunet_output(pid, fd, MbufChain::adopt(std::move(data), cfg_.mbuf_bytes));
}

util::Result<void> Kernel::xunet_send_chain(Pid pid, int fd, MbufChain chain) {
  return xunet_output(pid, fd, std::move(chain));
}

util::Result<void> Kernel::xunet_on_receive(Pid pid, int fd, DataFn fn) {
  auto d = descriptor(pid, fd, Descriptor::Kind::xunet);
  if (!d) return d.error();
  XunetSock& xs = xsocks_.at(d->handle);
  xs.on_receive =
      fn ? std::make_shared<const Receiver>(Receiver{xs.owner, std::move(fn)}) : nullptr;
  if (!xs.on_receive) return {};
  // Drain anything sbappend()ed before the reader showed up, preserving
  // arrival order.
  for (util::Buffer& buf : xs.rx_queue) deliver(xs.on_receive, std::move(buf), kDataSyscall);
  xs.rx_queue.clear();
  return {};
}

util::Result<void> Kernel::xunet_on_disconnect(Pid pid, int fd,
                                               std::function<void()> fn) {
  auto d = descriptor(pid, fd, Descriptor::Kind::xunet);
  if (!d) return d.error();
  xsocks_.at(d->handle).on_disconnect = std::move(fn);
  return {};
}

bool Kernel::xunet_usable(Pid pid, int fd) const {
  auto d = descriptor(pid, fd, Descriptor::Kind::xunet);
  if (!d) return false;
  const XunetSock& xs = xsocks_.at(d->handle);
  return xs.state == SocketState::bound || xs.state == SocketState::connected;
}

void Kernel::pf_xunet_input(atm::Vci vci, MbufChain chain) {
  // Table 1 receive row: VCI-indexed PCB lookup, socket checks, sbappend,
  // reader wakeup, plus the per-mbuf chain walk.
  instr_.charge(InstrComponent::pf_xunet, InstrDir::receive,
                kPfxRecvPcbLookup + kPfxRecvSockChecks + kPfxRecvSbAppend +
                    kPfxRecvWakeup);
  instr_.charge(InstrComponent::pf_xunet, InstrDir::receive,
                kPerMbufWalk * chain.mbuf_count());
  XunetSock* bound = bound_xsock(vci);
  if (bound == nullptr) {
    ++x_dropped_;
    m_x_dropped_->inc();
    return;
  }
  XunetSock& xs = *bound;
  if (!xs.on_receive) {
    // sbappend: the process has not read yet; queue in the socket buffer.
    if (xs.rx_queue.size() >= kXunetSocketBufferFrames) {
      ++x_dropped_;  // socket buffer overflow, as a datagram socket would
      m_x_dropped_->inc();
      return;
    }
    xs.rx_queue.push_back(std::move(chain).take());
    m_x_rx_->inc();
    return;
  }
  m_x_rx_->inc();
  if (XOBS_TRACING(obs_)) {
    // The span is the kernel→user crossing delivering the frame.
    obs::TraceIds ids;
    ids.vci = vci;
    ids.fd = xs.fd;
    ids.pid = xs.owner;
    obs_->complete(kDataSyscall, "kern", "xunet.recv", name_, std::move(ids));
  }
  deliver(xs.on_receive, std::move(chain).take(), kDataSyscall);
}

Kernel::XunetSock* Kernel::bound_xsock(atm::Vci vci) {
  for (auto it = xsocks_by_vci_.lower_bound({vci, 0});
       it != xsocks_by_vci_.end() && it->first == vci; ++it) {
    XunetSock& xs = xsocks_.at(it->second);
    if (xs.state == SocketState::bound) return &xs;
  }
  return nullptr;
}

void Kernel::mark_vci_disconnected(atm::Vci vci) {
  // Hash order must not decide the order the on_disconnect callbacks are
  // scheduled in: the index visits the VCI's sockets by ascending handle.
  // soisdisconnected() also detaches each socket from its address, so the
  // VCI can be reused by a later call even while a dead socket lingers
  // unclosed.
  const auto first = xsocks_by_vci_.lower_bound({vci, 0});
  auto last = first;
  for (; last != xsocks_by_vci_.end() && last->first == vci; ++last) {
    XunetSock& xs = xsocks_.at(last->second);
    xs.state = SocketState::disconnected;
    if (xs.on_disconnect) {
      sim_.schedule(cfg_.context_switch,
                    [this, owner = xs.owner, fn = xs.on_disconnect] {
                      if (alive(owner)) fn();
                    });
    }
  }
  xsocks_by_vci_.erase(first, last);
  // The call on `vci` is gone: a later call on it starts with fresh AAL5
  // and IPPROTO_ATM sequence state.
  if (hobbit_) hobbit_->release_vc(vci);
  proto_atm_->release(vci);
}

std::vector<Kernel::XunetVciInfo> Kernel::audit_xunet_vcis() const {
  std::vector<XunetVciInfo> out;
  for (const auto& [h, xs] : xsocks_) {
    if (xs.vci == atm::kInvalidVci) continue;
    if (xs.state != SocketState::bound && xs.state != SocketState::connected) {
      continue;
    }
    if (!alive(xs.owner)) continue;
    out.push_back(XunetVciInfo{xs.vci, xs.cookie, xs.state, xs.owner});
  }
  std::sort(out.begin(), out.end(),
            [](const XunetVciInfo& a, const XunetVciInfo& b) {
              return a.vci < b.vci;
            });
  return out;
}

void Kernel::close_xunet(std::uint64_t handle, XunetSock& xs) {
  if (xs.vci != atm::kInvalidVci) {
    if (xs.state == SocketState::bound || xs.state == SocketState::connected) {
      xsocks_by_vci_.erase({xs.vci, handle});
      // "When either client or server closes a PF_XUNET socket, the
      // signaling entity will automatically tear down the associated call."
      // This is the only teardown trigger for the call — no watchdog
      // re-raises it — so it must survive a full anand buffer.
      post_durable(AnandUpMsg{AnandUpType::process_terminated, xs.vci,
                              xs.cookie, xs.owner});
    }
  }
  xs.state = SocketState::created;
}

void Kernel::post_durable(const AnandUpMsg& msg) {
  if (pending_up_.empty() && anand_.has_space() && anand_.post(msg)) return;
  pending_up_.push_back(msg);
  if (!pending_up_drain_armed_) {
    pending_up_drain_armed_ = true;
    sim_.schedule(cfg_.context_switch, [this] { drain_pending_up(); });
  }
}

void Kernel::drain_pending_up() {
  while (!pending_up_.empty() && anand_.has_space() &&
         anand_.post(pending_up_.front())) {
    pending_up_.pop_front();
  }
  pending_up_drain_armed_ = !pending_up_.empty();
  if (pending_up_drain_armed_) {
    sim_.schedule(cfg_.context_switch, [this] { drain_pending_up(); });
  }
}

// ------------------------------------------------------------------ /dev/anand

util::Result<int> Kernel::open_anand(Pid pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  if (anand_holder_ >= 0) return Errc::address_in_use;
  auto fd = alloc_fd(*p, Descriptor{Descriptor::Kind::anand, next_handle_++});
  if (!fd) return fd.error();
  anand_holder_ = pid;
  if (XOBS_TRACING(obs_)) {
    obs::TraceIds ids;
    ids.fd = *fd;
    ids.pid = pid;
    obs_->instant("kern", "anand.open", name_, std::move(ids));
  }
  return *fd;
}

util::Result<AnandUpMsg> Kernel::anand_read(Pid pid, int fd) {
  auto d = descriptor(pid, fd, Descriptor::Kind::anand);
  if (!d) return d.error();
  auto r = anand_.read();
  if (r && XOBS_TRACING(obs_)) {
    obs::TraceIds ids;
    ids.vci = r->vci;
    ids.fd = fd;
    ids.pid = pid;
    obs_->instant("kern", "anand.read", name_, std::move(ids));
  }
  return r;
}

util::Result<void> Kernel::anand_set_readable(Pid pid, int fd,
                                              std::function<void()> fn) {
  auto d = descriptor(pid, fd, Descriptor::Kind::anand);
  if (!d) return d.error();
  anand_.set_readable_handler([this, pid, fn = std::move(fn)] {
    // select() wakeup: the blocked reader is scheduled back in.
    sim_.schedule(cfg_.context_switch, [this, pid, fn] {
      if (alive(pid)) fn();
    });
  });
  return {};
}

util::Result<void> Kernel::anand_write(Pid pid, int fd,
                                       const AnandDownMsg& msg) {
  auto d = descriptor(pid, fd, Descriptor::Kind::anand);
  if (!d) return d.error();
  if (XOBS_TRACING(obs_)) {
    obs::TraceIds ids;
    ids.vci = msg.vci;
    ids.fd = fd;
    ids.pid = pid;
    obs_->instant("kern", "anand.write", name_, std::move(ids));
  }
  // User→kernel crossing, then the device write routine runs.
  sim_.schedule(cfg_.context_switch, [this, msg] { anand_.write(msg); });
  return {};
}

// -------------------------------------------------- raw IPPROTO_ATM control

util::Result<int> Kernel::proto_atm_socket(Pid pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Errc::not_found;
  return alloc_fd(*p, Descriptor{Descriptor::Kind::proto_atm_raw, next_handle_++});
}

util::Result<void> Kernel::proto_atm_set_router(Pid pid, int fd,
                                                ip::IpAddress router) {
  auto d = descriptor(pid, fd, Descriptor::Kind::proto_atm_raw);
  if (!d) return d.error();
  proto_atm_->control_set_router(router);
  return {};
}

util::Result<void> Kernel::proto_atm_vci_bind(Pid pid, int fd, atm::Vci vci,
                                              ip::IpAddress host) {
  auto d = descriptor(pid, fd, Descriptor::Kind::proto_atm_raw);
  if (!d) return d.error();
  if (role_ != Role::router) return Errc::invalid_argument;
  proto_atm_->control_vci_bind(vci, host);
  return {};
}

util::Result<void> Kernel::proto_atm_vci_shut(Pid pid, int fd, atm::Vci vci) {
  auto d = descriptor(pid, fd, Descriptor::Kind::proto_atm_raw);
  if (!d) return d.error();
  if (role_ != Role::router) return Errc::invalid_argument;
  // VCI_SHUT is how the router learns that a host's call on `vci` is gone.
  proto_atm_->control_vci_shut(vci);
  if (hobbit_) hobbit_->release_vc(vci);
  return {};
}

}  // namespace xunet::kern
