#include "tcpsim/tcp.hpp"

#include <cassert>

namespace xunet::tcp {

using util::Errc;

namespace {

constexpr sim::SimDuration kRto = sim::milliseconds(500);  ///< retransmit timeout
constexpr std::size_t kMss = 1400;  ///< max segment payload
constexpr int kMaxRetransmits = 8;  ///< then reset the connection

/// Wrap-safe sequence comparison (RFC 793 arithmetic).
[[nodiscard]] bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
[[nodiscard]] bool seq_leq(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace

std::string_view to_string(State s) noexcept {
  switch (s) {
    case State::closed: return "CLOSED";
    case State::listen: return "LISTEN";
    case State::syn_sent: return "SYN_SENT";
    case State::syn_rcvd: return "SYN_RCVD";
    case State::established: return "ESTABLISHED";
    case State::fin_wait_1: return "FIN_WAIT_1";
    case State::fin_wait_2: return "FIN_WAIT_2";
    case State::close_wait: return "CLOSE_WAIT";
    case State::last_ack: return "LAST_ACK";
    case State::closing: return "CLOSING";
    case State::time_wait: return "TIME_WAIT";
  }
  return "?";
}

TcpLayer::TcpLayer(ip::IpNode& node, TcpConfig cfg)
    : node_(node), cfg_(cfg) {
  node_.register_protocol(ip::IpProto::tcp,
                          [this](ip::IpPacket&& p) { segment_arrival(std::move(p)); });
}

TcpLayer::~TcpLayer() = default;

TcpLayer::Conn* TcpLayer::find(ConnId id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

const TcpLayer::Conn* TcpLayer::find(ConnId id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void TcpLayer::add_tuple(const Conn& c) {
  if (by_tuple_.emplace(c.tuple, c.id).second) ++port_refs_[c.tuple.local_port];
}

void TcpLayer::drop_tuple(const Conn& c) {
  if (by_tuple_.erase(c.tuple) == 0) return;
  auto it = port_refs_.find(c.tuple.local_port);
  assert(it != port_refs_.end() && it->second > 0);
  if (--it->second == 0) port_refs_.erase(it);
}

std::uint16_t TcpLayer::alloc_ephemeral_port() {
  for (int attempts = 0; attempts < 64 * 1024; ++attempts) {
    std::uint16_t p = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? 10'000 : next_ephemeral_ + 1;
    if (!listeners_.contains(p) && !port_refs_.contains(p)) return p;
  }
  return 0;
}

util::Result<void> TcpLayer::listen(std::uint16_t port, AcceptHandler on_accept) {
  if (port == 0 || !on_accept) return Errc::invalid_argument;
  if (listeners_.contains(port)) return Errc::address_in_use;
  listeners_.emplace(port, std::move(on_accept));
  return {};
}

void TcpLayer::stop_listening(std::uint16_t port) { listeners_.erase(port); }

util::Result<ConnId> TcpLayer::connect(ip::IpAddress dst,
                                       std::uint16_t dst_port,
                                       ConnectHandler on_done) {
  if (!dst.valid() || dst_port == 0 || !on_done) return Errc::invalid_argument;
  std::uint16_t sport = alloc_ephemeral_port();
  if (sport == 0) return Errc::no_resources;

  auto conn = std::make_unique<Conn>(node_.simulator());
  Conn& c = *conn;
  c.id = next_id_++;
  c.tuple = TupleKey{dst, dst_port, sport};
  c.state = State::syn_sent;
  std::uint32_t iss = next_iss_;
  next_iss_ += 0x10000;
  c.snd_una = iss;
  c.snd_nxt = iss + 1;
  c.on_connect = std::move(on_done);
  add_tuple(c);
  ConnId id = c.id;
  conns_.emplace(id, std::move(conn));

  emit(c, Flags{.syn = true}, iss);
  arm_rto(c);
  return id;
}

void TcpLayer::emit(Conn& c, Flags flags, std::uint32_t seq,
                    std::size_t offset, std::size_t n) {
  Segment s;
  s.src_port = c.tuple.local_port;
  s.dst_port = c.tuple.peer_port;
  s.seq = seq;
  s.flags = flags;
  if (flags.ack) s.ack = c.rcv_nxt;
  s.window = static_cast<std::uint16_t>(cfg_.window_bytes / 1024);
  util::Writer w = write_header(s, n);
  w.bytes(util::BytesView(c.send_buf).subspan(c.send_head + offset, n));
  ++segments_sent_;
  (void)node_.send(c.tuple.peer, ip::IpProto::tcp, w.take());
}

void TcpLayer::send_rst(ip::IpAddress dst, std::uint16_t dst_port,
                        std::uint16_t src_port, std::uint32_t seq,
                        std::uint32_t ack) {
  Segment s;
  s.src_port = src_port;
  s.dst_port = dst_port;
  s.seq = seq;
  s.ack = ack;
  s.flags = Flags{.ack = true, .rst = true};
  ++segments_sent_;
  (void)node_.send(dst, ip::IpProto::tcp, serialize(s));
}

util::Result<void> TcpLayer::send(ConnId id, util::BytesView data) {
  Conn* c = find(id);
  if (c == nullptr) return Errc::bad_fd;
  if (c->state != State::established && c->state != State::close_wait) {
    return Errc::not_connected;
  }
  if (c->fin_queued) return Errc::not_connected;
  c->send_buf.insert(c->send_buf.end(), data.begin(), data.end());
  pump(*c);
  return {};
}

void TcpLayer::set_receive_handler(ConnId id, ReceiveHandler h) {
  if (Conn* c = find(id)) {
    c->on_receive = h ? std::make_shared<const ReceiveHandler>(std::move(h)) : nullptr;
  }
}
void TcpLayer::set_close_handler(ConnId id, CloseHandler h) {
  if (Conn* c = find(id)) c->on_close = std::move(h);
}
void TcpLayer::set_released_handler(ConnId id, ReleasedHandler h) {
  if (Conn* c = find(id)) c->on_released = std::move(h);
}

util::Result<void> TcpLayer::close(ConnId id) {
  Conn* c = find(id);
  if (c == nullptr) return Errc::bad_fd;
  switch (c->state) {
    case State::syn_sent:
    case State::syn_rcvd:
      abort(id);
      return {};
    case State::established:
      c->fin_queued = true;
      c->state = State::fin_wait_1;
      pump(*c);
      return {};
    case State::close_wait:
      c->fin_queued = true;
      c->state = State::last_ack;
      pump(*c);
      return {};
    default:
      return Errc::not_connected;
  }
}

void TcpLayer::abort(ConnId id) {
  Conn* c = find(id);
  if (c == nullptr) return;
  if (c->state != State::time_wait && c->state != State::listen) {
    send_rst(c->tuple.peer, c->tuple.peer_port, c->tuple.local_port,
             c->snd_nxt, c->rcv_nxt);
  }
  report_close(*c, Errc::connection_reset);
  release(id);
}

State TcpLayer::state(ConnId id) const {
  const Conn* c = find(id);
  return c == nullptr ? State::closed : c->state;
}

std::size_t TcpLayer::count_in_state(State s) const {
  std::size_t n = 0;
  for (const auto& [id, c] : conns_) {
    if (c->state == s) ++n;
  }
  return n;
}

ip::IpAddress TcpLayer::peer_addr(ConnId id) const {
  const Conn* c = find(id);
  return c == nullptr ? ip::IpAddress{} : c->tuple.peer;
}

std::uint16_t TcpLayer::local_port(ConnId id) const {
  const Conn* c = find(id);
  return c == nullptr ? 0 : c->tuple.local_port;
}

void TcpLayer::pump(Conn& c) {
  const std::size_t in_flight = c.snd_nxt - c.snd_una - (c.fin_sent ? 1 : 0);
  std::size_t offset = in_flight;
  bool sent_any = false;
  const std::size_t queued = c.send_buf.size() - c.send_head;
  while (offset < queued && (c.snd_nxt - c.snd_una) < cfg_.window_bytes) {
    const std::size_t n = std::min(kMss, queued - offset);
    emit(c, Flags{.ack = true}, c.snd_nxt, offset, n);
    c.snd_nxt += static_cast<std::uint32_t>(n);
    offset += n;
    sent_any = true;
  }
  if (c.fin_queued && !c.fin_sent && offset == queued) {
    c.fin_seq = c.snd_nxt;
    emit(c, Flags{.ack = true, .fin = true}, c.snd_nxt);
    c.snd_nxt += 1;
    c.fin_sent = true;
    sent_any = true;
  }
  if (sent_any && !c.rto_timer.armed()) arm_rto(c);
}

void TcpLayer::arm_rto(Conn& c) {
  ConnId id = c.id;
  c.rto_timer.arm(kRto, [this, id] { on_rto(id); });
}

void TcpLayer::on_rto(ConnId id) {
  Conn* c = find(id);
  if (c == nullptr) return;
  if (++c->retransmit_count > kMaxRetransmits) {
    if (c->state == State::syn_sent && c->on_connect) {
      auto h = std::move(c->on_connect);
      node_.simulator().schedule(sim::SimDuration{},
                                 [h] { h(Errc::timed_out); });
    } else {
      report_close(*c, Errc::timed_out);
    }
    release(id);
    return;
  }
  ++retransmits_;
  switch (c->state) {
    case State::syn_sent:
      emit(*c, Flags{.syn = true}, c->snd_una);
      break;
    case State::syn_rcvd:
      emit(*c, Flags{.syn = true, .ack = true}, c->snd_una);
      break;
    default:
      // Go-Back-N: rewind and resend everything outstanding.
      c->snd_nxt = c->snd_una;
      c->fin_sent = false;
      pump(*c);
      break;
  }
  arm_rto(*c);
}

void TcpLayer::segment_arrival(ip::IpPacket&& p) {
  auto parsed = parse_segment(std::move(p.payload));
  if (!parsed) return;
  Segment& s = *parsed;
  TupleKey key{p.src, s.src_port, s.dst_port};
  if (auto it = by_tuple_.find(key); it != by_tuple_.end()) {
    Conn* c = find(it->second);
    assert(c != nullptr);
    handle_for_conn(*c, s, p.src);
    return;
  }
  if (s.flags.syn && !s.flags.ack) {
    handle_listen(s.dst_port, s, p.src);
    return;
  }
  if (!s.flags.rst) {
    send_rst(p.src, s.src_port, s.dst_port, s.ack, s.seq);
  }
}

void TcpLayer::handle_listen(std::uint16_t port, const Segment& s,
                             ip::IpAddress src) {
  auto lit = listeners_.find(port);
  if (lit == listeners_.end()) {
    send_rst(src, s.src_port, port, 0, s.seq + 1);
    return;
  }
  auto conn = std::make_unique<Conn>(node_.simulator());
  Conn& c = *conn;
  c.id = next_id_++;
  c.tuple = TupleKey{src, s.src_port, port};
  c.state = State::syn_rcvd;
  c.rcv_nxt = s.seq + 1;
  std::uint32_t iss = next_iss_;
  next_iss_ += 0x10000;
  c.snd_una = iss;
  c.snd_nxt = iss + 1;
  add_tuple(c);
  ConnId id = c.id;
  conns_.emplace(id, std::move(conn));
  emit(c, Flags{.syn = true, .ack = true}, iss);
  arm_rto(c);
}

void TcpLayer::report_close(Conn& c, Errc reason) {
  if (c.close_reported) return;
  c.close_reported = true;
  if (c.on_close) {
    auto h = c.on_close;
    node_.simulator().schedule(sim::SimDuration{}, [h, reason] { h(reason); });
  }
}

void TcpLayer::enter_time_wait(Conn& c) {
  c.state = State::time_wait;
  c.rto_timer.cancel();
  // All sent is acked, nothing more is delivered: keep what re-ACKs a FIN.
  c.send_buf = util::Buffer{};
  c.on_receive.reset();
  c.on_connect = nullptr;
  ConnId id = c.id;
  c.wait_timer.arm(cfg_.msl * 2, [this, id] { release(id); });
}

void TcpLayer::release(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  drop_tuple(c);
  if (c.on_released) {
    auto h = c.on_released;
    node_.simulator().schedule(sim::SimDuration{}, [h, id] { h(id); });
  }
  conns_.erase(it);
}

void TcpLayer::handle_for_conn(Conn& c, Segment& s, ip::IpAddress src) {
  (void)src;
  if (s.flags.rst) {
    if (c.state == State::syn_sent && c.on_connect) {
      auto h = std::move(c.on_connect);
      node_.simulator().schedule(sim::SimDuration{},
                                 [h] { h(Errc::connection_refused); });
      release(c.id);
      return;
    }
    report_close(c, Errc::connection_reset);
    release(c.id);
    return;
  }

  // --- handshake progress ---
  if (c.state == State::syn_sent) {
    if (s.flags.syn && s.flags.ack && s.ack == c.snd_nxt) {
      c.rcv_nxt = s.seq + 1;
      c.snd_una = s.ack;
      c.state = State::established;
      c.retransmit_count = 0;
      c.rto_timer.cancel();
      emit(c, Flags{.ack = true}, c.snd_nxt);
      if (c.on_connect) {
        auto h = std::move(c.on_connect);
        ConnId id = c.id;
        node_.simulator().schedule(sim::SimDuration{}, [h, id] { h(id); });
      }
    }
    return;
  }
  if (c.state == State::syn_rcvd) {
    if (s.flags.syn && !s.flags.ack) {
      // Retransmitted SYN: resend our SYN|ACK.
      emit(c, Flags{.syn = true, .ack = true}, c.snd_una);
      return;
    }
    if (s.flags.ack && seq_lt(c.snd_una, s.ack)) {
      c.snd_una = s.ack;
      c.state = State::established;
      c.retransmit_count = 0;
      c.rto_timer.cancel();
      if (auto lit = listeners_.find(c.tuple.local_port);
          lit != listeners_.end()) {
        auto h = lit->second;
        ConnId id = c.id;
        node_.simulator().schedule(sim::SimDuration{}, [h, id] { h(id); });
      }
      // Fall through: the ACK may carry data.
    } else {
      return;
    }
  }

  // --- ACK processing ---
  if (s.flags.ack && seq_lt(c.snd_una, s.ack) && seq_leq(s.ack, c.snd_nxt)) {
    std::uint32_t acked = s.ack - c.snd_una;
    std::uint32_t data_acked = acked;
    bool fin_acked = false;
    if (c.fin_sent && s.ack == c.fin_seq + 1) {
      data_acked -= 1;
      fin_acked = true;
    }
    assert(data_acked <= c.send_buf.size() - c.send_head);
    c.send_head += data_acked;
    if (c.send_head == c.send_buf.size()) {
      c.send_buf.clear();
      c.send_head = 0;
    } else if (c.send_head * 2 > c.send_buf.size()) {
      // Compact once the head passes the middle: each byte moves at most
      // as often as it is acked, so acks stay amortised O(1) per byte.
      c.send_buf.erase(c.send_buf.begin(),
                       c.send_buf.begin() + static_cast<long>(c.send_head));
      c.send_head = 0;
    }
    c.snd_una = s.ack;
    c.retransmit_count = 0;
    if (c.snd_una == c.snd_nxt) {
      c.rto_timer.cancel();
    } else {
      arm_rto(c);
    }
    if (fin_acked) {
      switch (c.state) {
        case State::fin_wait_1:
          c.state = State::fin_wait_2;
          break;
        case State::closing:
          enter_time_wait(c);
          break;
        case State::last_ack:
          report_close(c, Errc::ok);
          release(c.id);
          return;
        default:
          break;
      }
    }
    pump(c);
  }

  // --- in-order data delivery (Go-Back-N receiver) ---
  bool advanced = false;
  const auto len = static_cast<std::uint32_t>(s.payload.size());
  if (len > 0) {
    if (s.seq == c.rcv_nxt) {
      c.rcv_nxt += len;
      advanced = true;
      if (c.on_receive) {
        auto up = [h = c.on_receive, data = std::move(s.payload)]() mutable {
          (*h)(std::move(data));
        };
        static_assert(sim::Simulator::stored_inline<decltype(up)>);
        node_.simulator().schedule(sim::SimDuration{}, std::move(up));
      }
    } else {
      // Out of order: discard, re-ACK what we have.
      emit(c, Flags{.ack = true}, c.snd_nxt);
    }
  }

  // --- FIN processing ---
  std::uint32_t fin_seq = s.seq + len;
  if (s.flags.fin && fin_seq == c.rcv_nxt) {
    c.rcv_nxt += 1;
    advanced = true;
    switch (c.state) {
      case State::established:
        c.state = State::close_wait;
        report_close(c, Errc::ok);
        break;
      case State::fin_wait_1:
        // Our FIN is unacked: simultaneous close.
        c.state = State::closing;
        break;
      case State::fin_wait_2:
        report_close(c, Errc::ok);
        enter_time_wait(c);
        break;
      default:
        break;
    }
  }
  if (advanced || (s.flags.fin && seq_lt(fin_seq, c.rcv_nxt))) {
    // ACK new data/FIN, and re-ACK retransmitted FINs (incl. in TIME_WAIT).
    emit(c, Flags{.ack = true}, c.snd_nxt);
  }
}

}  // namespace xunet::tcp
