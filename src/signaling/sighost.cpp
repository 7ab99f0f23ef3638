#include "signaling/sighost.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace xunet::sig {

using util::Errc;

namespace {

constexpr std::uint64_t kCookieSeed = 0x5163'4057;
// Reliable sighost<->sighost delivery over the signaling PVC: sequence
// numbers, duplicate suppression, retransmission with exponential backoff.
// The PVC is a bare AAL5 pipe — cells it loses are simply gone, so
// signaling must supply its own reliability.
constexpr sim::SimDuration kRetransmitBase = sim::milliseconds(250);
// Uniform extra delay in [0, jitter) added per retransmission, so peers
// that lost the same frame don't retry in lockstep.
constexpr sim::SimDuration kRetransmitJitter = sim::milliseconds(50);
constexpr int kRetransmitMaxAttempts = 6;
constexpr std::uint64_t kRetransmitSeed = 0x7e57'ab1e;
// Unacked-message ring slots a drained channel keeps for its next burst.
constexpr std::size_t kKeptPendingSlots = 64;
// The sender's whole retry budget (every backoff at its longest jitter):
// a sequence number still missing after this long was abandoned, so the
// receiver's duplicate window stops waiting for it (~16 s).
constexpr sim::SimDuration kRecvGapHorizon =
    kRetransmitBase * ((std::int64_t{1} << kRetransmitMaxAttempts) - 1) +
    kRetransmitJitter * kRetransmitMaxAttempts;

}  // namespace

Sighost::Sighost(kern::Kernel& router, atm::AtmNetwork& net,
                 SighostConfig cfg)
    : k_(router), net_(net), cfg_(cfg), cookies_(kCookieSeed),
      rng_(kRetransmitSeed), recovery_grace_(router.simulator()),
      obs_(&router.simulator().obs()),
      // Shard 0 keeps the router's bare name so single-shard topologies
      // (the default) produce byte-identical metric names and traces.
      track_(router.atm_address().name +
             (cfg.shard_id > 0 ? ".s" + std::to_string(cfg.shard_id)
                               : std::string{})) {
  obs::MetricsRegistry& mx = obs_->metrics();
  m_maint_records_ = &mx.counter("sighost." + track_ + ".maint.records");
  m_maint_records_all_ = &mx.counter("sighost.maint.records");
  m_established_ = &mx.counter("sighost." + track_ + ".calls.established");
  m_torn_down_ = &mx.counter("sighost." + track_ + ".calls.torn_down");
  m_retransmits_ = &mx.counter("sighost." + track_ + ".peer.retransmits");
  m_dup_suppressed_ = &mx.counter("sighost." + track_ + ".peer.dup_suppressed");
  m_sheds_ = &mx.counter("sighost." + track_ + ".overload.sheds");
  m_recovered_ = &mx.counter("sighost." + track_ + ".recovery.calls");
  // Sketch-backed: this histogram is always on and grows with call count,
  // so it must not hoard samples at the roadmap's 10⁶-call scale.  Benches
  // that need exact percentiles keep their own exact-kind histograms.
  m_setup_us_ = &mx.histogram("sighost." + track_ + ".setup.latency_us",
                              obs::Histogram::Kind::sketch);
  static constexpr const char* kLists[5] = {
      "service_list", "outgoing_requests", "incoming_requests",
      "wait_for_bind", "vci_mapping"};
  for (int i = 0; i < 5; ++i) {
    m_lists_[i] = &mx.gauge("sighost." + track_ + ".list." + kLists[i]);
  }
}

Sighost::~Sighost() = default;

util::Result<void> Sighost::start() {
  pid_ = k_.spawn("sighost");

  // Allocate request ids (and resync nonces) from this incarnation's own
  // band.  A counter restarting at 1 after a crash would re-mint call keys
  // like "mh.rt#2" that peers still hold for calls the previous life
  // established and recovery preserved — and a timeout on the *new* call
  // would then tear the *old* call's record out of the peer, orphaning its
  // network VC.  (Found by the chaos harness; see chaos_test.cpp.)
  const std::uint32_t inc = k_.next_sighost_incarnation() - 1;
  next_req_ = 1 + (static_cast<ReqId>(inc) << kReqIdIncarnationShift);
  next_resync_nonce_ = 1 + (inc << kReqIdIncarnationShift);

  // Shard s of a router listens on port + s; the user library picks the
  // owning shard for a call by the same residue arithmetic the kernel uses.
  auto lfd = k_.tcp_listen(pid_,
                           static_cast<std::uint16_t>(cfg_.port + cfg_.shard_id),
                           [this](int fd) { on_app_accept(fd); });
  if (!lfd) return lfd.error();
  listen_fd_ = *lfd;

  // Attach to the anand server for kernel-state indications.
  auto afd = k_.tcp_connect(
      pid_, k_.ip_node().address(), kAnandServerPort,
      [this](util::Result<int> r) {
        if (!r) return;  // no anand server: indications will be unavailable
        stub_framer_ = std::make_unique<StubFramer>(
            [this](const StubMsg& m) { on_stub_msg(m); });
        (void)k_.tcp_on_receive(pid_, anand_fd_, [this](util::BytesView data) {
          stub_framer_->feed(data);
        });
        // Sharding handshake: the anand server demuxes switched-VCI
        // indications to the shard owning vci % shard_count.
        (void)k_.tcp_send(pid_, anand_fd_,
                          serialize(StubMsg{.type = StubMsg::Type::hello_sighost,
                                            .vci = cfg_.shard_id,
                                            .cookie = cfg_.shard_count}));
      });
  if (!afd) return afd.error();
  anand_fd_ = *afd;
  return {};
}

util::Result<void> Sighost::add_peer(const atm::AtmAddress& peer,
                                     atm::Vci send_vci, atm::Vci recv_vci) {
  if (peer_by_name_.contains(peer.name)) return Errc::duplicate;
  auto send_fd = k_.xunet_socket(pid_);
  if (!send_fd) return send_fd.error();
  auto recv_fd = k_.xunet_socket(pid_);
  if (!recv_fd) return recv_fd.error();

  pvc_vcis_.insert(send_vci);
  pvc_vcis_.insert(recv_vci);
  if (auto r = k_.xunet_connect(pid_, *send_fd, send_vci, 0); !r) return r;
  if (auto r = k_.xunet_bind(pid_, *recv_fd, recv_vci, 0); !r) return r;

  const auto idx = static_cast<PeerIdx>(peers_.size());
  (void)k_.xunet_on_receive(pid_, *recv_fd, [this, idx](util::BytesView data) {
    auto m = parse_msg(data);
    if (!m) {
      // A corrupted signaling frame that slipped past (or was injected
      // above) the AAL5 CRC: count it and rely on retransmission.
      ++stats_.peer_parse_errors;
      return;
    }
    on_peer_msg(idx, *m);
  });
  peer_by_name_.emplace(peer.name, idx);
  Peer& p = peers_.emplace_back();
  p.addr = peer;
  p.send_fd = *send_fd;
  p.resync_timer = sim::Timer(k_.simulator());
  return {};
}

Sighost::PeerIdx Sighost::find_peer(const std::string& name) const {
  auto it = peer_by_name_.find(name);
  return it == peer_by_name_.end() ? kNoPeer : it->second;
}

const std::string& Sighost::origin_name(PeerIdx i) const noexcept {
  static const std::string kNone;
  if (i == kSelf) return k_.atm_address().name;
  return i < peers_.size() ? peers_[i].addr.name : kNone;
}

std::string Sighost::call_text(CallKey key) const {
  return key.id == 0 ? std::string{} : call_name(origin_name(key.origin), key.id);
}

std::string_view Sighost::call_text(CallKey key,
                                    std::span<char> buf) const noexcept {
  if (key.id == 0) return {buf.data(), 0};  // empty, but never a null view
  const int n = std::snprintf(buf.data(), buf.size(), "%s#%u",
                              origin_name(key.origin).c_str(), key.id);
  return {buf.data(), std::min(static_cast<std::size_t>(n), buf.size() - 1)};
}

const std::string* Sighost::intern_qos(const std::string& text) {
  auto it = qos_texts_.try_emplace(text, 0).first;
  ++it->second;
  return &it->first;
}

void Sighost::release_qos(const std::string* text) {
  // A text no entry holds goes, unless it is the only one: calls are mostly
  // granted one text, and the next call would intern it again.
  auto it = qos_texts_.find(*text);
  if (--it->second == 0 && qos_texts_.size() > 1) qos_texts_.erase(it);
}

// ------------------------------------------------- reliable peer delivery

bool Sighost::sequenced(MsgType t) noexcept {
  // Everything call-related is sequenced; the ack and the resync handshake
  // carry their own correlation and must bypass duplicate suppression
  // (after a restart the two sides disagree about sequence state).
  return (t >= MsgType::peer_setup && t <= MsgType::peer_cancel) ||
         t == MsgType::peer_resync_info;
}

sim::SimDuration Sighost::backoff(int attempts) {
  return kRetransmitBase * (std::int64_t{1} << attempts) +
         sim::nanoseconds(static_cast<std::int64_t>(
             rng_.below(static_cast<std::uint64_t>(kRetransmitJitter.ns()))));
}

void Sighost::transmit_peer(Peer& p, const Msg& m, util::Buffer wire) {
  if (trace_) trace_("->" + p.addr.name, k_.atm_address().name, m);
  WireVerdict v;
  if (wire_fault_) v = wire_fault_(k_.atm_address().name, p.addr.name, m);
  switch (v.fault) {
    case WireFault::drop:
      return;
    case WireFault::duplicate:
      (void)k_.xunet_send(pid_, p.send_fd, util::BytesView(wire));
      break;
    case WireFault::corrupt:
      wire[rng_.below(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.below(8));
      break;
    case WireFault::delay:
      k_.simulator().schedule(
          v.delay, guarded([this, send_fd = p.send_fd, wire = std::move(wire)] {
            (void)k_.xunet_send(pid_, send_fd, util::BytesView(wire));
          }));
      return;
    case WireFault::deliver:
      break;
  }
  (void)k_.xunet_send(pid_, p.send_fd, std::move(wire));
}

Sighost::PendingTx* Sighost::Peer::unacked(std::uint32_t seq) {
  const std::uint32_t i = seq - pending_base;
  if (i >= pending.size() || pending[i].wire.empty()) return nullptr;
  return &pending[i];
}

void Sighost::Peer::settle(std::uint32_t seq) {
  if (PendingTx* tx = unacked(seq)) *tx = PendingTx{};
  while (!pending.empty() && pending.front().wire.empty()) {
    pending.pop_front();
    ++pending_base;
  }
  // A drained burst's ring goes back, so held calls do not keep it.
  if (pending.empty() && pending.capacity() > kKeptPendingSlots) pending = {};
}

void Sighost::retransmit(PeerIdx peer, std::uint32_t seq) {
  Peer& p = peers_[peer];
  PendingTx* tx = p.unacked(seq);
  if (tx == nullptr) return;  // acked meanwhile
  if (++tx->attempts >= kRetransmitMaxAttempts) {
    // Give up; the request/bind watchdog timers convert the silence into a
    // clean failure at the call level.
    ++stats_.retx_abandoned;
    p.settle(seq);
    return;
  }
  ++stats_.retransmits;
  m_retransmits_->inc();
  XOBS_FLIGHT(obs_, "sighost", "peer.retx", track_,
              p.addr.name + " seq=" + std::to_string(seq));
  // The frame goes out as first sent; only the hooks need the message.
  Msg m;
  if (trace_ || wire_fault_) m = *parse_msg(tx->wire);
  transmit_peer(p, m, tx->wire);
  tx->timer.arm(backoff(tx->attempts), [this, peer, seq] { retransmit(peer, seq); });
}

bool Sighost::note_received(Peer& p, std::uint32_t seq, sim::SimTime now) {
  if (seq <= p.recv_floor || p.recv_above.contains(seq)) return true;
  if (p.recv_above.empty()) p.gap_since = now;
  p.recv_above.insert(seq);
  // A number missing for longer than the sender's retry budget will never
  // come: skip it rather than hold every later number for the channel's life.
  if (now - p.gap_since > kRecvGapHorizon) p.recv_floor = *p.recv_above.begin() - 1;
  const std::uint32_t floor = p.recv_floor;
  while (p.recv_above.contains(p.recv_floor + 1)) {
    p.recv_above.erase(p.recv_floor + 1);
    ++p.recv_floor;
  }
  if (p.recv_floor != floor) p.gap_since = now;
  return false;
}

void Sighost::reset_channel(Peer& p) {
  // Unacked messages were for the peer's previous life.  Numbering goes on
  // past the old channel, so no number the peer recorded from it suppresses
  // a new message; its window skips the gap after kRecvGapHorizon.
  p.pending.clear();
  p.pending_base = p.next_seq;
  p.recv_floor = 0;
  p.recv_above.clear();
}

// ---------------------------------------------------------------- plumbing

void Sighost::maintenance_log(CallKey call, std::function<void()> then,
                              std::uint64_t trace_id, obs::SpanId parent) {
  auto job = guarded(std::move(then));
  if (!cfg_.maintenance_logging) {
    k_.simulator().schedule(sim::SimDuration{}, std::move(job));
    return;
  }
  // The per-call maintenance record: §9 identifies writing it as the
  // dominant cost of call establishment.  sighost is a single-threaded
  // process, so logging work SERIALIZES: concurrent calls queue behind one
  // another (this pacing is what let the paper's 80-buffer pseudo-device
  // keep up with the 100-call burst).
  m_maint_records_->inc();
  m_maint_records_all_->inc();
  sim::SimTime now = k_.simulator().now();
  if (busy_until_ < now) busy_until_ = now;
  if (XOBS_TRACING(obs_)) {
    // The span covers when the write actually occupies the (serialized)
    // sighost process, which may start after queued predecessors finish.
    obs::TraceIds ids;
    ids.call_id = call_text(call);
    ids.trace_id = trace_id;
    ids.parent_span = parent;
    obs_->trace().complete(busy_until_, cfg_.per_call_log_cost, "sighost",
                           "maint.log", track_, std::move(ids));
  }
  busy_until_ = busy_until_ + cfg_.per_call_log_cost;
  k_.simulator().schedule_at(busy_until_, std::move(job));
}

void Sighost::fsm(const char* what, CallKey call, std::int64_t vci,
                  std::int64_t fd) {
  // FSM transitions feed the flight recorder unconditionally — that ring is
  // the post-mortem when a fault fires with tracing off.  The call key is
  // rendered into a buffer the size of the record's detail, not the heap.
  [[maybe_unused]] char detail[sizeof(obs::FlightRecord::detail)];
  XOBS_FLIGHT(obs_, "sighost", what, track_, call_text(call, detail), vci);
  if (!XOBS_TRACING(obs_)) return;
  obs::TraceIds ids;
  ids.call_id = call_text(call);
  ids.vci = vci;
  ids.fd = fd;
  obs_->instant("sighost", what, track_, std::move(ids));
}

void Sighost::record_lists() {
  const std::size_t sizes[5] = {services_.size(), outgoing_.size(),
                                incoming_.size(), wait_bind_.size(),
                                vci_map_.size()};
  static constexpr const char* kNames[5] = {
      "lists.service_list", "lists.outgoing_requests",
      "lists.incoming_requests", "lists.wait_for_bind", "lists.vci_mapping"};
  for (int i = 0; i < 5; ++i) {
    m_lists_[i]->set(static_cast<std::int64_t>(sizes[i]));
    XOBS_COUNTER(obs_, "sighost", kNames[i], track_,
                 static_cast<double>(sizes[i]));
  }
}

void Sighost::end_setup_trace(const SetupTrace& st) {
  m_setup_us_->observe((k_.simulator().now() - st.begin).us());
  XOBS_END(obs_, st.span);
}

void Sighost::send_app(int fd, const Msg& m) {
  if (trace_) trace_("->app", k_.atm_address().name, m);
  (void)k_.tcp_send(pid_, fd, frame(m));
}

void Sighost::send_peer(PeerIdx peer, Msg m) {
  if (peer >= peers_.size()) return;
  Peer& p = peers_[peer];
  if (!sequenced(m.type)) return transmit_peer(p, m, serialize(m));
  m.seq = p.next_seq++;
  PendingTx& tx = p.pending.emplace_back();
  tx.wire = serialize(m);
  tx.timer = sim::Timer(k_.simulator());
  tx.timer.arm(backoff(0), [this, peer, seq = m.seq] { retransmit(peer, seq); });
  transmit_peer(p, m, tx.wire);
}

void Sighost::send_peer(PeerIdx peer, MsgType type, ReqId id, Errc reason) {
  send_peer(peer, Msg{.type = type, .req_id = id,
                      .error = static_cast<std::uint8_t>(reason)});
}

void Sighost::send_conn_failed(int fd, ReqId id, Cookie cookie, Errc reason) {
  send_app(fd, Msg{.type = MsgType::conn_failed, .req_id = id, .cookie = cookie,
                   .error = static_cast<std::uint8_t>(reason)});
}

void Sighost::send_down_disconnect(atm::Vci vci, ip::IpAddress machine) {
  if (anand_fd_ < 0) return;
  (void)k_.tcp_send(pid_, anand_fd_,
                    serialize(StubMsg{.type = StubMsg::Type::down_disconnect,
                                      .vci = vci, .machine = machine}));
}

void Sighost::on_app_accept(int fd) {
  app_conns_.try_emplace(fd, [this, fd](const Msg& m) { on_app_msg(fd, m); });
  (void)k_.tcp_on_receive(pid_, fd, [this, fd](util::BytesView data) {
    if (auto it = app_conns_.find(fd); it != app_conns_.end()) {
      it->second.feed(data);
    }
  });
  (void)k_.tcp_on_close(pid_, fd,
                        [this, fd](util::Errc) { on_app_conn_closed(fd); });
}

void Sighost::on_app_conn_closed(int fd) {
  app_conns_.erase(fd);
  // The requester vanished with requests outstanding: withdraw them so no
  // network or peer state stays pinned (§4: frugal use of resources).  The
  // scan is bounded by max_outgoing_requests.
  const std::size_t before = outgoing_.size();
  for (auto oit = outgoing_.begin(); oit != outgoing_.end();) {
    if (oit->second.client_fd != fd) {
      ++oit;
      continue;
    }
    cookies_.discard(oit->second.client_cookie);
    end_setup_trace(oit->second.setup);
    send_peer(oit->second.dst, MsgType::peer_cancel, oit->first);
    oit = outgoing_.erase(oit);
  }
  if (outgoing_.size() != before) record_lists();
  (void)k_.close(pid_, fd);
}

void Sighost::on_app_msg(int fd, const Msg& m) {
  if (trace_) trace_("<-app", k_.atm_address().name, m);
  switch (m.type) {
    case MsgType::export_srv: handle_export_srv(fd, m); break;
    case MsgType::withdraw_srv: handle_withdraw_srv(fd, m); break;
    case MsgType::connect_req: handle_connect_req(fd, m); break;
    case MsgType::cancel_req: handle_cancel_req(fd, m); break;
    default:
      // Anything else on an application connection is a protocol violation;
      // robustness demands we ignore it rather than die (§4).
      break;
  }
}

void Sighost::on_peer_msg(PeerIdx peer, const Msg& m) {
  Peer& p = peers_[peer];
  if (trace_) trace_("<-" + p.addr.name, k_.atm_address().name, m);
  if (m.type == MsgType::peer_ack) {
    p.settle(m.seq);
    return;
  }
  if (m.seq != 0) {
    // Ack first (even for duplicates: the original ack may have been the
    // frame that was lost), then suppress redelivery.
    const Msg ack{.type = MsgType::peer_ack, .seq = m.seq};
    transmit_peer(p, ack, serialize(ack));
    if (note_received(p, m.seq, k_.simulator().now())) {
      ++stats_.dup_suppressed;
      m_dup_suppressed_->inc();
      return;
    }
  }
  switch (m.type) {
    case MsgType::peer_setup: handle_peer_setup(peer, m); break;
    case MsgType::peer_accept: handle_peer_accept(peer, m); break;
    case MsgType::peer_reject: handle_peer_reject(peer, m); break;
    case MsgType::peer_established: handle_peer_established(peer, m); break;
    case MsgType::peer_bound: handle_peer_bound(peer, m); break;
    case MsgType::peer_setup_failed: handle_peer_setup_failed(peer, m); break;
    case MsgType::peer_teardown: handle_peer_teardown(peer, m); break;
    case MsgType::peer_cancel: handle_peer_cancel(peer, m); break;
    case MsgType::peer_resync: handle_peer_resync(peer, m); break;
    case MsgType::peer_resync_ack: handle_peer_resync_ack(peer, m); break;
    case MsgType::peer_resync_info: handle_peer_resync_info(peer, m); break;
    default: break;
  }
}

void Sighost::on_stub_msg(const StubMsg& m) {
  if (m.type == StubMsg::Type::up_indication) handle_indication(m);
}

// -------------------------------------------------- application-side flows

void Sighost::handle_export_srv(int fd, const Msg& m) {
  if (m.service.empty() || m.port == 0) {
    send_conn_failed(fd, 0, 0, Errc::invalid_argument);
    return;
  }
  Service svc;
  svc.server_ip = k_.tcp_peer(pid_, fd);
  svc.notify_port = m.port;
  services_[m.service] = svc;
  ++stats_.services_registered;
  record_lists();
  // Registration writes no per-call maintenance information: §9 measures
  // 17–20 ms for this RPC and attributes essentially all of it to the four
  // context switches.
  send_app(fd, Msg{.type = MsgType::service_regs, .service = m.service});
}

void Sighost::handle_withdraw_srv(int fd, const Msg& m) {
  // Only the machine that registered a service may withdraw it (the same
  // trust boundary as registration itself).
  auto it = services_.find(m.service);
  if (it != services_.end() && it->second.server_ip == k_.tcp_peer(pid_, fd)) {
    services_.erase(it);
    record_lists();
  }
  send_app(fd, Msg{.type = MsgType::service_regs, .service = m.service});
}

void Sighost::handle_connect_req(int fd, const Msg& m) {
  // Bounded-queue overload shedding: at capacity, or with every cookie
  // outstanding, fail fast with a busy cause instead of letting
  // outgoing_requests grow without bound.
  const bool at_cap = outgoing_.size() >= cfg_.max_outgoing_requests;
  util::Result<Cookie> cookie = at_cap ? Errc::no_buffer_space : cookies_.mint();
  const ReqId id = next_req_++;
  if (!cookie) {
    ++stats_.sheds;
    m_sheds_->inc();
    XOBS_FLIGHT(obs_, "sighost", "overload.shed", track_,
                at_cap ? "outgoing_requests at cap" : "cookies exhausted", -1);
    send_app(fd, Msg{.type = MsgType::req_id, .req_id = id,
                     .dst = k_.atm_address().name});
    send_conn_failed(fd, id, 0, Errc::no_buffer_space);
    return;
  }
  const CallKey key{kSelf, id};
  Outgoing out;
  out.client_fd = fd;
  out.dst = find_peer(m.dst);
  out.client_cookie = *cookie;
  out.setup.begin = k_.simulator().now();
  if (XOBS_TRACING(obs_)) {
    obs::TraceIds ids;
    ids.call_id = call_text(key);
    ids.fd = fd;
    // Causal link: the CONNECT_REQ carries the stub's trace id (0 when
    // untraced) and its "call.open" span, making this hop a child of the
    // client's.
    ids.trace_id = m.trace_id;
    ids.parent_span = m.parent_span;
    out.setup.span = obs_->begin("sighost", "call.setup", track_, std::move(ids));
  }
  const obs::SpanId setup_span = out.setup.span;
  fsm("fsm.connect_req", key, -1, fd);
  out.timer = sim::Timer(k_.simulator());
  arm_request_watchdog(out, id, cfg_.request_timeout, Errc::timed_out);
  outgoing_.emplace(id, std::move(out));

  // The originating sighost's name rides along so the client stub can form
  // the end-to-end call key ("origin#req_id") for its own trace spans.
  send_app(fd, Msg{.type = MsgType::req_id, .req_id = id, .cookie = *cookie,
                   .dst = k_.atm_address().name});
  record_lists();

  maintenance_log(key,
                  [this, id, service = m.service, qos = m.qos,
                   comment = m.comment, trace_id = m.trace_id, setup_span] {
                    auto oit = outgoing_.find(id);
                    if (oit == outgoing_.end()) return;
                    if (oit->second.dst == kNoPeer) {
                      fail_outgoing(id, Errc::no_route);
                      return;
                    }
                    // Propagate the causal context: the remote sighost's
                    // serve span becomes a child of our call.setup span.
                    send_peer(oit->second.dst,
                              Msg{.type = MsgType::peer_setup, .req_id = id,
                                  .service = service, .qos = qos,
                                  .comment = comment, .trace_id = trace_id,
                                  .parent_span = setup_span});
                    oit->second.setup_sent = true;
                  },
                  m.trace_id, setup_span);
}

void Sighost::arm_request_watchdog(Outgoing& out, ReqId id,
                                   sim::SimDuration after, Errc reason) {
  out.timer.arm(after, [this, id, reason] {
    // The peer never answered (partition, dead sighost, lost PVC): fail the
    // request back to the client and withdraw it from the peer.
    auto oit = outgoing_.find(id);
    if (oit == outgoing_.end()) return;
    ++stats_.request_timeouts;
    send_peer(oit->second.dst, MsgType::peer_cancel, id);
    fail_outgoing(id, reason);
  });
}

void Sighost::handle_cancel_req(int fd, const Msg& m) {
  // Only the connection that issued a request may withdraw it: the cookie
  // alone would let any process on this router cancel another's call.
  for (auto& [id, out] : outgoing_) {
    if (out.client_fd == fd && out.client_cookie == m.cookie) {
      ++stats_.cancels;
      send_peer(out.dst, MsgType::peer_cancel, id);
      fail_outgoing(id, Errc::cancelled);
      return;
    }
  }
}

// The per-call server connection: ACCEPT_CONN / REJECT_CONN arrive here.
// Only the call's own undecided record, presenting its cookie, counts.
void Sighost::handle_accept_conn(int fd, CallKey key, const Msg& m) {
  auto iit = incoming_.find(key);
  if (iit == incoming_.end()) return;
  Incoming& inc = iit->second;
  if (inc.server_fd != fd || inc.decided) return;
  if (m.cookie != inc.server_cookie) return;  // wrong capability: ignore
  inc.decided = true;
  // The server may have modified the QoS.  The causal context goes back to
  // the originator: the VC install it will now perform becomes a child of
  // our call.serve span.
  send_peer(key.origin, Msg{.type = MsgType::peer_accept, .req_id = key.id,
                            .qos = m.qos, .trace_id = inc.trace_id,
                            .parent_span = inc.serve_span});
}

void Sighost::handle_reject_conn(int fd, CallKey key, const Msg& m) {
  auto it = incoming_.find(key);
  if (it == incoming_.end()) return;
  Incoming& inc = it->second;
  if (inc.server_fd != fd || inc.decided) return;
  if (m.cookie != inc.server_cookie) return;
  ++stats_.rejects_sent;
  end_incoming(*it, std::nullopt, Errc::rejected);
  (void)k_.close(pid_, fd);
  incoming_.erase(it);
  record_lists();
}

// ------------------------------------------------------------- peer flows

void Sighost::handle_peer_setup(PeerIdx origin, const Msg& m) {
  const CallKey key{origin, m.req_id};
  // Idempotency: sequence numbers suppress wire duplicates, but a call that
  // is already in progress (or established) must never open a second
  // server connection or allocate a second VC, whatever arrives.
  if (incoming_.contains(key) || vci_for_call(key) != atm::kInvalidVci) return;
  // The INCOMING_CONN below re-packs these strings with the originator's
  // name, which may be longer than the callee name the client's
  // CONNECT_REQ was checked with: refuse what one message cannot carry.
  if (wire_size(m.service.size() + m.qos.size() + m.comment.size() +
                origin_name(origin).size()) > kMaxMsgBytes) {
    ++stats_.rejects_sent;
    send_peer(origin, MsgType::peer_reject, m.req_id, Errc::message_too_long);
    return;
  }
  // Bounded-queue overload shedding, callee side.
  if (incoming_.size() >= cfg_.max_incoming_requests) {
    ++stats_.sheds;
    m_sheds_->inc();
    XOBS_FLIGHT(obs_, "sighost", "overload.shed", track_,
                "incoming_requests at cap", -1);
    send_peer(origin, MsgType::peer_reject, m.req_id, Errc::no_buffer_space);
    return;
  }
  fsm("fsm.peer_setup", key);
  // Callee-side serve span: a child of the originator's call.setup (the
  // PEER_SETUP carried that span id), parent of the kernel VC install.
  // The maintenance-log work below carries it until the incoming_requests
  // record exists.
  obs::SpanId serve = obs::kInvalidSpan;
  if (XOBS_TRACING(obs_)) {
    obs::TraceIds ids;
    ids.call_id = call_text(key);
    ids.trace_id = m.trace_id;
    ids.parent_span = m.parent_span;
    serve = obs_->begin("sighost", "call.serve", track_, std::move(ids));
  }
  maintenance_log(
      key, [this, key, origin, m, serve] {
        auto sit = services_.find(m.service);
        if (sit == services_.end()) {
          ++stats_.rejects_sent;
          send_peer(origin, MsgType::peer_reject, m.req_id, Errc::not_found);
          XOBS_END(obs_, serve);
          return;
        }
        // Forward the incoming call to the server over a fresh TCP
        // connection (§10: one descriptor per establishing call).
        util::Result<Cookie> cookie = cookies_.mint();
        if (!cookie) {
          ++stats_.rejects_sent;
          send_peer(origin, MsgType::peer_reject, m.req_id, cookie.error());
          XOBS_END(obs_, serve);
          return;
        }
        auto fd = k_.tcp_connect(
            pid_, sit->second.server_ip, sit->second.notify_port,
            [this, key, m](util::Result<int> r) {
              auto iit = incoming_.find(key);
              if (iit == incoming_.end()) return;  // cancelled meanwhile
              if (!r) {
                // Server unreachable (likely dead): decline the call.
                ++stats_.rejects_sent;
                end_incoming(*iit, std::nullopt, Errc::connection_refused);
                incoming_.erase(iit);
                record_lists();
                return;
              }
              int fd = *r;
              auto framer = std::make_shared<MsgFramer>([this, fd, key](const Msg& mm) {
                if (mm.type == MsgType::accept_conn) {
                  handle_accept_conn(fd, key, mm);
                } else if (mm.type == MsgType::reject_conn) {
                  handle_reject_conn(fd, key, mm);
                }
              });
              (void)k_.tcp_on_receive(pid_, fd,
                                      [framer](util::BytesView data) {
                                        framer->feed(data);
                                      });
              (void)k_.tcp_on_close(pid_, fd, [this, fd, key](util::Errc) {
                // Server closed (normal after establishment) or died.
                auto it2 = incoming_.find(key);
                if (it2 != incoming_.end() && it2->second.server_fd == fd &&
                    !it2->second.decided) {
                  ++stats_.rejects_sent;
                  end_incoming(*it2, std::nullopt, Errc::connection_reset);
                  incoming_.erase(it2);
                  record_lists();
                }
                (void)k_.close(pid_, fd);
              });
              iit->second.server_fd = fd;
              // The originating sighost's address rides along so the server
              // can "establish a return connection to actually return a
              // file to the client" (§3) without an out-of-band convention.
              send_app(fd, Msg{.type = MsgType::incoming_conn,
                               .cookie = iit->second.server_cookie,
                               .service = m.service, .qos = m.qos,
                               .dst = origin_name(key.origin),
                               .comment = m.comment});
            });
        if (!fd) {
          ++stats_.rejects_sent;
          cookies_.discard(*cookie);
          send_peer(origin, MsgType::peer_reject, m.req_id, Errc::no_resources);
          XOBS_END(obs_, serve);
          return;
        }
        Incoming inc;
        inc.server_fd = *fd;
        inc.server_cookie = *cookie;
        inc.serve_span = serve;
        inc.trace_id = m.trace_id;
        // Watchdog: if neither PEER_ESTABLISHED nor PEER_SETUP_FAILED ever
        // arrives (lost to a partition), the record must not live forever.
        inc.timer = sim::Timer(k_.simulator());
        inc.timer.arm(cfg_.request_timeout, [this, key] {
          auto iit = incoming_.find(key);
          if (iit == incoming_.end()) return;
          ++stats_.request_timeouts;
          end_incoming(*iit, Errc::timed_out, Errc::timed_out);
          incoming_.erase(iit);
          record_lists();
        });
        incoming_.emplace(key, std::move(inc));
        record_lists();
      },
      m.trace_id, serve);
}

void Sighost::handle_peer_accept(PeerIdx origin, const Msg& m) {
  if (!outgoing_.contains(m.req_id)) {
    // A late re-accept for a call that already established is not a dead
    // client: never answer it with a teardown.
    if (vci_for_call({kSelf, m.req_id}) != atm::kInvalidVci) return;
    // Client is gone or withdrew: unwind the callee's acceptance.
    send_peer(origin, MsgType::peer_teardown, m.req_id);
    return;
  }
  establish_vc(m.req_id, m.qos, m.trace_id, m.parent_span);
}

void Sighost::establish_vc(ReqId req_id, const std::string& qos_granted,
                           std::uint64_t trace_id, std::uint64_t parent_span) {
  auto oit = outgoing_.find(req_id);
  assert(oit != outgoing_.end());
  const PeerIdx dst = oit->second.dst;
  atm::Qos qos = atm::parse_qos(qos_granted).value_or(atm::Qos{});
  // A PEER_ACCEPT may name a request whose destination is no peer: the
  // empty name then finds no route.
  net_.setup_vc(
      k_.atm_address(), atm::AtmAddress{origin_name(dst)}, qos,
      guarded([this, req_id, dst, qos_granted](util::Result<atm::VcHandle> r) {
        auto oit2 = outgoing_.find(req_id);
        if (oit2 == outgoing_.end()) {
          if (r) (void)net_.teardown(r->id);
          send_peer(dst, MsgType::peer_teardown, req_id);
          return;
        }
        if (!r) {
          ++stats_.setup_failures;
          send_peer(dst, MsgType::peer_setup_failed, req_id, r.error());
          fail_outgoing(req_id, r.error());
          return;
        }
        Outgoing out = std::move(oit2->second);
        outgoing_.erase(oit2);

        const atm::Vci vci = r->src_vci;
        // The network reuses VCIs; a record still parked on this one is a
        // relic of a teardown notification lost to a partition.  Reclaim it
        // before the new call takes the number (lazy reconciliation).
        if (vci_map_.contains(vci)) teardown_vci(vci, /*notify_peer=*/true);
        VciEntry e;
        e.req_id = req_id;
        e.originator = true;
        e.cookie = out.client_cookie;
        e.vc_id = r->id;
        e.peer = dst;
        e.qos = intern_qos(qos_granted);
        e.remote_vci = r->dst_vci;
        // "When the connection is actually established, a VCI_FOR_CONN
        // message is sent to the client" — actually established includes
        // the callee side having bound its socket, so the client's VCI is
        // held back until the callee reports PEER_BOUND.  Data can then
        // never outrun the receiver's bind.
        e.pending_client_fd = out.client_fd;
        e.setup = out.setup;
        vci_map_.emplace(vci, std::move(e));
        const CallKey key{kSelf, req_id};
        call_by_key_[key] = vci;
        load_wait_for_bind(vci);
        ++stats_.calls_established;
        m_established_->inc();
        fsm("fsm.established", key, vci);
        record_lists();

        // Our own VCI rides along so the callee can reconcile this call
        // with us if we later crash and restart.
        send_peer(dst, Msg{.type = MsgType::peer_established, .req_id = req_id,
                           .vci = r->dst_vci, .vci2 = r->src_vci,
                           .qos = qos_granted});
      }),
      // The network's vc.setup span is the only reader of the call's name.
      XOBS_TRACING(obs_) ? call_text({kSelf, req_id}) : std::string{}, trace_id,
      parent_span,
      // Constrain both endpoint VCIs to this shard's residue class so the
      // callee-side indications and recovery land on the callee's shard s.
      atm::VciPartition{cfg_.shard_count, cfg_.shard_id});
}

void Sighost::handle_peer_reject(PeerIdx, const Msg& m) {
  fail_outgoing(m.req_id, static_cast<Errc>(m.error));
}

void Sighost::handle_peer_established(PeerIdx origin, const Msg& m) {
  const CallKey key{origin, m.req_id};
  auto iit = incoming_.find(key);
  if (iit == incoming_.end()) {
    // We no longer know this call (server died after accepting): unwind.
    send_peer(origin, MsgType::peer_teardown, m.req_id);
    return;
  }
  Incoming inc = std::move(iit->second);
  incoming_.erase(iit);

  const atm::Vci vci = m.vci;
  // Same lazy reconciliation as the originator side: a stale record on a
  // reused VCI is torn down before the new call is recorded.
  if (vci_map_.contains(vci)) teardown_vci(vci, /*notify_peer=*/true);
  VciEntry e;
  e.req_id = m.req_id;
  e.originator = false;
  e.cookie = inc.server_cookie;
  e.peer = origin;
  e.qos = intern_qos(m.qos);
  e.remote_vci = m.vci2;
  e.notify_origin_on_confirm = true;
  vci_map_.emplace(vci, std::move(e));
  call_by_key_[key] = vci;
  load_wait_for_bind(vci);
  ++stats_.calls_established;
  m_established_->inc();
  fsm("fsm.established", key, vci);
  // The callee's serve obligation is met: close the call.serve span.
  XOBS_END(obs_, inc.serve_span);
  record_lists();

  send_app(inc.server_fd, Msg{.type = MsgType::vci_for_conn, .req_id = m.req_id,
                               .cookie = inc.server_cookie, .vci = vci,
                               .qos = m.qos});
}

void Sighost::handle_peer_bound(PeerIdx, const Msg& m) {
  // We originated this call; the callee's server is now bound: release the
  // client's VCI_FOR_CONN.
  const CallKey key{kSelf, m.req_id};
  const atm::Vci vci = vci_for_call(key);
  auto it = vci_map_.find(vci);  // kInvalidVci is never mapped
  if (it == vci_map_.end() || it->second.pending_client_fd < 0) return;
  VciEntry& e = it->second;
  send_app(e.pending_client_fd,
           Msg{.type = MsgType::vci_for_conn, .req_id = e.req_id,
               .cookie = e.cookie, .vci = vci, .qos = *e.qos});
  e.pending_client_fd = -1;
  fsm("fsm.peer_bound", key, vci);
  // The callee is bound and the client has its VCI: setup is complete
  // from the originating sighost's point of view.
  end_setup_trace(e.setup);
}

void Sighost::handle_peer_setup_failed(PeerIdx origin, const Msg& m) {
  const CallKey key{origin, m.req_id};
  auto iit = incoming_.find(key);
  if (iit == incoming_.end()) return;
  end_incoming(*iit, static_cast<Errc>(m.error), std::nullopt);
  incoming_.erase(iit);
  record_lists();
}

void Sighost::handle_peer_teardown(PeerIdx origin, const Msg& m) {
  // The call key depends on who originated: try the sender (they
  // originated) then ourselves (we did).
  for (const CallKey key : {CallKey{origin, m.req_id}, CallKey{kSelf, m.req_id}}) {
    if (atm::Vci vci = vci_for_call(key); vci != atm::kInvalidVci) {
      teardown_vci(vci, /*notify_peer=*/false);
      return;
    }
    if (auto iit = incoming_.find(key); iit != incoming_.end()) {
      end_incoming(*iit, Errc::connection_reset, std::nullopt);
      incoming_.erase(iit);
      record_lists();
      return;
    }
  }
}

void Sighost::handle_peer_cancel(PeerIdx origin, const Msg& m) {
  const CallKey key{origin, m.req_id};
  auto iit = incoming_.find(key);
  if (iit != incoming_.end()) {
    end_incoming(*iit, Errc::cancelled, std::nullopt);
    incoming_.erase(iit);
    record_lists();
    return;
  }
  // Already established here: a cancel this late is a teardown.
  if (atm::Vci vci = vci_for_call(key); vci != atm::kInvalidVci) {
    teardown_vci(vci, /*notify_peer=*/false);
  }
}

// ------------------------------------------------------ kernel indications

void Sighost::handle_indication(const StubMsg& m) {
  if (pvc_vcis_.contains(m.vci)) return;  // our own signaling sockets
  // Defense in depth: the anand server already demuxes switched-VCI
  // indications by residue class, but a non-owned one (e.g. replayed from
  // an artifact recorded under a different shard map) must still bounce.
  if (m.vci >= atm::kFirstSwitchedVci && !owns_vci(m.vci)) return;
  switch (m.up_type) {
    case kern::AnandUpType::bind_indication:
    case kern::AnandUpType::connect_indication:
      confirm_endpoint(m.vci, m.cookie, m.machine);
      break;
    case kern::AnandUpType::process_terminated:
      if (vci_map_.contains(m.vci)) {
        teardown_vci(m.vci, /*notify_peer=*/true);
      }
      break;
  }
}

void Sighost::confirm_endpoint(atm::Vci vci, Cookie cookie,
                               ip::IpAddress origin) {
  auto it = vci_map_.find(vci);
  if (it == vci_map_.end()) {
    // Stale indication: the call this bind/connect belongs to is already
    // gone.  Silently ignoring it would leave the endpoint's socket
    // bound/connected to a dead VCI forever (nothing else will ever
    // disconnect it) — answer with a downward disconnect so the kernel
    // marks the socket unusable and the app sees the failure.
    send_down_disconnect(vci, origin);
    return;
  }
  VciEntry& e = it->second;
  if (cookie == 0 || cookie != e.cookie) {
    // §7.1: authentication failure tears the call down and the socket is
    // marked unusable (the teardown's downward disconnect does that).
    ++stats_.auth_failures;
    teardown_vci(vci, /*notify_peer=*/true);
    return;
  }
  e.confirmed = true;
  e.endpoint_ip = origin;
  wait_bind_.erase(vci);  // Timer destructor cancels the pending expiry.
  record_lists();
  if (e.notify_origin_on_confirm) {
    e.notify_origin_on_confirm = false;
    send_peer(e.peer, MsgType::peer_bound, e.req_id);
  }
}

// ----------------------------------------------------------- call lifecycle

void Sighost::load_wait_for_bind(atm::Vci vci) {
  WaitBind wb;
  wb.timer = sim::Timer(k_.simulator());
  wb.timer.arm(cfg_.wait_for_bind_timeout, [this, vci] {
    ++stats_.bind_timeouts;
    teardown_vci(vci, /*notify_peer=*/true);
  });
  wait_bind_.emplace(vci, std::move(wb));
}

void Sighost::fail_outgoing(ReqId id, Errc reason) {
  auto oit = outgoing_.find(id);
  if (oit == outgoing_.end()) return;
  Outgoing out = std::move(oit->second);
  outgoing_.erase(oit);
  cookies_.discard(out.client_cookie);
  fsm("fsm.conn_failed", {kSelf, id});
  end_setup_trace(out.setup);
  record_lists();
  if (app_conns_.contains(out.client_fd)) {
    send_conn_failed(out.client_fd, id, out.client_cookie, reason);
  }
}

void Sighost::end_incoming(const IncomingCall& call, std::optional<Errc> to_server,
                           std::optional<Errc> to_origin) {
  const auto& [key, inc] = call;
  cookies_.discard(inc.server_cookie);
  if (to_server) {
    send_conn_failed(inc.server_fd, key.id, 0, *to_server);
    (void)k_.close(pid_, inc.server_fd);
  }
  if (to_origin) send_peer(key.origin, MsgType::peer_reject, key.id, *to_origin);
  XOBS_END(obs_, inc.serve_span);
}

std::string Sighost::management_report() const {
  std::string out = "sighost@" + k_.atm_address().name + "\n";
  out += "  service_list (" + std::to_string(services_.size()) + "):\n";
  for (const auto& [name, svc] : services_) {
    out += "    " + name + " -> " + ip::to_string(svc.server_ip) + ":" +
           std::to_string(svc.notify_port) + "\n";
  }
  out += "  outgoing_requests: " + std::to_string(outgoing_.size()) + "\n";
  out += "  incoming_requests: " + std::to_string(incoming_.size()) + "\n";
  out += "  wait_for_bind: " + std::to_string(wait_bind_.size()) + "\n";
  out += "  VCI_mapping (" + std::to_string(vci_map_.size()) + "):\n";
  for (const auto& [vci, e] : vci_map_) {
    out += "    vci=" + std::to_string(vci) + " call=" + call_text(call_key(e)) +
           (e.originator ? " (originator)" : " (callee)") +
           (e.confirmed ? " confirmed" : " unconfirmed") + " qos=<" + *e.qos +
           ">\n";
  }
  const SighostStats& st = stats_;
  out += "  stats: established=" + std::to_string(st.calls_established) +
         " torn_down=" + std::to_string(st.calls_torn_down) +
         " rejects=" + std::to_string(st.rejects_sent) +
         " auth_failures=" + std::to_string(st.auth_failures) +
         " bind_timeouts=" + std::to_string(st.bind_timeouts) + "\n";
  out += "  reliability: retransmits=" + std::to_string(st.retransmits) +
         " dup_suppressed=" + std::to_string(st.dup_suppressed) +
         " abandoned=" + std::to_string(st.retx_abandoned) +
         " sheds=" + std::to_string(st.sheds) +
         " resyncs=" + std::to_string(st.resyncs) +
         " recovered=" + std::to_string(st.recovered_calls) +
         " orphans=" + std::to_string(st.orphans_torn_down) + "\n";
  return out;
}

Sighost::ListSnapshot Sighost::audit_snapshot() const {
  ListSnapshot snap;
  for (const auto& [id, out] : outgoing_) {
    snap.outgoing_calls.push_back(call_text({kSelf, id}));
  }
  for (const auto& [key, inc] : incoming_) {
    snap.incoming_calls.push_back(call_text(key));
  }
  // Call keys sort as text ("#10" before "#9"); outgoing calls keep request
  // id order, as they always have.
  std::ranges::sort(snap.incoming_calls);
  for (const auto& [vci, wb] : wait_bind_) snap.wait_for_bind.push_back(vci);
  for (const auto& [vci, e] : vci_map_) {
    snap.vci_mapping.push_back(
        {vci, call_text(call_key(e)), e.confirmed, e.recovered, e.endpoint_ip});
  }
  return snap;
}

atm::Vci Sighost::vci_for_call(CallKey key) const {
  auto it = call_by_key_.find(key);
  return it == call_by_key_.end() ? atm::kInvalidVci : it->second;
}

void Sighost::teardown_vci(atm::Vci vci, bool notify_peer) {
  auto node = vci_map_.extract(vci);
  if (node.empty()) return;
  const VciEntry& e = node.mapped();
  const CallKey key = call_key(e);
  if (auto cit = call_by_key_.find(key);
      cit != call_by_key_.end() && cit->second == vci) {
    call_by_key_.erase(cit);
  }
  wait_bind_.erase(vci);
  cookies_.discard(e.cookie);
  ++stats_.calls_torn_down;
  m_torn_down_->inc();
  fsm("fsm.teardown", key, vci);
  if (e.pending_client_fd >= 0) {
    // The call died before the client ever saw its VCI: the setup span
    // closes through this failure.
    end_setup_trace(e.setup);
    if (app_conns_.contains(e.pending_client_fd)) {
      send_conn_failed(e.pending_client_fd, e.req_id, e.cookie,
                       Errc::connection_reset);
    }
  }
  if (e.originator && e.vc_id != 0) {
    (void)net_.teardown(e.vc_id);
  }
  if (notify_peer) send_peer(e.peer, MsgType::peer_teardown, e.req_id);
  // Downward path: mark the endpoint's socket unusable (and, for VCIs bound
  // to IP hosts, the anand server also writes VCI_SHUT).
  send_down_disconnect(vci, e.endpoint_ip);
  release_qos(e.qos);
  maintenance_log(key, [] {});
  record_lists();
}

// ------------------------------------------------- crash-restart recovery

util::Result<void> Sighost::recover() {
  // §5.3 has the kernel report endpoint death to a live sighost; recovery
  // inverts the flow.  A reborn sighost interrogates the kernel (live
  // PF_XUNET bindings, with their cookies) and the network controller
  // (active VCs terminating here) and rebuilds VCI_mapping from their join:
  // a VC with a surviving socket is a call worth keeping; a VC without one
  // is an orphan.
  if (cfg_.recovery_skip_audit) {
    // Chaos-harness sabotage: pretend the audit ran and found nothing.
    // Every pre-crash call's socket and VC is now orphaned — exactly the
    // cross-layer divergence core::check() must catch.
    maintenance_log({}, [] {});
    record_lists();
    return {};
  }
  // A sharded sighost audits back only the VCIs in its own residue class;
  // sibling shards reconcile theirs.  (Sub-floor sockets stay in the map so
  // the leftover scan below can still skip them explicitly.)
  std::map<atm::Vci, kern::Kernel::XunetVciInfo> socks;
  for (const auto& s : k_.audit_xunet_vcis()) {
    if (s.vci >= atm::kFirstSwitchedVci && !owns_vci(s.vci)) continue;
    socks.emplace(s.vci, s);
  }
  std::size_t rebuilt = 0;
  for (const auto& vc : net_.audit_vcs(k_.atm_address())) {
    // Provisioned channels (signaling PVCs, IP-over-ATM) all live below the
    // switched-VCI floor and are not calls — never audit them back.
    if (vc.local_vci < atm::kFirstSwitchedVci) continue;
    if (!owns_vci(vc.local_vci)) continue;  // a sibling shard's call
    auto sit = socks.find(vc.local_vci);
    if (sit == socks.end()) {
      // The VC survived our crash but its endpoint socket did not.  Only
      // the originator holds the network handle; a callee-side orphan is
      // reclaimed when the peer's PEER_RESYNC_INFO draws PEER_TEARDOWN.
      if (vc.originator) {
        (void)net_.teardown(vc.id);
        ++stats_.orphans_torn_down;
      }
      continue;
    }
    VciEntry e;
    e.originator = vc.originator;
    e.cookie = sit->second.cookie;
    e.vc_id = vc.originator ? vc.id : 0;
    e.peer = find_peer(vc.remote.name);
    e.qos = intern_qos({});
    e.confirmed = true;
    e.remote_vci = vc.remote_vci;
    e.recovered = true;  // req_id arrives via PEER_RESYNC_INFO
    vci_map_.emplace(vc.local_vci, std::move(e));
    socks.erase(sit);
    ++rebuilt;
  }
  // The join's third case: a socket whose VC is gone.  The peer tore the
  // call down while we were dead (e.g. its own recovery grace expired with
  // us unreachable), so no resync will ever claim it and no data can reach
  // it — disconnect it now or it lingers bound forever.
  for (const auto& [vci, info] : socks) {
    if (vci < atm::kFirstSwitchedVci) continue;  // PVCs are not calls
    k_.mark_vci_disconnected(vci);
    ++stats_.orphans_torn_down;
  }
  maintenance_log({}, [] {});
  for (const auto& [name, i] : peer_by_name_) send_resync(i);
  if (rebuilt > 0) {
    recovery_grace_.arm(cfg_.resync_grace,
                        [this] { expire_unclaimed_recoveries(); });
  }
  record_lists();
  return {};
}

void Sighost::send_resync(PeerIdx peer) {
  Peer& p = peers_[peer];
  if (p.resync_attempts == 0) {
    // First attempt: our reliable-channel state died with the old process,
    // so start the channel afresh.
    reset_channel(p);
    p.resync_nonce = next_resync_nonce_++;
  }
  const Msg m{.type = MsgType::peer_resync, .req_id = p.resync_nonce};
  transmit_peer(p, m, serialize(m));
  if (++p.resync_attempts > kRetransmitMaxAttempts) return;
  p.resync_timer.arm(backoff(p.resync_attempts - 1),
                     [this, peer] { send_resync(peer); });
}

void Sighost::handle_peer_resync(PeerIdx origin, const Msg& m) {
  Peer& p = peers_[origin];
  const Msg ack{.type = MsgType::peer_resync_ack, .req_id = m.req_id};
  if (m.req_id == p.last_resync_seen) {
    // Retried resync (our ack was lost).  Re-ack without resetting: the
    // RESYNC_INFOs from the first pass are sequenced and still retransmit.
    transmit_peer(p, ack, serialize(ack));
    return;
  }
  p.last_resync_seen = m.req_id;
  ++stats_.resyncs;
  // The restarted side lost all sequence state: take its numbering afresh,
  // and drop what we still owed its previous life.
  reset_channel(p);
  transmit_peer(p, ack, serialize(ack));
  // It also forgot every request an earlier incarnation had in flight with
  // us.  Request ids and resync nonces come from the same per-incarnation
  // band, so a request from a lower band than the nonce's is one of those:
  // tell its server, and answer no one.  They end in call-key text order:
  // "origin#10" before "origin#9".
  const std::uint32_t band = m.req_id >> kReqIdIncarnationShift;
  std::vector<std::pair<std::string, CallKey>> forgotten;
  for (const auto& [key, inc] : incoming_) {
    if (key.origin == origin && (key.id >> kReqIdIncarnationShift) < band) {
      forgotten.emplace_back(std::to_string(key.id), key);
    }
  }
  std::ranges::sort(forgotten);
  for (const auto& [text, key] : forgotten) {
    auto iit = incoming_.find(key);
    end_incoming(*iit, Errc::connection_reset, std::nullopt);
    incoming_.erase(iit);
  }
  if (!forgotten.empty()) record_lists();
  // A request of ours whose PEER_SETUP went out may have reached either
  // incarnation, or neither.  The new one answers a request it holds within
  // the resync grace; one it never saw fails then.
  for (auto& [id, out] : outgoing_) {
    if (out.dst == origin && out.setup_sent) {
      arm_request_watchdog(out, id, cfg_.resync_grace, Errc::connection_reset);
    }
  }
  // Report every established call we share with the restarted host so it
  // can restore req_id on the VCI entries it audited back.  The
  // map iterates ascending, preserving the replay-pinned INFO order.
  for (const auto& [vci, e] : vci_map_) {
    if (e.peer != origin || !e.confirmed || e.req_id == 0 ||
        e.remote_vci == atm::kInvalidVci) {
      continue;
    }
    // Their VCI for this call, ours, and the originator's name, so the
    // restarted side can rebuild the call key verbatim.
    send_peer(origin, Msg{.type = MsgType::peer_resync_info, .req_id = e.req_id,
                          .vci = e.remote_vci, .vci2 = vci, .qos = *e.qos,
                          .dst = origin_name(call_key(e).origin)});
  }
  maintenance_log({}, [] {});
}

void Sighost::handle_peer_resync_ack(PeerIdx origin, const Msg& m) {
  Peer& p = peers_[origin];
  if (m.req_id != p.resync_nonce) return;  // stale nonce
  p.resync_timer.cancel();
  p.resync_attempts = 0;
  p.resync_nonce = 0;
}

void Sighost::handle_peer_resync_info(PeerIdx origin, const Msg& m) {
  auto it = vci_map_.find(m.vci);
  if (it == vci_map_.end()) {
    // We audited no such call: the endpoint socket died with us.  Tell the
    // peer so it can release its half (and the VC, if it originated).
    send_peer(origin, MsgType::peer_teardown, m.req_id);
    return;
  }
  VciEntry& e = it->second;
  if (!e.recovered || e.req_id != 0) return;  // already claimed
  e.req_id = m.req_id;
  release_qos(e.qos);
  e.qos = intern_qos(m.qos);
  const CallKey key = call_key(e);
  call_by_key_[key] = m.vci;
  if (e.remote_vci == atm::kInvalidVci) e.remote_vci = m.vci2;
  ++stats_.recovered_calls;
  m_recovered_->inc();
  fsm("fsm.recovered", key, static_cast<std::int64_t>(m.vci));
  maintenance_log(key, [] {});
}

void Sighost::expire_unclaimed_recoveries() {
  // No peer claimed these audited entries within the grace window: either
  // the peer lost the call too, or it was never fully established.  Either
  // way nobody will route data over them again.
  std::vector<atm::Vci> stale;
  for (const auto& [vci, e] : vci_map_) {
    if (e.recovered && e.req_id == 0) stale.push_back(vci);
  }
  for (atm::Vci vci : stale) {
    ++stats_.orphans_torn_down;
    // No req_id the peer could match — don't notify.
    teardown_vci(vci, /*notify_peer=*/false);
  }
}

}  // namespace xunet::sig
