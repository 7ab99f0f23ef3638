#include "userlib/userlib.hpp"

#include <algorithm>

namespace xunet::app {

using sig::Msg;
using sig::MsgType;
using util::Errc;

namespace {

/// A call's outcome as sighost reports it, on the signaling channel and on
/// a per-call connection alike: VCI_FOR_CONN carries the VC, CONN_FAILED
/// its reason (0 names no failure, so it reads as a refusal).
util::Result<OpenResult> open_result(const Msg& m) {
  if (m.type == MsgType::conn_failed) {
    return m.error == 0 ? Errc::rejected : static_cast<Errc>(m.error);
  }
  OpenResult r;
  r.vci = m.vci;
  r.cookie = m.cookie;
  r.qos = m.qos;
  return r;
}

}  // namespace

UserLib::UserLib(kern::Kernel& k, kern::Pid pid, ip::IpAddress sighost_ip,
                 std::uint16_t sighost_port)
    : k_(k), pid_(pid), sighost_ip_(sighost_ip), sighost_port_(sighost_port),
      obs_(&k.simulator().obs()) {}

// ------------------------------------------------------ signaling channel

void UserLib::ensure_channel(std::function<void(util::Result<void>)> then) {
  if (chan_ready_) {
    then({});
    return;
  }
  chan_waiters_.push_back(std::move(then));
  if (chan_connecting_) return;
  chan_connecting_ = true;
  auto fd = k_.tcp_connect(
      pid_, sighost_ip_, sighost_port_, [this](util::Result<int> r) {
        chan_connecting_ = false;
        auto waiters = std::move(chan_waiters_);
        chan_waiters_.clear();
        if (!r) {
          chan_fd_ = -1;
          for (auto& w : waiters) w(r.error());
          return;
        }
        chan_ready_ = true;
        chan_framer_ = std::make_unique<sig::MsgFramer>(
            [this](const Msg& m) { on_channel_msg(m); });
        (void)k_.tcp_on_receive(pid_, chan_fd_, [this](util::BytesView data) {
          chan_framer_->feed(data);
        });
        (void)k_.tcp_on_close(pid_, chan_fd_, [this](util::Errc) {
          chan_ready_ = false;
          int fd = chan_fd_;
          chan_fd_ = -1;
          (void)k_.close(pid_, fd);
          // Outstanding RPCs die with the channel.
          auto opens = std::move(opens_);
          opens_.clear();
          for (auto& [id, po] : opens) {
            XOBS_END(obs_, po.span);
            po.on_done(Errc::connection_reset);
          }
          auto waiting = std::move(awaiting_req_id_);
          awaiting_req_id_.clear();
          for (auto& po : waiting) {
            XOBS_END(obs_, po.span);
            if (po.on_req_id) po.on_req_id(Errc::connection_reset);
            po.on_done(Errc::connection_reset);
          }
          auto regs = std::move(pending_registrations_);
          pending_registrations_.clear();
          for (auto& cb : regs) cb(Errc::connection_reset);
          if (on_channel_down_) on_channel_down_();
        });
        for (auto& w : waiters) w(util::ok_result());
      });
  if (!fd) {
    chan_connecting_ = false;
    auto waiters = std::move(chan_waiters_);
    chan_waiters_.clear();
    for (auto& w : waiters) w(fd.error());
    return;
  }
  chan_fd_ = *fd;
}

void UserLib::channel_send(const Msg& m) {
  (void)k_.tcp_send(pid_, chan_fd_, sig::frame(m));
}

void UserLib::on_channel_msg(const Msg& m) {
  switch (m.type) {
    case MsgType::service_regs: {
      if (!pending_registrations_.empty()) {
        auto cb = std::move(pending_registrations_.front());
        pending_registrations_.pop_front();
        cb(util::ok_result());
      }
      break;
    }
    case MsgType::req_id: {
      // REQ_ID carries the new request id and cookie; adopt them onto the
      // oldest CONNECT_REQ without an id (TCP ordering makes this exact).
      if (awaiting_req_id_.empty()) break;
      PendingOpen po = std::move(awaiting_req_id_.front());
      awaiting_req_id_.pop_front();
      if (po.on_req_id) po.on_req_id(m.cookie);
      // REQ_ID carries the originating sighost's name in `dst`: now the
      // end-to-end call key exists, patch it onto the open span.
      if (XOBS_TRACING(obs_) && po.span != obs::kInvalidSpan) {
        obs_->trace().annotate_call(po.span, sig::call_name(m.dst, m.req_id));
      }
      opens_.emplace(m.req_id, std::move(po));
      break;
    }
    case MsgType::vci_for_conn:
    case MsgType::conn_failed: {
      auto it = opens_.find(m.req_id);
      if (it == opens_.end()) break;
      PendingOpen po = std::move(it->second);
      opens_.erase(it);
      XOBS_END(obs_, po.span);
      po.on_done(open_result(m));
      break;
    }
    default:
      break;
  }
}

// -------------------------------------------------------------- server side

void UserLib::export_service(const std::string& name,
                             std::uint16_t notify_port, VoidFn on_done) {
  if (sig::wire_size(name.size()) > sig::kMaxMsgBytes) {
    on_done(Errc::message_too_long);  // its EXPORT_SRV could not be framed
    return;
  }
  // create_receive_connection: listen once for per-call connections.
  if (notify_listen_fd_ < 0) {
    auto lfd = k_.tcp_listen(pid_, notify_port, [this](int fd) {
      PerCall pc;
      pc.framer = std::make_shared<sig::MsgFramer>(
          [this, fd](const Msg& m) { on_percall_msg(fd, m); });
      percall_.emplace(fd, std::move(pc));
      (void)k_.tcp_on_receive(pid_, fd, [this, fd](util::BytesView data) {
        if (auto it = percall_.find(fd); it != percall_.end()) {
          // Pin the framer: a handled message may erase this per-call entry.
          auto framer = it->second.framer;
          framer->feed(data);
        }
      });
      (void)k_.tcp_on_close(pid_, fd, [this, fd](util::Errc) {
        auto it = percall_.find(fd);
        if (it != percall_.end()) {
          XOBS_END(obs_, it->second.span);
          if (it->second.accept_cb) {
            it->second.accept_cb(Errc::connection_reset);
          }
          percall_.erase(it);
        }
        (void)k_.close(pid_, fd);
      });
    });
    if (!lfd) {
      on_done(lfd.error());
      return;
    }
    notify_listen_fd_ = *lfd;
  }

  ensure_channel([this, name, notify_port,
                  on_done = std::move(on_done)](util::Result<void> r) mutable {
    if (!r) {
      on_done(r.error());
      return;
    }
    pending_registrations_.push_back(std::move(on_done));
    Msg m;
    m.type = MsgType::export_srv;
    m.service = name;
    m.port = notify_port;
    channel_send(m);
  });
}

void UserLib::unexport_service(const std::string& name, VoidFn on_done) {
  ensure_channel([this, name,
                  on_done = std::move(on_done)](util::Result<void> r) mutable {
    if (!r) {
      on_done(r.error());
      return;
    }
    pending_registrations_.push_back(std::move(on_done));
    Msg m;
    m.type = MsgType::withdraw_srv;
    m.service = name;
    channel_send(m);
  });
}

void UserLib::on_percall_msg(int fd, const Msg& m) {
  auto it = percall_.find(fd);
  if (it == percall_.end()) return;
  switch (m.type) {
    case MsgType::incoming_conn: {
      IncomingRequest req;
      req.cookie = m.cookie;
      req.service = m.service;
      req.comment = m.comment;
      req.qos = m.qos;
      req.origin = m.dst;
      req.conn_fd = fd;
      if (waiting_await_) {
        auto cb = std::move(waiting_await_);
        waiting_await_ = {};
        cb(req);
      } else {
        request_queue_.push_back(std::move(req));
      }
      break;
    }
    case MsgType::vci_for_conn:
    case MsgType::conn_failed: {
      XOBS_END(obs_, it->second.span);
      it->second.span = obs::kInvalidSpan;
      if (it->second.accept_cb) {
        auto cb = std::move(it->second.accept_cb);
        it->second.accept_cb = {};
        cb(open_result(m));
      }
      finish_percall(fd);
      break;
    }
    default:
      break;
  }
}

void UserLib::finish_percall(int fd) {
  // "This descriptor is kept open for the duration of connection
  // establishment and then immediately closed" — the active close that
  // parks the descriptor in TIME_WAIT for 2×MSL.
  percall_.erase(fd);
  (void)k_.close(pid_, fd);
}

void UserLib::await_service_request(RequestFn on_request) {
  if (!request_queue_.empty()) {
    IncomingRequest req = std::move(request_queue_.front());
    request_queue_.pop_front();
    on_request(std::move(req));
    return;
  }
  if (waiting_await_) {
    on_request(Errc::would_block);
    return;
  }
  waiting_await_ = std::move(on_request);
}

void UserLib::accept_connection(const IncomingRequest& req,
                                const std::string& qos, OpenFn on_done) {
  auto it = percall_.find(req.conn_fd);
  if (it == percall_.end()) {
    on_done(Errc::connection_reset);  // call withdrawn meanwhile
    return;
  }
  it->second.accept_cb = std::move(on_done);
  // Server-observed establishment: accept sent → VCI (or failure) back.
  obs::TraceIds ids;
  ids.fd = req.conn_fd;
  ids.pid = pid_;
  it->second.span =
      XOBS_BEGIN(obs_, "stub", "call.accept", k_.name(), std::move(ids));
  Msg m;
  m.type = MsgType::accept_conn;
  m.cookie = req.cookie;
  m.qos = qos;
  (void)k_.tcp_send(pid_, req.conn_fd, sig::frame(m));
}

void UserLib::reject_connection(const IncomingRequest& req,
                                Completion<void> done) {
  if (!percall_.contains(req.conn_fd)) {
    if (done) done(Errc::not_found);  // unknown or already decided
    return;
  }
  Msg m;
  m.type = MsgType::reject_conn;
  m.cookie = req.cookie;
  (void)k_.tcp_send(pid_, req.conn_fd, sig::frame(m));
  finish_percall(req.conn_fd);
  if (done) done(util::ok_result());
}

// -------------------------------------------------------------- client side

void UserLib::open_connection(const std::string& dst,
                              const std::string& service,
                              const std::string& comment,
                              const std::string& qos, OpenFn on_done,
                              CookieFn on_req_id) {
  // Legacy single-attempt signature: delegate to the OpenOptions path.
  // Default options carry a zero deadline, which retry_open turns into
  // exactly one attempt.
  open_connection(dst, service, comment, qos, OpenOptions{},
                  std::move(on_done), std::move(on_req_id));
}

void UserLib::open_once(const std::string& dst, const std::string& service,
                        const std::string& comment, const std::string& qos,
                        OpenFn on_done, CookieFn on_req_id) {
  // The client-observed end-to-end open: open_connection called → VCI (or
  // failure) delivered.  The call key is unknown until REQ_ID arrives; the
  // span is annotated with it then.  The stub is the root of the causal
  // call tree: it mints the trace id every downstream hop will carry.
  const std::uint64_t trace_id =
      obs_ != nullptr ? obs_->trace().new_trace() : 0;
  obs::TraceIds span_ids;
  span_ids.pid = pid_;
  span_ids.trace_id = trace_id;
  obs::SpanId span =
      XOBS_BEGIN(obs_, "stub", "call.open", k_.name(), std::move(span_ids));
  ensure_channel([this, dst, service, comment, qos, span, trace_id,
                  on_done = std::move(on_done),
                  on_req_id = std::move(on_req_id)](util::Result<void> r) mutable {
    if (!r) {
      XOBS_END(obs_, span);
      if (on_req_id) on_req_id(r.error());  // no cookie will ever exist
      on_done(r.error());
      return;
    }
    // Requests are answered strictly in order over the TCP channel, so a
    // FIFO of not-yet-identified requests correlates CONNECT_REQ to REQ_ID.
    PendingOpen po;
    po.on_done = std::move(on_done);
    po.on_req_id = std::move(on_req_id);
    po.span = span;
    awaiting_req_id_.push_back(std::move(po));
    Msg m;
    m.type = MsgType::connect_req;
    m.dst = dst;
    m.service = service;
    m.comment = comment;
    m.qos = qos;
    // Causal propagation: the sighost's call.setup hop becomes a child of
    // this stub's call.open span.
    m.trace_id = trace_id;
    m.parent_span = span;
    channel_send(m);
  });
}

bool UserLib::transient_error(util::Errc e) noexcept {
  switch (e) {
    case Errc::connection_reset:   // signaling channel died mid-request
    case Errc::connection_refused: // sighost not yet listening after restart
    case Errc::not_connected:
    case Errc::timed_out:          // sighost request watchdog fired
    case Errc::no_buffer_space:    // request shed under overload
    case Errc::no_route:           // trunk cut; heals when the fault does
      return true;
    default:
      return false;
  }
}

void UserLib::open_connection(const std::string& dst,
                              const std::string& service,
                              const std::string& comment,
                              const std::string& qos, const OpenOptions& opts,
                              OpenFn on_done, CookieFn on_req_id) {
  // A typed contract in the options wins over the freeform string: render
  // it to the wire format once, here, so every retry carries it.
  retry_open(std::make_shared<OpenRequest>(OpenRequest{
                 dst, service, comment,
                 opts.qos.has_value() ? atm::to_string(*opts.qos) : qos,
                 k_.simulator().now() + opts.deadline, opts.retry_backoff_max,
                 std::move(on_done), std::move(on_req_id)}),
             opts.retry_backoff);
}

void UserLib::retry_open(std::shared_ptr<OpenRequest> req,
                         sim::SimDuration backoff) {
  if (sig::wire_size(req->dst.size() + req->service.size() +
                     req->comment.size() + req->qos.size()) > sig::kMaxMsgBytes) {
    // Its CONNECT_REQ could not be framed: a wrapped length prefix would
    // desynchronise the channel and lose the requests behind it.
    if (req->on_req_id) req->on_req_id(Errc::message_too_long);
    req->on_done(Errc::message_too_long);
    return;
  }
  CookieFn per_attempt;
  if (req->on_req_id) {
    per_attempt = [req](util::Result<sig::Cookie> c) { req->on_req_id(std::move(c)); };
  }
  open_once(
      req->dst, req->service, req->comment, req->qos,
      [this, req, backoff](util::Result<OpenResult> r) {
        if (r || !transient_error(r.error())) {
          req->on_done(std::move(r));
          return;
        }
        sim::Simulator& sim = k_.simulator();
        if (sim.now() + backoff >= req->give_up || !k_.alive(pid_)) {
          req->on_done(r.error());  // budget exhausted: the failure is final
          return;
        }
        const sim::SimDuration next = std::min(backoff + backoff, req->backoff_max);
        sim.schedule(backoff, [this, req, next] { retry_open(req, next); });
      },
      std::move(per_attempt));
}

void UserLib::cancel_request(sig::Cookie cookie, Completion<void> done) {
  if (!chan_ready_) {
    // No channel means no request of ours can be outstanding at sighost.
    if (done) done(Errc::not_connected);
    return;
  }
  Msg m;
  m.type = MsgType::cancel_req;
  m.cookie = cookie;
  channel_send(m);
  if (done) done(util::ok_result());
}

// ------------------------------------------------------ data-socket helpers

util::Result<int> UserLib::connect_data_socket(const OpenResult& r) {
  auto fd = k_.xunet_socket(pid_);
  if (!fd) return fd.error();
  if (auto rc = k_.xunet_connect(pid_, *fd, r.vci, r.cookie); !rc) {
    (void)k_.close(pid_, *fd);
    return rc.error();
  }
  return *fd;
}

util::Result<int> UserLib::bind_data_socket(const OpenResult& r) {
  auto fd = k_.xunet_socket(pid_);
  if (!fd) return fd.error();
  if (auto rc = k_.xunet_bind(pid_, *fd, r.vci, r.cookie); !rc) {
    (void)k_.close(pid_, *fd);
    return rc.error();
  }
  return *fd;
}

}  // namespace xunet::app
