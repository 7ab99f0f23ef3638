// userlib.hpp — the user library of §8.
//
// "Our goal was to make it easy for an application developed over TCP/IP
// and BSD sockets to be ported to PF_XUNET.  This is achieved by hiding the
// message exchanges between the application and the signaling entity in a
// user library."  A server needs export_service / await_service_request /
// accept_connection (Figure 5); a client needs only open_connection
// (Figure 6).  This simulation is event-driven, so the blocking calls of
// the paper become completion callbacks; the message exchanges they hide
// are identical.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "atm/qos.hpp"
#include "kern/kernel.hpp"
#include "signaling/messages.hpp"
#include "signaling/stub_proto.hpp"

namespace xunet::app {

/// An incoming call delivered to a server (the INCOMING_CONN payload plus
/// the per-call connection it arrived on).
struct IncomingRequest {
  sig::Cookie cookie = 0;
  std::string service;
  std::string comment;
  std::string qos;     ///< the QoS the client asked for
  std::string origin;  ///< ATM address of the caller's sighost (for return calls)
  int conn_fd = -1;    ///< per-call TCP connection from sighost
};

/// Outcome of a successful open/accept: everything needed to attach a
/// PF_XUNET socket to the call.
struct OpenResult {
  atm::Vci vci = atm::kInvalidVci;
  sig::Cookie cookie = 0;
  std::string qos;  ///< the negotiated (possibly modified) QoS
};

/// Deadline-budgeted call setup: how long open_connection may keep retrying
/// transient failures (crashed sighost, shed request, lost reply) before
/// giving up for good.  The budget is what makes call-setup liveness a
/// checkable invariant: once faults heal, every open must resolve — success
/// or definitive failure — within `deadline` of being issued.
struct OpenOptions {
  /// Total budget including retries; zero means a single attempt.
  sim::SimDuration deadline{};
  /// First retry delay; doubles per retry up to `retry_backoff_max`.
  sim::SimDuration retry_backoff = sim::milliseconds(200);
  sim::SimDuration retry_backoff_max = sim::seconds(2);
  /// Typed traffic contract.  When set, it is rendered to the wire string
  /// and OVERRIDES the `qos` string argument of open_connection — callers
  /// with a structured contract (class + bandwidth + PCR/SCR/MBS) need not
  /// hand-assemble key=value text.  The wire format is unchanged either
  /// way; servers see the same string.
  std::optional<atm::Qos> qos;
};

/// The library.  One instance per application process.
class UserLib {
 public:
  /// Every UserLib completion has one shape: a callback taking a
  /// util::Result<T>.  The historical aliases below are all instances.
  template <typename T>
  using Completion = std::function<void(util::Result<T>)>;

  using VoidFn = Completion<void>;
  using OpenFn = Completion<OpenResult>;
  using RequestFn = Completion<IncomingRequest>;
  using CookieFn = Completion<sig::Cookie>;

  /// `sighost_ip` is the nearest router's address (where sighost runs).
  UserLib(kern::Kernel& k, kern::Pid pid, ip::IpAddress sighost_ip,
          std::uint16_t sighost_port = sig::kSighostPort);

  // -- server side (Figure 5) ----------------------------------------------

  /// Register `name` with the signaling entity and start listening on
  /// `notify_port` for forwarded incoming calls (this call performs both
  /// the paper's export_service and create_receive_connection).  A name
  /// too long for one EXPORT_SRV fails at once with message_too_long.
  void export_service(const std::string& name, std::uint16_t notify_port,
                      VoidFn on_done);

  /// Withdraw a previously exported service name; new calls to it fail
  /// with not_found.  Established calls are unaffected.
  void unexport_service(const std::string& name, VoidFn on_done);

  /// Deliver the next incoming call (immediately if one is queued).  Only
  /// one await may be outstanding at a time; a second call fails with
  /// would_block through the callback.
  void await_service_request(RequestFn on_request);

  /// Accept a call, optionally shrinking the client's QoS.  The callback
  /// receives the VCI to bind to.  The per-call connection is closed
  /// immediately afterwards (§10: "kept open for the duration of connection
  /// establishment and then immediately closed").
  void accept_connection(const IncomingRequest& req, const std::string& qos,
                         OpenFn on_done);

  /// Decline a call.  `done` (optional) reports the outcome: ok when the
  /// rejection was sent, not_found when the call is unknown or already
  /// decided (a double reject is a no-op).
  void reject_connection(const IncomingRequest& req,
                         Completion<void> done = {});

  // -- client side (Figure 6) ------------------------------------------------

  /// Connect to <dst, service, QoS>.  Single-attempt convenience shim:
  /// delegates to the OpenOptions overload below with default options
  /// (deadline zero ⇒ exactly one attempt, no retries).  `on_req_id`
  /// (optional) fires early with the request's cookie so the caller can
  /// cancel_request() it.
  void open_connection(const std::string& dst, const std::string& service,
                       const std::string& comment, const std::string& qos,
                       OpenFn on_done, CookieFn on_req_id = {});

  /// THE open entry point.  Retries transient failures (see
  /// transient_error) under exponential backoff until success, a permanent
  /// error, or `opts.deadline` elapsing — whichever comes first.  `on_done`
  /// fires exactly once.  `on_req_id` fires once per attempt: with the
  /// attempt's cookie when REQ_ID arrives (the latest cookie is the one
  /// cancel_request() accepts), or with connection_reset when the
  /// signaling channel drops before it does.  Strings too long for one
  /// CONNECT_REQ (sig::kMaxMsgBytes) fail at once with message_too_long.
  void open_connection(const std::string& dst, const std::string& service,
                       const std::string& comment, const std::string& qos,
                       const OpenOptions& opts, OpenFn on_done,
                       CookieFn on_req_id = {});

  /// Transient-error classification for the retry loop.  Transient (worth
  /// retrying once faults heal):
  ///   - connection_reset   — the signaling channel died mid-request
  ///                          (sighost crash); heals on restart + resync
  ///   - connection_refused — sighost not yet listening after a restart
  ///   - not_connected      — no signaling channel at attempt time
  ///   - timed_out          — sighost's request watchdog fired (partition,
  ///                          dead peer); may succeed when the path heals
  ///   - no_buffer_space    — request shed by bounded-queue overload
  ///                          control; succeeds once load drains
  ///   - no_route           — trunk cut; heals when the fault does
  /// Everything else is definitive and is never retried — notably
  /// not_found (no such service), rejected (callee declined),
  /// no_resources (admission control refused the QoS), cancelled.
  [[nodiscard]] static bool transient_error(util::Errc e) noexcept;

  /// Withdraw an outstanding open_connection by its cookie.  `done`
  /// (optional) reports the outcome: ok when the cancel was sent,
  /// not_connected when the signaling channel is not up (nothing to
  /// cancel could be outstanding then).
  void cancel_request(sig::Cookie cookie, Completion<void> done = {});

  /// Fires when the persistent signaling channel to sighost drops (after
  /// all outstanding RPCs have been failed with connection_reset).  A
  /// server uses this to re-export its services once sighost comes back;
  /// the next ensure_channel() reconnects automatically.
  void set_channel_down(std::function<void()> fn) {
    on_channel_down_ = std::move(fn);
  }

  // -- data-socket helpers (the socket()/bind()/connect() lines of §8) -----

  /// Client side: create a PF_XUNET socket and connect it to the call.
  [[nodiscard]] util::Result<int> connect_data_socket(const OpenResult& r);
  /// Server side: create a PF_XUNET socket and bind it to the call.
  [[nodiscard]] util::Result<int> bind_data_socket(const OpenResult& r);

  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }

 private:
  struct PendingOpen {
    OpenFn on_done;
    CookieFn on_req_id;  ///< fired by REQ_ID, or by the channel dropping first
    obs::SpanId span = obs::kInvalidSpan;  ///< "call.open" stub span
  };
  struct PerCall {  // a per-call conn from sighost (server side)
    /// shared_ptr: the receive path pins the framer across feed() so a
    /// message handler that closes this per-call conn (finish_percall)
    /// cannot destroy the framer out from under its own stack frame.
    std::shared_ptr<sig::MsgFramer> framer;
    OpenFn accept_cb;  ///< set once the app accepts
    obs::SpanId span = obs::kInvalidSpan;  ///< "call.accept" stub span
  };

  void ensure_channel(std::function<void(util::Result<void>)> then);
  /// One CONNECT_REQ attempt over the signaling channel — the code path
  /// every public open_connection overload funnels into via retry_open.
  void open_once(const std::string& dst, const std::string& service,
                 const std::string& comment, const std::string& qos,
                 OpenFn on_done, CookieFn on_req_id);
  /// One open_connection across its attempts, which share it: what each
  /// sends (`qos` in wire form) and whom the outcome goes to.
  struct OpenRequest {
    std::string dst, service, comment, qos;
    sim::SimTime give_up;
    sim::SimDuration backoff_max;
    OpenFn on_done;
    CookieFn on_req_id;
  };
  void retry_open(std::shared_ptr<OpenRequest> req, sim::SimDuration backoff);
  void channel_send(const sig::Msg& m);
  void on_channel_msg(const sig::Msg& m);
  void on_percall_msg(int fd, const sig::Msg& m);
  void finish_percall(int fd);

  kern::Kernel& k_;
  kern::Pid pid_;
  ip::IpAddress sighost_ip_;
  std::uint16_t sighost_port_;
  obs::Observability* obs_ = nullptr;

  // Persistent signaling channel.
  int chan_fd_ = -1;
  bool chan_ready_ = false;
  bool chan_connecting_ = false;
  std::unique_ptr<sig::MsgFramer> chan_framer_;
  std::vector<std::function<void(util::Result<void>)>> chan_waiters_;

  std::function<void()> on_channel_down_;

  std::deque<VoidFn> pending_registrations_;
  std::deque<PendingOpen> awaiting_req_id_;  ///< CONNECT_REQs without REQ_ID yet
  std::map<sig::ReqId, PendingOpen> opens_;

  int notify_listen_fd_ = -1;
  std::map<int, PerCall> percall_;
  std::deque<IncomingRequest> request_queue_;
  RequestFn waiting_await_;
};

}  // namespace xunet::app
