// sighost.hpp — the signaling entity (§6–§7).
//
// One sighost runs in user space on each router and "serves applications
// running on the router as well as any number of applications running on
// hosts connected over IP".  It acts only in response to messages from the
// user library (TCP), the local or remote kernel (via the anand stubs), or
// its peer sighosts (over a signaling PVC).  Internal state lives in the
// paper's five lists: service_list, outgoing_requests, incoming_requests,
// wait_for_bind and VCI_mapping.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "atm/network.hpp"
#include "kern/kernel.hpp"
#include "obs/obs.hpp"
#include "signaling/cookie.hpp"
#include "signaling/messages.hpp"
#include "signaling/stub_proto.hpp"
#include "sim/timer.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"

namespace xunet::sig {

/// Statistics exported for the experiments.
struct SighostStats {
  std::uint64_t calls_established = 0;
  std::uint64_t calls_torn_down = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t bind_timeouts = 0;
  std::uint64_t rejects_sent = 0;
  std::uint64_t cancels = 0;
  std::uint64_t services_registered = 0;
  std::uint64_t setup_failures = 0;
  std::uint64_t request_timeouts = 0;
  // Reliable peer delivery.
  std::uint64_t retransmits = 0;      ///< sequenced messages re-sent
  std::uint64_t dup_suppressed = 0;   ///< duplicates dropped by the receiver
  std::uint64_t retx_abandoned = 0;   ///< messages given up after max attempts
  std::uint64_t peer_parse_errors = 0;///< unparseable frames off the PVC
  // Overload shedding.
  std::uint64_t sheds = 0;            ///< requests rejected while at capacity
  // Crash-restart recovery.
  std::uint64_t resyncs = 0;          ///< PEER_RESYNCs honored from peers
  std::uint64_t recovered_calls = 0;  ///< calls rebuilt after our restart
  std::uint64_t orphans_torn_down = 0;///< dangling VCs reclaimed on recovery
};

struct SighostConfig {
  std::uint16_t port = kSighostPort;
  /// §7.2: per-VCI timer loaded when a VCI is handed to an application;
  /// "if no bind (resp. connect) indication is received before timeout,
  /// the connection is torn down."
  sim::SimDuration wait_for_bind_timeout = sim::seconds(10);
  /// How long a CONNECT_REQ may stay unresolved (no PEER_ACCEPT/REJECT and
  /// no VC) before the originating sighost fails it back to the client.
  /// Guards against unreachable peers (e.g. a cut signaling PVC).
  sim::SimDuration request_timeout = sim::seconds(30);
  /// §9: "the large amount of maintenance information logged per call"
  /// dominates the ~330 ms call-establishment time.  Charged once per
  /// call at each sighost; 128 ms calibrates end-to-end setup to the
  /// paper's ~330 ms on the canonical testbed.  The §5 ablation bench
  /// sets it to zero.
  sim::SimDuration per_call_log_cost = sim::milliseconds(128);
  bool maintenance_logging = true;
  /// Bounded-queue overload shedding: a CONNECT_REQ (resp. PEER_SETUP)
  /// arriving while outgoing_requests (resp. incoming_requests) is at this
  /// limit is rejected with no_buffer_space instead of growing the list.
  std::size_t max_outgoing_requests = 256;
  std::size_t max_incoming_requests = 256;
  /// After a crash-restart recovery, audited calls not claimed by any
  /// peer's PEER_RESYNC_INFO within this grace period are torn down.
  sim::SimDuration resync_grace = sim::seconds(5);
  /// TEST-ONLY sabotage seam for the chaos harness: recover() skips the
  /// kernel/network audit, leaving every pre-crash call's kernel socket and
  /// network VC orphaned.  The chaos acceptance test plants this fault and
  /// asserts core::check() finds it; never set it in real scenarios.
  bool recovery_skip_audit = false;
  /// Control-plane sharding: run `shard_count` sighosts per router, each
  /// owning the residue class `vci % shard_count == shard_id` of the
  /// switched VCI space.  Shard s listens on `port + s`, provisions its own
  /// per-shard PVC mesh to the matching shard of every peer router, asks
  /// the network for VCIs in its own class (so both endpoints of a call
  /// land on shard s), and recovers/audits only the VCIs it owns.  The
  /// defaults keep the paper's one-sighost-per-router topology unchanged.
  std::uint16_t shard_count = 1;
  std::uint16_t shard_id = 0;
};

/// What a wire-fault hook may do to one peer signaling message about to be
/// transmitted on the PVC (the fault-injection seam src/fault drives).
enum class WireFault : std::uint8_t {
  deliver,    ///< pass through untouched
  drop,       ///< lose the frame
  duplicate,  ///< deliver it twice
  corrupt,    ///< flip one byte of the serialized frame
  delay,      ///< hold it back (reordering: later frames overtake it)
};
struct WireVerdict {
  WireFault fault = WireFault::deliver;
  sim::SimDuration delay{};  ///< extra latency when fault == delay
};

/// The signaling entity.
class Sighost {
 public:
  /// Trace hook for the message-sequence-chart bench: fires for every
  /// signaling message sent or received ("dir" is "->" send, "<-" receive).
  using TraceFn = std::function<void(std::string_view dir, std::string_view peer,
                                     const Msg& m)>;
  /// Fault-injection hook, consulted for every peer message (including
  /// retransmissions) at the moment it hits the wire.
  using WireFaultFn = std::function<WireVerdict(
      const std::string& self, const std::string& peer, const Msg& m)>;

  Sighost(kern::Kernel& router, atm::AtmNetwork& net,
          SighostConfig cfg = SighostConfig{});
  ~Sighost();
  Sighost(const Sighost&) = delete;
  Sighost& operator=(const Sighost&) = delete;

  /// Spawn the sighost process, listen for applications, attach to the
  /// anand server (which must already be running on this router).
  util::Result<void> start();

  /// Provision the signaling channel to a peer sighost over a PVC pair.
  /// `send_vci`/`recv_vci` are this router's VCIs on its uplink/downlink.
  util::Result<void> add_peer(const atm::AtmAddress& peer, atm::Vci send_vci,
                              atm::Vci recv_vci);

  void set_trace(TraceFn fn) { trace_ = std::move(fn); }
  void set_wire_fault(WireFaultFn fn) { wire_fault_ = std::move(fn); }

  /// Crash-restart recovery (§5.3 in reverse): audit the kernel's live
  /// PF_XUNET bindings and the network controller's active VCs, rebuild
  /// VCI_mapping from their intersection, tear down VCs with no surviving
  /// socket, and ask every peer to resynchronize its reliable channel and
  /// report the calls it shares with us.  Call after start() + add_peer()s
  /// on a freshly constructed sighost replacing a crashed one.
  util::Result<void> recover();

  // -- the five lists (sizes; used by tests and leak audits) ---------------
  [[nodiscard]] std::size_t service_list_size() const noexcept { return services_.size(); }
  [[nodiscard]] std::size_t outgoing_requests_size() const noexcept { return outgoing_.size(); }
  [[nodiscard]] std::size_t incoming_requests_size() const noexcept { return incoming_.size(); }
  [[nodiscard]] std::size_t wait_for_bind_size() const noexcept { return wait_bind_.size(); }
  [[nodiscard]] std::size_t vci_mapping_size() const noexcept { return vci_map_.size(); }
  /// VCI_mapping keys in iteration order.  The resync path
  /// (handle_peer_resync emitting PEER_RESYNC_INFO per shared call) and the
  /// management report both walk vci_map_ in this order, so deterministic
  /// replay requires it to be ascending — the map's order — and the
  /// recovery tests pin the contract.
  [[nodiscard]] std::vector<atm::Vci> vci_mapping_vcis() const {
    std::vector<atm::Vci> out;
    out.reserve(vci_map_.size());
    for (const auto& [vci, e] : vci_map_) out.push_back(vci);
    return out;
  }
  /// Sharding: does this sighost own `vci`'s residue class?
  [[nodiscard]] bool owns_vci(atm::Vci vci) const noexcept {
    return cfg_.shard_count <= 1 ||
           vci % cfg_.shard_count == cfg_.shard_id;
  }
  [[nodiscard]] const SighostConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] bool has_service(const std::string& name) const {
    return services_.contains(name);
  }

  /// §5.1: "Signaling state information is easily available and can be
  /// used by network management software."  A human-readable dump of the
  /// five lists and counters.
  [[nodiscard]] std::string management_report() const;

  // -- cross-layer audit surface (core::capture) -----------------------------
  /// One VCI_mapping entry flattened for audits: only what core::check()
  /// reads, no live handles.
  struct VciAuditEntry {
    atm::Vci vci = atm::kInvalidVci;
    std::string call_key;
    bool confirmed = false;
    bool recovered = false;
    ip::IpAddress endpoint_ip;  ///< 0 = the socket lives on this router
  };
  /// The call lists flattened into value types, every vector sorted, so
  /// core::check() can cross-audit signaling state against the kernel,
  /// network and switch layers without reaching into live records.
  struct ListSnapshot {
    std::vector<std::string> outgoing_calls;  ///< call keys ("self#req_id")
    std::vector<std::string> incoming_calls;  ///< call keys
    std::vector<atm::Vci> wait_for_bind;
    std::vector<VciAuditEntry> vci_mapping;   ///< ascending VCI
  };
  [[nodiscard]] ListSnapshot audit_snapshot() const;

  [[nodiscard]] const SighostStats& stats() const noexcept { return stats_; }
  /// Sequence numbers from `peer` held above the delivered floor (the
  /// duplicate window's backlog); 0 for an unknown peer.
  [[nodiscard]] std::size_t recv_backlog(const std::string& peer) const {
    const PeerIdx i = find_peer(peer);
    return i == kNoPeer ? 0 : peers_[i].recv_above.size();
  }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }
  [[nodiscard]] const atm::AtmAddress& address() const noexcept {
    return k_.atm_address();
  }

 private:
  // ---- call identity ----
  /// A peer sighost: its position in peers_, in add_peer order.  Each peer
  /// takes two of the PVC VCIs below 1024, so no index nears kNoPeer.
  using PeerIdx = std::uint16_t;
  static constexpr PeerIdx kSelf = 0xFFFF;    ///< this sighost
  static constexpr PeerIdx kNoPeer = 0xFFFE;  ///< a name that is no peer of ours
  /// A call: its originating sighost and that sighost's request id (0 names
  /// no call).  Its text "origin#id" is rendered only where it is emitted.
  struct CallKey {
    PeerIdx origin = kNoPeer;
    ReqId id = 0;
    auto operator<=>(const CallKey&) const = default;
  };

  // ---- records ----
  struct Service {
    ip::IpAddress server_ip;
    std::uint16_t notify_port = 0;
  };
  /// Originator-side "call.setup" span (CONNECT_REQ in → VCI_FOR_CONN out)
  /// and its start, for the setup-latency histogram.  Carried by the call's
  /// outgoing_requests record, then by its VCI_mapping entry until
  /// PEER_BOUND releases the client's VCI.
  struct SetupTrace {
    obs::SpanId span = obs::kInvalidSpan;
    sim::SimTime begin{};
  };
  struct Outgoing {  // outgoing_requests: client request awaiting peer reply
    int client_fd = -1;
    bool setup_sent = false;  ///< PEER_SETUP has gone out to the peer
    PeerIdx dst = kNoPeer;
    Cookie client_cookie = 0;
    SetupTrace setup;
    sim::Timer timer;  ///< request_timeout watchdog
  };
  struct Incoming {  // incoming_requests: call awaiting server accept/reject
    int server_fd = -1;  ///< per-call TCP connection to the server
    Cookie server_cookie = 0;
    bool decided = false;
    /// Callee-side "call.serve" span, open from PEER_SETUP arrival until the
    /// call is established, rejected, failed, cancelled or timed out; every
    /// path that erases this record ends it.
    obs::SpanId serve_span = obs::kInvalidSpan;
    std::uint64_t trace_id = 0;  ///< the call's causal trace (from PEER_SETUP)
    sim::Timer timer;  ///< watchdog against a lost reply
  };
  struct WaitBind {  // wait_for_bind: VCI handed out, no indication yet
    sim::Timer timer;
  };
  struct VciEntry {  // VCI_mapping: live (or establishing) calls by VCI
    /// With `originator` and `peer`, names the end-to-end call (see
    /// call_key(const VciEntry&)); 0 on a recovered entry no peer has
    /// claimed yet.
    ReqId req_id = 0;
    PeerIdx peer = kNoPeer;
    Cookie cookie = 0;    ///< the call's §7.1 capability
    atm::VcId vc_id = 0;  ///< network handle; only at the originator
    const std::string* qos = nullptr;  ///< granted QoS text (see intern_qos)
    SetupTrace setup;  ///< open while pending_client_fd >= 0
    /// Originator side: the client's VCI_FOR_CONN is held back until the
    /// callee reports PEER_BOUND, so data can never beat the server's bind.
    int pending_client_fd = -1;
    ip::IpAddress endpoint_ip;  ///< machine holding the socket (0=unknown/router)
    atm::Vci remote_vci = atm::kInvalidVci;  ///< the far endpoint's VCI
    bool originator = false;
    bool confirmed = false;     ///< bind/connect indication authenticated
    /// Callee side: report PEER_BOUND to the originator on bind confirm.
    bool notify_origin_on_confirm = false;
    /// Rebuilt from a post-crash audit; awaiting a peer's PEER_RESYNC_INFO
    /// to restore req_id (torn down if none arrives in grace).
    bool recovered = false;
  };
  struct PendingTx {  ///< one sequenced message awaiting its ack
    util::Buffer wire;  ///< as first sent; empty once acked or abandoned
    int attempts = 0;
    sim::Timer timer;
  };
  struct Peer {
    atm::AtmAddress addr;
    int send_fd = -1;
    // Reliable channel, sender side.  pending[i] is sequence number
    // pending_base + i: a ring, so steady traffic allocates no storage.
    std::uint32_t next_seq = 1;
    util::RingQueue<PendingTx> pending;
    std::uint32_t pending_base = 1;
    [[nodiscard]] PendingTx* unacked(std::uint32_t seq);  ///< null once settled
    void settle(std::uint32_t seq);  ///< acked or abandoned: drop it and its timer
    // Reliable channel, receiver side: everything <= recv_floor was
    // delivered; recv_above holds out-of-order deliveries beyond it.
    // gap_since is when the floor last moved or a gap above it opened.
    std::uint32_t recv_floor = 0;
    std::set<std::uint32_t> recv_above;
    sim::SimTime gap_since{};
    // Resync client state (we restarted and are reconciling with them).
    std::uint32_t resync_nonce = 0;
    int resync_attempts = 0;
    sim::Timer resync_timer;
    // Resync server side: last nonce honored, so a retried PEER_RESYNC is
    // re-acked without resetting the channel a second time.
    std::uint32_t last_resync_seen = 0;
  };

  // ---- plumbing ----
  void on_app_accept(int fd);
  void on_app_msg(int fd, const Msg& m);
  void on_app_conn_closed(int fd);
  void send_app(int fd, const Msg& m);
  void send_peer(PeerIdx peer, Msg m);
  /// A peer message carrying only its type, request id and reason.
  void send_peer(PeerIdx peer, MsgType type, ReqId id,
                 util::Errc reason = util::Errc::ok);
  void send_conn_failed(int fd, ReqId id, Cookie cookie, util::Errc reason);
  /// Downward disconnect: the kernel marks the socket on `vci` unusable.
  void send_down_disconnect(atm::Vci vci, ip::IpAddress machine);
  void on_peer_msg(PeerIdx peer, const Msg& m);
  void on_stub_msg(const StubMsg& m);

  // ---- reliable peer delivery ----
  /// Does this type carry a sequence number (and therefore get
  /// retransmitted until acked)?  Acks and resync handshakes do not.
  [[nodiscard]] static bool sequenced(MsgType t) noexcept;
  /// Send `wire`, the frame of `m`, applying any wire-fault verdict.
  void transmit_peer(Peer& p, const Msg& m, util::Buffer wire);
  void retransmit(PeerIdx peer, std::uint32_t seq);
  [[nodiscard]] sim::SimDuration backoff(int attempts);
  /// Duplicate-suppression bookkeeping; true when `seq` was already seen.
  [[nodiscard]] static bool note_received(Peer& p, std::uint32_t seq,
                                          sim::SimTime now);

  // ---- crash-restart recovery ----
  void handle_peer_resync(PeerIdx origin, const Msg& m);
  void handle_peer_resync_ack(PeerIdx origin, const Msg& m);
  void handle_peer_resync_info(PeerIdx origin, const Msg& m);
  void send_resync(PeerIdx peer);
  void reset_channel(Peer& p);
  void expire_unclaimed_recoveries();
  /// Charge the §9 per-call maintenance-information write.  `call` is the
  /// end-to-end call key the record belongs to; it tags the trace span and
  /// the MetricsRegistry counters the logging-cost bench reads.  When the
  /// caller knows the causal context, `trace_id`/`parent` link the record
  /// into the call's cross-host span tree.
  void maintenance_log(CallKey call, std::function<void()> then,
                       std::uint64_t trace_id = 0,
                       obs::SpanId parent = obs::kInvalidSpan);

  // ---- observability ----
  /// FSM-transition instant event (call key + optional VCI/fd identifiers).
  void fsm(const char* what, CallKey call, std::int64_t vci = -1,
           std::int64_t fd = -1);
  /// Refresh the five-list gauges (and, when tracing, counter events).
  void record_lists();
  /// Close the originator-side call-setup span and record its latency.
  void end_setup_trace(const SetupTrace& st);

  // ---- application-side handlers ----
  void handle_export_srv(int fd, const Msg& m);
  void handle_withdraw_srv(int fd, const Msg& m);
  void handle_connect_req(int fd, const Msg& m);
  void handle_cancel_req(int fd, const Msg& m);
  /// ACCEPT_CONN / REJECT_CONN on the per-call server connection `fd` of
  /// the incoming call `key`.
  void handle_accept_conn(int fd, CallKey key, const Msg& m);
  void handle_reject_conn(int fd, CallKey key, const Msg& m);

  // ---- peer-side handlers ----
  void handle_peer_setup(PeerIdx origin, const Msg& m);
  void handle_peer_accept(PeerIdx origin, const Msg& m);
  void handle_peer_reject(PeerIdx origin, const Msg& m);
  void handle_peer_established(PeerIdx origin, const Msg& m);
  void handle_peer_bound(PeerIdx origin, const Msg& m);
  void handle_peer_setup_failed(PeerIdx origin, const Msg& m);
  void handle_peer_teardown(PeerIdx origin, const Msg& m);
  void handle_peer_cancel(PeerIdx origin, const Msg& m);

  // ---- kernel-indication handlers ----
  void handle_indication(const StubMsg& m);
  void confirm_endpoint(atm::Vci vci, Cookie cookie, ip::IpAddress origin);

  // ---- call lifecycle ----
  /// `trace_id`/`parent_span` are the causal context carried by the
  /// PEER_ACCEPT that triggered establishment (the callee's serve span), so
  /// the kernel VC-install span becomes its child in the call tree.
  void establish_vc(ReqId req_id, const std::string& qos_granted,
                    std::uint64_t trace_id = 0,
                    std::uint64_t parent_span = 0);
  void teardown_vci(atm::Vci vci, bool notify_peer);
  void load_wait_for_bind(atm::Vci vci);
  void fail_outgoing(ReqId id, util::Errc reason);
  /// (Re)arm a request's watchdog: unanswered `after` from now, it is
  /// withdrawn from the peer and failed to the client with `reason`.
  void arm_request_watchdog(Outgoing& out, ReqId id, sim::SimDuration after,
                            util::Errc reason);
  /// The side effects of ending an undecided incoming call: drop its
  /// cookie, fail (`to_server`) and close the server's per-call connection,
  /// refuse the call to the originator (`to_origin`), end call.serve.  The
  /// caller erases the record.
  using IncomingCall = std::pair<const CallKey, Incoming>;
  void end_incoming(const IncomingCall& call, std::optional<util::Errc> to_server,
                    std::optional<util::Errc> to_origin);
  /// The end-to-end call key of a VCI_mapping entry; names no call while a
  /// recovered entry is unclaimed.
  [[nodiscard]] static CallKey call_key(const VciEntry& e) noexcept {
    return {e.originator ? kSelf : e.peer, e.req_id};
  }
  [[nodiscard]] atm::Vci vci_for_call(CallKey key) const;

  // ---- names, rendered only at the edges ----
  [[nodiscard]] PeerIdx find_peer(const std::string& name) const;  ///< or kNoPeer
  /// The sighost's name; empty for kNoPeer.
  [[nodiscard]] const std::string& origin_name(PeerIdx i) const noexcept;
  /// "origin#id", or empty when `key` names no call.
  [[nodiscard]] std::string call_text(CallKey key) const;
  /// The same text cut to `buf`, as the flight recorder cuts a detail.
  [[nodiscard]] std::string_view call_text(CallKey key,
                                           std::span<char> buf) const noexcept;
  /// Granted QoS texts, one copy per distinct text, with the number of
  /// VCI_mapping entries holding each.
  [[nodiscard]] const std::string* intern_qos(const std::string& text);
  void release_qos(const std::string* text);

  kern::Kernel& k_;
  atm::AtmNetwork& net_;
  SighostConfig cfg_;
  CookieTable cookies_;
  util::Rng rng_;  ///< retransmit jitter + corruption-fault byte choice
  kern::Pid pid_ = -1;
  int listen_fd_ = -1;
  int anand_fd_ = -1;  ///< TCP connection to the anand server
  std::unique_ptr<StubFramer> stub_framer_;
  TraceFn trace_;
  WireFaultFn wire_fault_;
  std::uint32_t next_resync_nonce_ = 1;
  sim::Timer recovery_grace_;  ///< armed once by recover()

  // The five lists.
  std::map<std::string, Service> services_;          // service_list
  std::map<ReqId, Outgoing> outgoing_;               // outgoing_requests
  std::map<CallKey, Incoming> incoming_;             // incoming_requests
  std::map<atm::Vci, WaitBind> wait_bind_;           // wait_for_bind
  std::map<atm::Vci, VciEntry> vci_map_;             // VCI_mapping
  /// Reverse index call key → VCI, maintained strictly alongside vci_map_
  /// (entries with a non-zero req_id only), so finding a call's VCI never
  /// walks VCI_mapping.
  std::map<CallKey, atm::Vci> call_by_key_;
  std::map<std::string, std::uint32_t> qos_texts_;  ///< text -> entries holding it

  std::map<int, MsgFramer> app_conns_;  ///< application connections by fd
  std::vector<Peer> peers_;  ///< by PeerIdx
  std::map<std::string, PeerIdx> peer_by_name_;  ///< names interned by add_peer
  std::set<atm::Vci> pvc_vcis_;  ///< own signaling VCIs: ignore their indications
  ReqId next_req_ = 1;
  sim::SimTime busy_until_{};  ///< end of the queued maintenance-log work
  /// Liveness token for deferred callbacks that capture `this`: deferred
  /// maintenance-log work, fault-injected wire delays and the network's
  /// setup_vc completion.  Timers cancel themselves on destruction; these
  /// callbacks cannot, so guarded() gives them a weak reference and they
  /// no-op once the sighost is gone (crashed).
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  template <class F>
  [[nodiscard]] auto guarded(F fn) const {
    return [guard = std::weak_ptr<char>(alive_),
            fn = std::move(fn)](auto&&... args) {
      if (!guard.expired()) fn(std::forward<decltype(args)>(args)...);
    };
  }
  SighostStats stats_;

  // Observability: context + cached metric handles (resolved once).
  obs::Observability* obs_ = nullptr;
  std::string track_;  ///< timeline row: this router's ATM name
  obs::Counter* m_maint_records_ = nullptr;      ///< per-instance
  obs::Counter* m_maint_records_all_ = nullptr;  ///< fleet-wide
  obs::Counter* m_established_ = nullptr;
  obs::Counter* m_torn_down_ = nullptr;
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_dup_suppressed_ = nullptr;
  obs::Counter* m_sheds_ = nullptr;
  obs::Counter* m_recovered_ = nullptr;
  obs::Histogram* m_setup_us_ = nullptr;
  obs::Gauge* m_lists_[5] = {};  ///< the five lists, in paper order
};

}  // namespace xunet::sig
