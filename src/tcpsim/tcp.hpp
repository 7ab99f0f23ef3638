// tcp.hpp — a compact but real TCP: three-way handshake, Go-Back-N
// reliability, orderly close with TIME_WAIT, reset handling.
//
// Why this exists: the paper's application↔sighost IPC is "TCP/IP ...
// in essence building a special-purpose RPC facility" (§5.2), and its second
// scaling problem (§10) is that a closed connection "keeps the descriptor in
// the table for two Maximum Segment Lifetimes".  Both behaviours live here;
// the simulated kernel wraps connections in descriptors and frees the slot
// only when the connection leaves TIME_WAIT.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "ip/node.hpp"
#include "sim/timer.hpp"
#include "tcpsim/segment.hpp"

namespace xunet::tcp {

/// Connection states (RFC 793 subset; no simultaneous open).
enum class State : std::uint8_t {
  closed,
  listen,
  syn_sent,
  syn_rcvd,
  established,
  fin_wait_1,
  fin_wait_2,
  close_wait,
  last_ack,
  closing,
  time_wait,
};
[[nodiscard]] std::string_view to_string(State s) noexcept;

/// Tuning knobs.  Defaults approximate a 1994 BSD stack.
struct TcpConfig {
  sim::SimDuration msl = sim::seconds(30);     ///< TIME_WAIT holds 2×msl
  std::size_t window_bytes = 64 * 1024;        ///< fixed send window
};

/// Opaque connection identifier within one TcpLayer.
using ConnId = std::uint64_t;

/// Per-node TCP.  All callbacks fire from the event loop, never reentrantly
/// from within an API call.
class TcpLayer {
 public:
  /// New inbound connection on a listening port.
  using AcceptHandler = std::function<void(ConnId)>;
  /// Outcome of a connect(): ok (established) or an error.
  using ConnectHandler = std::function<void(util::Result<ConnId>)>;
  /// In-order received bytes, handed over with the segment's buffer.
  using ReceiveHandler = std::function<void(util::Buffer)>;
  /// The connection will deliver no more data: peer FIN (ok) or reset.
  using CloseHandler = std::function<void(util::Errc)>;
  /// The connection object is fully gone (left TIME_WAIT / closed); the
  /// simulated kernel releases the descriptor slot on this signal.
  using ReleasedHandler = std::function<void(ConnId)>;

  TcpLayer(ip::IpNode& node, TcpConfig cfg = {});
  ~TcpLayer();
  TcpLayer(const TcpLayer&) = delete;
  TcpLayer& operator=(const TcpLayer&) = delete;

  // -- API used by the socket layer ---------------------------------------

  /// Listen on `port`.  The handler fires once per accepted connection.
  util::Result<void> listen(std::uint16_t port, AcceptHandler on_accept);
  void stop_listening(std::uint16_t port);

  /// Active open to (dst, port).  The handler fires with the established
  /// connection id or connection_refused / timed_out.
  util::Result<ConnId> connect(ip::IpAddress dst, std::uint16_t dst_port,
                               ConnectHandler on_done);

  /// Queue bytes for reliable delivery.  not_connected unless established
  /// (or close_wait, where sending is still legal).
  util::Result<void> send(ConnId id, util::BytesView data);

  /// Register per-connection upcalls.  Safe to call from an AcceptHandler.
  void set_receive_handler(ConnId id, ReceiveHandler h);
  void set_close_handler(ConnId id, CloseHandler h);
  void set_released_handler(ConnId id, ReleasedHandler h);

  /// Orderly close (FIN).  The connection survives in the state machine —
  /// possibly for 2×MSL in TIME_WAIT — until the ReleasedHandler fires.
  util::Result<void> close(ConnId id);

  /// Abortive close (RST), e.g. process termination.  Releases immediately.
  void abort(ConnId id);

  // -- introspection --------------------------------------------------------

  [[nodiscard]] State state(ConnId id) const;
  [[nodiscard]] std::size_t connection_count() const noexcept { return conns_.size(); }
  [[nodiscard]] std::size_t count_in_state(State s) const;
  [[nodiscard]] ip::IpAddress peer_addr(ConnId id) const;
  [[nodiscard]] std::uint16_t local_port(ConnId id) const;
  [[nodiscard]] const TcpConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t segments_sent() const noexcept { return segments_sent_; }
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }

 private:
  struct TupleKey {
    ip::IpAddress peer;
    std::uint16_t peer_port;
    std::uint16_t local_port;
    auto operator<=>(const TupleKey&) const = default;
  };

  struct Conn {
    Conn(sim::Simulator& sim) : rto_timer(sim), wait_timer(sim) {}
    ConnId id = 0;
    TupleKey tuple{};
    State state = State::closed;
    // Send side.
    std::uint32_t snd_una = 0;  ///< oldest unacked seq
    std::uint32_t snd_nxt = 0;  ///< next seq to use
    /// send_buf[send_head, end) are the bytes from snd_una onward
    /// (in-flight included).  Acked bytes are dropped by advancing
    /// send_head; the buffer is compacted once the head passes its middle.
    util::Buffer send_buf;
    std::size_t send_head = 0;
    bool fin_queued = false;    ///< FIN follows the send buffer
    bool fin_sent = false;
    std::uint32_t fin_seq = 0;
    int retransmit_count = 0;
    // Receive side.
    std::uint32_t rcv_nxt = 0;
    // Upcalls.  Deliveries already queued share the receive handler, so
    // each one is a pointer and the payload, within the event store.
    ConnectHandler on_connect;
    std::shared_ptr<const ReceiveHandler> on_receive;
    CloseHandler on_close;
    ReleasedHandler on_released;
    bool close_reported = false;
    // Timers.
    sim::Timer rto_timer;
    sim::Timer wait_timer;
  };

  void segment_arrival(ip::IpPacket&& p);
  /// May take `s.payload` (in-order data goes up to the receive handler).
  void handle_for_conn(Conn& c, Segment& s, ip::IpAddress src);
  void handle_listen(std::uint16_t port, const Segment& s, ip::IpAddress src);
  /// Send one segment whose payload is the `n` unacked bytes starting
  /// `offset` past snd_una, written straight into its wire buffer.
  void emit(Conn& c, Flags flags, std::uint32_t seq, std::size_t offset = 0,
            std::size_t n = 0);
  void send_rst(ip::IpAddress dst, std::uint16_t dst_port,
                std::uint16_t src_port, std::uint32_t seq, std::uint32_t ack);
  /// Transmit (or retransmit) everything the window allows.
  void pump(Conn& c);
  void arm_rto(Conn& c);
  void on_rto(ConnId id);
  void enter_time_wait(Conn& c);
  void report_close(Conn& c, util::Errc reason);
  /// Destroy the connection object and fire ReleasedHandler.
  void release(ConnId id);
  Conn* find(ConnId id);
  const Conn* find(ConnId id) const;
  /// Enter / remove a connection's tuple in by_tuple_, keeping port_refs_.
  void add_tuple(const Conn& c);
  void drop_tuple(const Conn& c);
  std::uint16_t alloc_ephemeral_port();

  ip::IpNode& node_;
  TcpConfig cfg_;
  std::unordered_map<std::uint16_t, AcceptHandler> listeners_;
  std::map<TupleKey, ConnId> by_tuple_;
  /// Live by_tuple_ entries per local port; a port is absent once its
  /// count drops to zero, so the table is sized by live ports.
  std::unordered_map<std::uint16_t, std::uint32_t> port_refs_;
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_;
  ConnId next_id_ = 1;
  std::uint16_t next_ephemeral_ = 10'000;
  std::uint32_t next_iss_ = 1000;  ///< deterministic initial seq generator
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmits_ = 0;
};

}  // namespace xunet::tcp
