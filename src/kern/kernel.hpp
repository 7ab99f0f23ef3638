// kernel.hpp — the simulated Unix kernel of one machine (host or router).
//
// This is the OS-support half of the paper: BSD-style sockets over a
// protocol-family switch (PF_INET TCP for signaling IPC, PF_XUNET for
// native-mode data, raw IPPROTO_ATM for control), per-process descriptor
// tables of bounded size, process termination hooks that feed the
// /dev/anand pseudo-device, and the Orc/Hobbit/IPPROTO_ATM data path.
//
// Everything an application does goes through the syscall surface below
// (first argument: the calling Pid), so robustness experiments can kill a
// process at any instant and watch the kernel clean up.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <deque>
#include <vector>

#include "atm/network.hpp"
#include "ip/udp.hpp"
#include "kern/anand.hpp"
#include "kern/config.hpp"
#include "kern/hobbit.hpp"
#include "kern/instr.hpp"
#include "kern/orc.hpp"
#include "kern/ipatm.hpp"
#include "kern/proto_atm.hpp"
#include "tcpsim/tcp.hpp"

namespace xunet::kern {

/// PF_XUNET socket states.
enum class SocketState : std::uint8_t {
  created,
  bound,         ///< receiving side, bound to a VCI
  connected,     ///< sending side, connected to a VCI
  disconnected,  ///< soisdisconnected(): marked unusable by signaling
};

/// One simulated machine's kernel.
class Kernel {
 public:
  enum class Role { host, router };

  Kernel(sim::Simulator& sim, std::string name, Role role,
         ip::IpAddress ip_addr, atm::AtmAddress atm_addr,
         KernelConfig cfg = {});
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // -- identity & substrate access -----------------------------------------
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] bool is_router() const noexcept { return role_ == Role::router; }
  [[nodiscard]] const atm::AtmAddress& atm_address() const noexcept { return atm_addr_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] KernelConfig& config() noexcept { return cfg_; }
  [[nodiscard]] ip::IpNode& ip_node() noexcept { return *ip_; }
  [[nodiscard]] tcp::TcpLayer& tcp() noexcept { return *tcp_; }
  [[nodiscard]] ip::UdpLayer& udp() noexcept { return *udp_; }
  [[nodiscard]] ProtoAtm& proto_atm() noexcept { return *proto_atm_; }
  [[nodiscard]] OrcDriver& orc() noexcept { return *orc_; }
  [[nodiscard]] AnandDevice& anand() noexcept { return anand_; }
  [[nodiscard]] InstrCounter& instr() noexcept { return instr_; }
  [[nodiscard]] HobbitInterface* hobbit() noexcept { return hobbit_.get(); }

  /// Router bring-up: create the Hobbit interface, attach it to the ATM
  /// network at `sw`, and wire the Orc driver to it.
  util::Result<void> attach_atm(atm::AtmNetwork& net, atm::AtmSwitch& sw,
                                std::uint64_t rate_bps,
                                sim::SimDuration propagation);

  /// Router: mount a classical-IP-over-ATM interface on a PVC pair (§1's
  /// pre-existing Xunet IP service).  Routes are added separately with
  /// ip_node().add_route(dst, <returned interface>).
  IpOverAtm& add_ip_over_atm(atm::Vci send_vci, atm::Vci recv_vci,
                             std::size_t mtu = kIpAtmMtu);

  // -- processes -------------------------------------------------------------
  Pid spawn(std::string proc_name);
  /// Orderly exit: every descriptor is closed through the normal paths.
  util::Result<void> exit_process(Pid pid);
  /// Abnormal termination (crash/kill).  Identical kernel cleanup — that is
  /// the point of kernel-mediated state (§5.3): the kernel always knows.
  util::Result<void> kill_process(Pid pid);
  [[nodiscard]] bool alive(Pid pid) const;
  [[nodiscard]] std::size_t live_process_count() const;
  [[nodiscard]] std::size_t fd_in_use(Pid pid) const;

  /// Close any descriptor kind.
  util::Result<void> close(Pid pid, int fd);

  // -- TCP sockets (signaling IPC; §5.2) -------------------------------------
  using TcpAcceptFn = std::function<void(int fd)>;
  using TcpResultFn = std::function<void(util::Result<int>)>;
  using DataFn = std::function<void(util::BytesView)>;
  using CloseFn = std::function<void(util::Errc)>;

  util::Result<int> tcp_listen(Pid pid, std::uint16_t port, TcpAcceptFn on_accept);
  util::Result<int> tcp_connect(Pid pid, ip::IpAddress dst, std::uint16_t port,
                                TcpResultFn on_done);
  util::Result<void> tcp_send(Pid pid, int fd, util::BytesView data);
  /// Same, taking the caller's buffer over instead of copying it.
  util::Result<void> tcp_send(Pid pid, int fd, util::Buffer&& data);
  util::Result<void> tcp_on_receive(Pid pid, int fd, DataFn fn);
  util::Result<void> tcp_on_close(Pid pid, int fd, CloseFn fn);
  [[nodiscard]] ip::IpAddress tcp_peer(Pid pid, int fd) const;
  /// Descriptors (in any process) pinned by connections in TIME_WAIT.
  [[nodiscard]] std::size_t fds_in_time_wait() const;

  // -- PF_XUNET sockets -------------------------------------------------------
  util::Result<int> xunet_socket(Pid pid);
  /// bind(): receiving side.  Posts a bind indication (VCI + cookie) to the
  /// signaling entity through /dev/anand; if the device buffer is full the
  /// indication is silently lost (§10's first scaling problem).
  util::Result<void> xunet_bind(Pid pid, int fd, atm::Vci vci, std::uint16_t cookie);
  /// connect(): sending side; posts a connect indication likewise.
  util::Result<void> xunet_connect(Pid pid, int fd, atm::Vci vci, std::uint16_t cookie);
  util::Result<void> xunet_send(Pid pid, int fd, util::BytesView data);
  /// Same, adopting the caller's buffer as the mbuf chain instead of copying
  /// it (the chain's mbuf count, and so Table 1's cost, is unchanged).
  util::Result<void> xunet_send(Pid pid, int fd, util::Buffer&& data);
  /// Bench variant: send an explicitly shaped mbuf chain.
  util::Result<void> xunet_send_chain(Pid pid, int fd, MbufChain chain);
  util::Result<void> xunet_on_receive(Pid pid, int fd, DataFn fn);
  util::Result<void> xunet_on_disconnect(Pid pid, int fd, std::function<void()> fn);
  [[nodiscard]] bool xunet_usable(Pid pid, int fd) const;
  [[nodiscard]] std::size_t xunet_socket_count() const noexcept { return xsocks_.size(); }
  [[nodiscard]] std::uint64_t xunet_frames_dropped() const noexcept { return x_dropped_; }

  /// soisdisconnected() on every socket using `vci` (downward anand path),
  /// then drop the VCI's AAL5 and IPPROTO_ATM state.
  void mark_vci_disconnected(atm::Vci vci);

  /// One live PF_XUNET binding, as reported to a recovering signaling
  /// entity.  §5.3's argument cuts both ways: because call state is
  /// kernel-mediated, a restarted sighost can read it back.
  struct XunetVciInfo {
    atm::Vci vci = atm::kInvalidVci;
    std::uint16_t cookie = 0;
    SocketState state = SocketState::created;
    Pid owner = -1;
  };
  /// Every bound/connected PF_XUNET socket whose owner is alive, sorted by
  /// VCI (deterministic across runs).
  [[nodiscard]] std::vector<XunetVciInfo> audit_xunet_vcis() const;

  /// Count of signaling-entity lifetimes on this kernel, starting at 1.
  /// §5.3's argument cuts both ways once more: the kernel outlives the
  /// sighost, so it can hand each incarnation a number no previous life
  /// used.  The sighost partitions its request-id space by it so that
  /// post-restart call keys never collide with calls its predecessor left
  /// behind in peers' five-lists.
  [[nodiscard]] std::uint32_t next_sighost_incarnation() {
    return ++sighost_incarnations_;
  }

  // -- /dev/anand --------------------------------------------------------------
  /// Open the pseudo-device.  One holder at a time (sighost or anand server).
  util::Result<int> open_anand(Pid pid);
  util::Result<AnandUpMsg> anand_read(Pid pid, int fd);
  /// select()-style readiness callback; fired (after a context switch) when
  /// the read queue becomes non-empty.
  util::Result<void> anand_set_readable(Pid pid, int fd, std::function<void()> fn);
  util::Result<void> anand_write(Pid pid, int fd, const AnandDownMsg& msg);

  // -- raw IPPROTO_ATM control socket -------------------------------------------
  util::Result<int> proto_atm_socket(Pid pid);
  /// Host: configuration message carrying the router's address (§7.4).
  util::Result<void> proto_atm_set_router(Pid pid, int fd, ip::IpAddress router);
  /// Router: VCI_BIND control write.
  util::Result<void> proto_atm_vci_bind(Pid pid, int fd, atm::Vci vci,
                                        ip::IpAddress host);
  /// Router: VCI_SHUT control write.  Also drops the VCI's AAL5 state.
  util::Result<void> proto_atm_vci_shut(Pid pid, int fd, atm::Vci vci);

 private:
  struct Descriptor {
    enum class Kind : std::uint8_t { tcp, xunet, anand, proto_atm_raw } kind;
    std::uint64_t handle = 0;
  };
  struct Proc {
    Pid pid = -1;
    std::string name;
    bool alive = false;
    std::vector<std::optional<Descriptor>> fds;
    /// Indices of free slots in `fds`, so alloc_fd can hand out the
    /// POSIX-lowest free descriptor without scanning the table (which is
    /// quadratic across a call burst at 10^5+ live fds per process).
    std::set<std::size_t> free_slots;
  };
  /// An application's receive upcall on a TCP or PF_XUNET socket.
  /// Deliveries already queued share it, so each is one pointer and the
  /// payload, within the event store; a handler replaced meanwhile still
  /// gets what was queued to it.
  struct Receiver {
    Pid owner = -1;
    DataFn fn;
  };
  struct XunetSock {
    Pid owner = -1;
    int fd = -1;
    SocketState state = SocketState::created;
    atm::Vci vci = atm::kInvalidVci;
    std::uint16_t cookie = 0;
    std::shared_ptr<const Receiver> on_receive;
    std::function<void()> on_disconnect;
    /// Socket receive buffer (sbappend): frames that arrive before the
    /// process reads are queued, bounded like a real socket buffer.  It is
    /// drained in order once a reader shows up, then cleared.
    std::vector<util::Buffer> rx_queue;
  };
  struct TcpSock {
    Pid owner = -1;
    int fd = -1;
    tcp::ConnId conn = 0;
    bool listener = false;
    std::uint16_t listen_port = 0;
    bool app_closed = false;
    bool connecting = false;
    bool released = false;  ///< the connection left the TCP state machine
    // Events that arrived before the application installed its handlers are
    // buffered here so nothing is lost to registration races.
    std::shared_ptr<const Receiver> app_receive;
    CloseFn app_close;
    util::Buffer pending_data;
    std::optional<util::Errc> pending_close;
  };

  Proc* proc(Pid pid);
  const Proc* proc(Pid pid) const;
  util::Result<int> alloc_fd(Proc& p, Descriptor d);
  void free_fd(Proc& p, int fd);
  util::Result<Descriptor> descriptor(Pid pid, int fd,
                                      std::optional<Descriptor::Kind> want) const;
  util::Result<void> terminate(Pid pid);
  void cleanup_descriptor(Proc& p, int fd, bool process_dying);
  /// Wire kernel-owned receive/close handlers for a fresh connection.
  void attach_tcp_handlers(std::uint64_t handle, tcp::ConnId conn);
  /// Hand `data` to the receiver's application `delay` from now (the
  /// kernel-to-user crossing), unless the process has died meanwhile.
  void deliver(std::shared_ptr<const Receiver> to, util::Buffer data,
               sim::SimDuration delay);
  void close_xunet(std::uint64_t handle, XunetSock& xs);
  /// The socket bound to `vci` (state bound), or nullptr.
  XunetSock* bound_xsock(atm::Vci vci);
  /// Post an up-indication that must not be lost to a full anand buffer:
  /// queue it and retry until the sighost drains enough space.
  void post_durable(const AnandUpMsg& msg);
  void drain_pending_up();
  void pf_xunet_input(atm::Vci vci, MbufChain chain);
  util::Result<void> xunet_output(Pid pid, int fd, MbufChain chain);
  void tcp_released(tcp::ConnId conn);

  sim::Simulator& sim_;
  std::string name_;
  Role role_;
  atm::AtmAddress atm_addr_;
  KernelConfig cfg_;
  InstrCounter instr_;
  std::unique_ptr<ip::IpNode> ip_;
  std::unique_ptr<tcp::TcpLayer> tcp_;
  std::unique_ptr<ip::UdpLayer> udp_;
  std::unique_ptr<OrcDriver> orc_;
  std::unique_ptr<ProtoAtm> proto_atm_;
  std::unique_ptr<HobbitInterface> hobbit_;
  std::vector<std::unique_ptr<IpOverAtm>> ipatm_ifs_;
  AnandDevice anand_;
  std::vector<Proc> procs_;
  std::unordered_map<std::uint64_t, XunetSock> xsocks_;
  std::unordered_map<std::uint64_t, TcpSock> tsocks_;
  std::unordered_map<tcp::ConnId, std::uint64_t> tcp_by_conn_;
  /// Every bound or connected PF_XUNET socket as (VCI, handle): a VCI
  /// teardown visits only its own sockets, in handle order, and the one
  /// bound socket per VCI is the receiver frames are demultiplexed to.
  std::set<std::pair<atm::Vci, std::uint64_t>> xsocks_by_vci_;
  std::uint64_t next_handle_ = 1;
  Pid anand_holder_ = -1;
  /// process_terminated indications awaiting anand buffer space.  Unlike
  /// bind/connect indications (whose loss the wait_for_bind watchdog
  /// repairs), a lost process_terminated has no timer backstop — the
  /// sighost would hold the call forever — so these are retried until
  /// posted (§5.3: the kernel always knows, and must be heard).
  std::deque<AnandUpMsg> pending_up_;
  bool pending_up_drain_armed_ = false;
  std::uint64_t x_dropped_ = 0;
  std::uint32_t sighost_incarnations_ = 0;

  // Observability: context + cached per-kernel metric handles.
  obs::Observability* obs_ = nullptr;
  obs::Counter* m_x_tx_ = nullptr;       ///< PF_XUNET frames sent
  obs::Counter* m_x_rx_ = nullptr;       ///< PF_XUNET frames delivered
  obs::Counter* m_x_dropped_ = nullptr;  ///< PF_XUNET frames dropped
};

}  // namespace xunet::kern
