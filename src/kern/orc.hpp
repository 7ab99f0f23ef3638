// orc.hpp — the Orc device driver.
//
// §7.4: the Orc driver sits between PF_XUNET and the ATM path.  On a router
// it controls the Hobbit board; on a host "calls from the device driver to
// the Hobbit board [are replaced] with calls to the encapsulation/
// decapsulation layer" — the same PF_XUNET code runs unmodified above it.
// On input, the router "maintains a table that contains a pointer to the
// handler procedure for each VCI" so frames go either to a local PF_XUNET
// socket or back out as IPPROTO_ATM encapsulation toward a remote host.
#pragma once

#include <functional>
#include <map>

#include "atm/types.hpp"
#include "kern/instr.hpp"
#include "kern/mbuf.hpp"
#include "obs/obs.hpp"
#include "util/result.hpp"

namespace xunet::kern {

/// The driver.  Output and input targets are injected by the Kernel during
/// bring-up (Hobbit vs IPPROTO_ATM on the downside; PF_XUNET vs forwarding
/// handlers on the upside).
class OrcDriver {
 public:
  using FrameFn = std::function<util::Result<void>(atm::Vci, const MbufChain&)>;
  /// Upward handlers take the chain by value: the frame is moved up, never
  /// copied.
  using Handler = std::function<void(atm::Vci, MbufChain)>;

  explicit OrcDriver(InstrCounter& instr) : instr_(instr) {}

  /// Wire the observability context (the driver has no Simulator reference;
  /// the Observability carries its own clock view).  `track` is the owning
  /// kernel's name.
  void bind_obs(obs::Observability* o, const std::string& track) {
    obs_ = o;
    track_ = track;
    m_tx_ = &o->metrics().counter("orc." + track + ".frames_out");
    m_rx_ = &o->metrics().counter("orc." + track + ".frames_in");
  }

  /// Downward target: Hobbit::send on a router, IPPROTO_ATM encapsulation
  /// on a host.
  void set_output_target(FrameFn fn) { output_ = std::move(fn); }

  /// Default upward handler: PF_XUNET socket delivery ("the handler routine
  /// for a VCI owned by a process running on the router is automatically
  /// set to the IP packet handler by PF_XUNET" — i.e. local delivery).
  void set_default_handler(Handler h) { default_handler_ = std::move(h); }

  /// Per-VCI override installed by a VCI_BIND control message: frames on
  /// this VCI are forwarded (re-encapsulated toward a remote host).
  void set_vci_handler(atm::Vci vci, Handler h) { vcis_[vci].handler = std::move(h); }
  void clear_vci_handler(atm::Vci vci);

  /// VCI_SHUT: "the Orc driver is told to discard any more data arriving
  /// with that VCI."  The kernel lifts the mark when the VCI is next bound
  /// or connected.
  void set_discard(atm::Vci vci, bool discard);
  [[nodiscard]] bool discarding(atm::Vci vci) const noexcept {
    auto it = vcis_.find(vci);
    return it != vcis_.end() && it->second.discard;
  }

  /// Send path.  Zero instructions charged: Table 1's send row for the
  /// driver is 0 ("simply call the next layer down").
  [[nodiscard]] util::Result<void> output(atm::Vci vci, const MbufChain& chain);

  /// Receive path: dispatch to the per-VCI handler (or the default).
  void input(atm::Vci vci, MbufChain chain);

  [[nodiscard]] std::uint64_t frames_in() const noexcept { return frames_in_; }
  [[nodiscard]] std::uint64_t frames_out() const noexcept { return frames_out_; }
  [[nodiscard]] std::uint64_t frames_discarded() const noexcept { return frames_discarded_; }

 private:
  InstrCounter& instr_;
  obs::Observability* obs_ = nullptr;
  std::string track_;
  obs::Counter* m_tx_ = nullptr;
  obs::Counter* m_rx_ = nullptr;
  FrameFn output_;
  Handler default_handler_;
  /// A VCI with a forwarding handler or a discard mark; every other VCI
  /// goes to the default handler.
  struct VciRecord {
    Handler handler;
    bool discard = false;
  };
  /// Drop `it` once it holds neither a handler nor a mark.
  void trim(std::map<atm::Vci, VciRecord>::iterator it);

  std::map<atm::Vci, VciRecord> vcis_;
  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t frames_discarded_ = 0;
};

}  // namespace xunet::kern
