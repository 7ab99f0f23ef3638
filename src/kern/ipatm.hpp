// ipatm.hpp — classical IP over ATM (§1: "Xunet II supports IP-over-ATM and
// quite a bit of the traffic over Xunet II is generated from IP-multicast
// based multimedia applications").
//
// A router pair provisions a PVC pair and each side mounts an IpOverAtm
// virtual interface on it: IP datagrams routed at that interface ride the
// PVC as AAL frames (the Hobbit board segments them), and frames arriving
// on the receive VCI are injected back into the IP input path.  The default
// MTU is RFC 1626's 9180 bytes.  This substrate is not on the paper's
// native-mode path — it is the pre-existing IP service the paper's work
// coexists with, and it lets IP hosts behind different routers reach each
// other with ordinary UDP/TCP.
#pragma once

#include "atm/types.hpp"
#include "ip/link.hpp"
#include "obs/metrics.hpp"

namespace xunet::kern {

class Kernel;

/// RFC 1626 default MTU for IP over ATM AAL5.
inline constexpr std::size_t kIpAtmMtu = 9180;

/// The virtual interface.  Create through Kernel::add_ip_over_atm so the
/// Orc per-VCI dispatch is wired correctly.
class IpOverAtm : public ip::IpEgress {
 public:
  IpOverAtm(Kernel& k, atm::Vci send_vci, atm::Vci recv_vci,
            std::size_t mtu = kIpAtmMtu);

  void transmit(const ip::IpNode& from, util::Buffer wire) override;
  [[nodiscard]] std::size_t mtu() const noexcept override { return mtu_; }

  [[nodiscard]] atm::Vci send_vci() const noexcept { return send_vci_; }
  [[nodiscard]] atm::Vci recv_vci() const noexcept { return recv_vci_; }

 private:
  Kernel& k_;
  atm::Vci send_vci_;
  atm::Vci recv_vci_;
  std::size_t mtu_;
  obs::Counter* m_encap_ = nullptr;  ///< ipatm.<kernel>.encap
  obs::Counter* m_decap_ = nullptr;  ///< ipatm.<kernel>.decap
};

}  // namespace xunet::kern
