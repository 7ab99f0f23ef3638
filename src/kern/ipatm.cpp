#include "kern/ipatm.hpp"

#include "kern/kernel.hpp"

namespace xunet::kern {

IpOverAtm::IpOverAtm(Kernel& k, atm::Vci send_vci, atm::Vci recv_vci,
                     std::size_t mtu)
    : k_(k), send_vci_(send_vci), recv_vci_(recv_vci), mtu_(mtu) {
  // Frames arriving on the receive VCI re-enter the IP input path, like a
  // network interface's receive interrupt.
  obs::MetricsRegistry& mx = k_.simulator().obs().metrics();
  m_encap_ = &mx.counter("ipatm." + k_.name() + ".encap");
  m_decap_ = &mx.counter("ipatm." + k_.name() + ".decap");
  k_.orc().set_vci_handler(recv_vci_, [this](atm::Vci, MbufChain chain) {
    m_decap_->inc();
    obs::Observability& o = k_.simulator().obs();
    if (XOBS_TRACING(&o)) {
      obs::TraceIds ids;
      ids.vci = recv_vci_;
      o.instant("kern", "ipatm.decap", k_.name(), std::move(ids));
    }
    k_.ip_node().frame_arrival(chain.bytes());
  });
}

void IpOverAtm::transmit(const ip::IpNode& from, util::Buffer wire) {
  (void)from;
  m_encap_->inc();
  obs::Observability& o = k_.simulator().obs();
  if (XOBS_TRACING(&o)) {
    obs::TraceIds ids;
    ids.vci = send_vci_;
    o.instant("kern", "ipatm.encap", k_.name(), std::move(ids));
  }
  (void)k_.orc().output(send_vci_,
                        MbufChain::adopt(std::move(wire), k_.config().mbuf_bytes));
}

}  // namespace xunet::kern
