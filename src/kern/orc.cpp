#include "kern/orc.hpp"

namespace xunet::kern {

using util::Errc;

void OrcDriver::trim(std::map<atm::Vci, VciRecord>::iterator it) {
  if (!it->second.handler && !it->second.discard) vcis_.erase(it);
}

void OrcDriver::clear_vci_handler(atm::Vci vci) {
  auto it = vcis_.find(vci);
  if (it == vcis_.end()) return;
  it->second.handler = nullptr;
  trim(it);
}

void OrcDriver::set_discard(atm::Vci vci, bool discard) {
  if (discard) {
    vcis_[vci].discard = true;
    return;
  }
  auto it = vcis_.find(vci);
  if (it == vcis_.end()) return;
  it->second.discard = false;
  trim(it);
}

util::Result<void> OrcDriver::output(atm::Vci vci, const MbufChain& chain) {
  if (!output_) return Errc::not_connected;
  ++frames_out_;
  if (m_tx_ != nullptr) m_tx_->inc();
  if (XOBS_TRACING(obs_)) {
    // Zero duration: Table 1's send row charges the driver nothing.
    obs::TraceIds ids;
    ids.vci = vci;
    obs_->complete(sim::SimDuration{}, "orc", "orc.tx", track_,
                   std::move(ids));
  }
  return output_(vci, chain);
}

void OrcDriver::input(atm::Vci vci, MbufChain chain) {
  auto it = vcis_.find(vci);
  if (it != vcis_.end() && it->second.discard) {
    ++frames_discarded_;
    return;
  }
  ++frames_in_;
  if (m_rx_ != nullptr) m_rx_->inc();
  if (XOBS_TRACING(obs_)) {
    obs::TraceIds ids;
    ids.vci = vci;
    obs_->complete(sim::SimDuration{}, "orc", "orc.rx", track_,
                   std::move(ids));
  }
  // Table 1: device driver receive cost is the handler dispatch.
  instr_.charge(InstrComponent::orc_driver, InstrDir::receive, kOrcRecvDispatch);
  if (it != vcis_.end() && it->second.handler) {
    it->second.handler(vci, std::move(chain));
    return;
  }
  if (default_handler_) default_handler_(vci, std::move(chain));
}

}  // namespace xunet::kern
