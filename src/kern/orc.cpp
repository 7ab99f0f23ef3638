#include "kern/orc.hpp"

namespace xunet::kern {

using util::Errc;

void OrcDriver::set_discard(atm::Vci vci, bool discard) {
  if (discard) {
    discard_.insert(vci);
  } else {
    discard_.erase(vci);
  }
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
  if (discard_.contains(vci)) {
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
  if (auto it = handlers_.find(vci); it != handlers_.end()) {
    it->second(vci, std::move(chain));
    return;
  }
  if (default_handler_) default_handler_(vci, std::move(chain));
}

}  // namespace xunet::kern
