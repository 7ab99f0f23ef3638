#include "kern/hobbit.hpp"

namespace xunet::kern {

using util::Errc;

HobbitInterface::HobbitInterface(atm::AtmAddress addr, std::size_t mbuf_bytes)
    : addr_(std::move(addr)),
      mbuf_bytes_(mbuf_bytes),
      reasm_([this](atm::Aal5Frame f) {
        ++frames_received_;
        if (XOBS_TRACING(obs_)) {
          // AAL5 reassembly on the board completed a frame.
          obs::TraceIds ids;
          ids.vci = f.vci;
          obs_->instant("atm", "aal5.frame", addr_.name, std::move(ids));
        }
        if (on_frame_) {
          on_frame_(f.vci, MbufChain::adopt(std::move(f.payload), mbuf_bytes_));
        }
      }) {}

util::Result<void> HobbitInterface::send(atm::Vci vci, const MbufChain& chain) {
  if (uplink_ == nullptr) return Errc::not_connected;
  // Segment straight from the chain's bytes ("simply a pointer to an mbuf
  // chain"): the host CPU never copies the frame on its way to the wire.
  auto cells = seg_.segment(vci, chain.bytes(), tx_cells_);
  if (!cells) return cells.error();
  if (XOBS_TRACING(obs_)) {
    // AAL5 trailer + SAR on the board: the host CPU pays nothing (Table 1).
    obs::TraceIds ids;
    ids.vci = vci;
    obs_->instant("atm", "aal5.segment", addr_.name, std::move(ids));
  }
  for (const atm::Cell& c : tx_cells_) {
    uplink_->send(c);
  }
  ++frames_sent_;
  return {};
}

void HobbitInterface::cell_arrival(const atm::Cell& cell) {
  // Resource-management cells never reach the AAL5 reassembler: the board
  // separates OAM/RM traffic from the SAR path, and nothing here consumes
  // them.
  if (cell.rm) return;
  reasm_.cell_arrival(cell);
}

atm::TrainTake HobbitInterface::train_arrival(const atm::CellTrain& train) {
  downlink_ = &train.link();
  std::size_t n = 0;
  for (; n < train.size() && train.due(n); ++n) {
    // A copy: a completed frame runs the kernel, which may commit more
    // cells into this link.
    const atm::Cell cell = train[n].cell;
    cell_arrival(cell);
  }
  if (n == train.size() || atm::per_cell_forced()) return {n, atm::kNever};
  // Until the next end of frame, arriving cells only grow a partial frame,
  // which nothing observes before it completes.
  std::size_t eof = n;
  while (eof + 1 < train.size() && !train[eof].cell.end_of_frame) ++eof;
  return {n, train[eof].at};
}

std::uint64_t HobbitInterface::aal5_errors() {
  if (downlink_ != nullptr) downlink_->deliver_due();
  return reasm_.error_count();
}

void HobbitInterface::release_vc(atm::Vci vci) {
  // Cells that arrived before the teardown belong to the old VC state.
  if (downlink_ != nullptr) downlink_->deliver_due();
  seg_.release(vci);
  reasm_.release(vci);
}

}  // namespace xunet::kern
