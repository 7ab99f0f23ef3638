// hobbit.hpp — model of the Hobbit ATM host-interface board.
//
// The board's contract (Berenbaum et al., ref [2], as used in §7.4): on
// send it computes the AAL5 trailer, segments the frame into cells and
// transmits — so "the data passed down from the Orc on a send is simply a
// pointer to an mbuf chain" and the host CPU pays nothing.  On receive it
// reassembles cells into frames and raises them per VCI.  Routers have one;
// hosts do not (their Orc driver talks to IPPROTO_ATM instead).
#pragma once

#include <functional>

#include "atm/aal5.hpp"
#include "atm/link.hpp"
#include "kern/mbuf.hpp"
#include "obs/obs.hpp"

namespace xunet::kern {

/// The ATM adapter.  Implements CellSink for its downlink from the switch;
/// transmits into the uplink CellLink provided by AtmNetwork::attach_endpoint.
class HobbitInterface : public atm::CellSink {
 public:
  /// Reassembled frame delivery to the Orc driver.
  using FrameHandler = std::function<void(atm::Vci, MbufChain)>;

  /// `mbuf_bytes` shapes the chains the board hands up on receive (the DMA
  /// engine fills fixed-size kernel buffers).  The reassembled frame buffer
  /// itself is adopted, never copied.
  HobbitInterface(atm::AtmAddress addr, std::size_t mbuf_bytes);

  [[nodiscard]] const atm::AtmAddress& address() const noexcept { return addr_; }

  /// Wire the board to the network.  Must be called before send().
  void connect_uplink(atm::CellLink& link) noexcept { uplink_ = &link; }
  [[nodiscard]] bool connected() const noexcept { return uplink_ != nullptr; }

  void set_frame_handler(FrameHandler h) { on_frame_ = std::move(h); }

  /// Wire the observability context (the board holds no Simulator reference;
  /// the Observability carries its own clock view).
  void bind_obs(obs::Observability* o) { obs_ = o; }

  /// Transmit a frame on `vci`: AAL5 trailer + segmentation + cells out.
  [[nodiscard]] util::Result<void> send(atm::Vci vci, const MbufChain& chain);

  /// Cells from the downlink.
  void cell_arrival(const atm::Cell& cell) override;
  /// The downlink's queued cells: reassemble the ones that have arrived and
  /// come back at the next frame end, so a frame costs one event.
  atm::TrainTake train_arrival(const atm::CellTrain& train) override;

  /// Drop SAR state for a torn-down VC.
  void release_vc(atm::Vci vci);

  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const noexcept { return frames_received_; }
  /// Frames that failed reassembly, counting every cell arrived by now.
  [[nodiscard]] std::uint64_t aal5_errors();

 private:
  atm::AtmAddress addr_;
  std::size_t mbuf_bytes_;
  obs::Observability* obs_ = nullptr;
  atm::CellLink* uplink_ = nullptr;
  atm::CellLink* downlink_ = nullptr;  ///< learned from the first train
  atm::Aal5Segmenter seg_;
  std::vector<atm::Cell> tx_cells_;  ///< reused segmentation scratch
  atm::Aal5Reassembler reasm_;
  FrameHandler on_frame_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace xunet::kern
