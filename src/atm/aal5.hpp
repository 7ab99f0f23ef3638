// aal5.hpp — the Xunet variant of the AAL5 adaptation layer.
//
// §5.4: "Xunet implements a minor variant of the AAL5 adaptation layer,
// which guarantees that the receiving AAL can detect out of order frames and
// cell loss within a frame."  We implement exactly that contract:
//
//  * cell loss within a frame is detected by the CPCS length field and CRC-32
//    in the 8-byte trailer (standard AAL5);
//  * out-of-order *frames* are detected by a per-VC frame sequence number
//    carried in the trailer's UU byte (the Xunet variant).
//
// Trailer layout (last 8 bytes of the padded frame):
//   UU (1, frame seq) | CPI (1, zero) | Length (2) | CRC-32 (4)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "atm/cell.hpp"
#include "util/buffer.hpp"
#include "util/result.hpp"

namespace xunet::atm {

/// Size of the CPCS trailer.
inline constexpr std::size_t kAal5TrailerBytes = 8;
/// Largest payload a single AAL5 frame can carry (standard: 65535).
inline constexpr std::size_t kMaxFramePayload = 65'535;

/// A reassembled AAL5 frame as handed to the layer above.
struct Aal5Frame {
  Vci vci = kInvalidVci;
  std::uint8_t seq = 0;  ///< per-VC frame sequence number from the trailer
  util::Buffer payload;
};

/// Why a frame failed reassembly.
enum class Aal5Error : std::uint8_t {
  crc_mismatch,     ///< cell corrupted or lost (CRC failure)
  length_mismatch,  ///< cell loss changed the frame size
  out_of_order,     ///< frame sequence number regressed or skipped
  oversize,         ///< reassembly exceeded the maximum frame size
};
[[nodiscard]] std::string_view to_string(Aal5Error e) noexcept;

/// Per-VC segmenter: cuts frames into cells with trailer, padding, CRC and
/// an incrementing frame sequence number.  The CPCS-PDU (payload | pad |
/// trailer) is never built: the CRC runs once over the payload span, the pad
/// and the trailer head, and each cell is filled straight from the payload.
class Aal5Segmenter {
 public:
  /// Segment `payload` for `vci`.  Fails with message_too_long past
  /// kMaxFramePayload.  The returned cells are ready for the wire, last one
  /// carrying the end-of-frame mark.
  [[nodiscard]] util::Result<std::vector<Cell>> segment(Vci vci,
                                                        util::BytesView payload);

  /// Same, writing the cells into `out`, which is overwritten (not appended
  /// to), so a hot path can reuse one vector forever.
  [[nodiscard]] util::Result<void> segment(Vci vci, util::BytesView payload,
                                           std::vector<Cell>& out);

  /// Sequence number the next frame on `vci` will carry.
  [[nodiscard]] std::uint8_t next_seq(Vci vci) const noexcept;

  /// Forget per-VC state (on VC teardown).
  void release(Vci vci) { seq_.erase(vci); }

 private:
  std::map<Vci, std::uint8_t> seq_;
};

/// Per-VC reassembler.  Feed cells in arrival order; completed frames and
/// errors are reported through callbacks.  Each cell is appended to the
/// VC's frame buffer; at end of frame the CRC runs once over the contiguous
/// PDU up to its CRC field.  A good frame is truncated to its length in
/// place and moved to the handler: one buffer per frame, sized up front
/// from the largest PDU the VC has carried.
class Aal5Reassembler {
 public:
  using FrameHandler = std::function<void(Aal5Frame)>;
  using ErrorHandler = std::function<void(Vci, Aal5Error)>;

  /// `on_frame` must be set; `on_error` may be empty (errors then counted
  /// but dropped, as hardware would).
  Aal5Reassembler(FrameHandler on_frame, ErrorHandler on_error = {});

  /// Feed one cell from the wire.
  void cell_arrival(const Cell& cell);

  /// Forget per-VC state (on VC teardown).  Any partial frame is discarded.
  /// Safe to call from inside either handler.
  void release(Vci vci);

  /// Count of frames that failed reassembly, by any cause.
  [[nodiscard]] std::uint64_t error_count() const noexcept { return errors_; }
  /// Count of frames that failed reassembly for cause `e`.  Frame-aware
  /// discard (EPD) shows up here as out_of_order only — a clean sequence
  /// gap, never a truncated CRC-broken frame.
  [[nodiscard]] std::uint64_t error_count(Aal5Error e) const noexcept {
    return errors_by_cause_[static_cast<std::size_t>(e)];
  }
  /// Count of frames delivered.
  [[nodiscard]] std::uint64_t frame_count() const noexcept { return frames_; }

 private:
  struct VcState {
    util::Buffer partial;       ///< cells of the frame in progress
    std::uint32_t pdu_hint = 0; ///< largest PDU seen; reserved per frame
    bool has_expected_seq = false;
    std::uint8_t expected_seq = 0;
  };

  void fail(Vci vci, Aal5Error e);

  FrameHandler on_frame_;
  ErrorHandler on_error_;
  std::map<Vci, VcState> vcs_;
  std::uint64_t errors_ = 0;
  std::array<std::uint64_t, 4> errors_by_cause_{};
  std::uint64_t frames_ = 0;
};

/// Number of cells a payload of `n` bytes segments into (padding + trailer
/// included).  Exposed for capacity math in benches and admission control.
[[nodiscard]] constexpr std::size_t cells_for_payload(std::size_t n) noexcept {
  return (n + kAal5TrailerBytes + kCellPayload - 1) / kCellPayload;
}

}  // namespace xunet::atm
