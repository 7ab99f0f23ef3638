#include "atm/aal5.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/crc32.hpp"

namespace xunet::atm {

using util::Errc;

std::string_view to_string(Aal5Error e) noexcept {
  switch (e) {
    case Aal5Error::crc_mismatch: return "crc_mismatch";
    case Aal5Error::length_mismatch: return "length_mismatch";
    case Aal5Error::out_of_order: return "out_of_order";
    case Aal5Error::oversize: return "oversize";
  }
  return "?";
}

util::Result<void> Aal5Segmenter::segment(Vci vci, util::BytesView payload,
                                          std::vector<Cell>& out) {
  const std::size_t total = payload.size();
  if (total > kMaxFramePayload) return Errc::message_too_long;
  if (vci == kInvalidVci) return Errc::invalid_argument;

  const std::uint8_t seq = seq_[vci]++;

  const std::size_t ncells = cells_for_payload(total);
  const std::size_t pad = ncells * kCellPayload - kAal5TrailerBytes - total;
  const std::array<std::uint8_t, 4> head = {
      seq,  // UU: Xunet-variant frame sequence number
      0,    // CPI
      static_cast<std::uint8_t>(total >> 8), static_cast<std::uint8_t>(total)};
  // CRC-32 covers the whole PDU (payload | pad | trailer) except the CRC
  // field itself, in one pass per piece rather than one per cell.
  static constexpr std::array<std::uint8_t, kCellPayload> kZeros{};
  util::Crc32 crc;
  crc.update(payload);
  crc.update({kZeros.data(), pad});
  crc.update(head);
  const std::uint32_t v = crc.value();

  out.resize(ncells);
  for (std::size_t i = 0; i < ncells; ++i) {
    Cell& c = out[i];
    c.vci = vci;
    c.end_of_frame = (i + 1 == ncells);
    const std::size_t off = i * kCellPayload;
    const std::size_t take = off < total ? std::min(kCellPayload, total - off) : 0;
    if (take > 0) std::memcpy(c.payload.data(), payload.data() + off, take);
    std::memset(c.payload.data() + take, 0, kCellPayload - take);
  }
  // The data never reaches the trailer region of the final cell
  // (cells_for_payload reserves the 8 trailer bytes), so the zero pad
  // above is safely overwritten here.
  std::uint8_t* trailer = out.back().payload.data() + kCellPayload - kAal5TrailerBytes;
  std::memcpy(trailer, head.data(), head.size());
  trailer[4] = static_cast<std::uint8_t>(v >> 24);
  trailer[5] = static_cast<std::uint8_t>(v >> 16);
  trailer[6] = static_cast<std::uint8_t>(v >> 8);
  trailer[7] = static_cast<std::uint8_t>(v);
  return {};
}

util::Result<std::vector<Cell>> Aal5Segmenter::segment(Vci vci,
                                                       util::BytesView payload) {
  std::vector<Cell> cells;
  auto r = segment(vci, payload, cells);
  if (!r) return r.error();
  return cells;
}

std::uint8_t Aal5Segmenter::next_seq(Vci vci) const noexcept {
  auto it = seq_.find(vci);
  return it == seq_.end() ? 0 : it->second;
}

Aal5Reassembler::Aal5Reassembler(FrameHandler on_frame, ErrorHandler on_error)
    : on_frame_(std::move(on_frame)), on_error_(std::move(on_error)) {
  assert(on_frame_);
}

void Aal5Reassembler::fail(Vci vci, Aal5Error e) {
  ++errors_;
  ++errors_by_cause_[static_cast<std::size_t>(e)];
  if (on_error_) on_error_(vci, e);
}

void Aal5Reassembler::cell_arrival(const Cell& cell) {
  // RM cells are never part of an AAL5 frame; a feedback cell slipping
  // into the reassembly stream must not corrupt a partial frame.  The
  // Hobbit board filters them before reassembly; this is the backstop for
  // endpoints that feed the reassembler directly.
  if (cell.rm) return;
  VcState& vc = vcs_[cell.vci];
  if (vc.partial.size() + kCellPayload > kMaxFramePayload + kCellPayload * 2) {
    // A lost end-of-frame cell would otherwise grow this buffer without
    // bound; discard and report, as the Hobbit hardware would.
    vc.partial.clear();
    fail(cell.vci, Aal5Error::oversize);
    return;
  }
  if (vc.partial.empty()) vc.partial.reserve(vc.pdu_hint);
  vc.partial.insert(vc.partial.end(), cell.payload.begin(), cell.payload.end());
  if (!cell.end_of_frame) return;
  util::Buffer pdu = std::move(vc.partial);
  vc.partial.clear();
  vc.pdu_hint = std::max(vc.pdu_hint, static_cast<std::uint32_t>(pdu.size()));
  // CRC-32 covers the whole PDU except the CRC field itself.
  const std::uint32_t crc = util::crc32({pdu.data(), pdu.size() - 4});

  const std::uint8_t* trailer =
      cell.payload.data() + kCellPayload - kAal5TrailerBytes;
  const std::uint8_t seq = trailer[0];
  const std::size_t length =
      static_cast<std::size_t>(trailer[2]) << 8 | trailer[3];
  const std::uint32_t wire_crc = static_cast<std::uint32_t>(trailer[4]) << 24 |
                                 static_cast<std::uint32_t>(trailer[5]) << 16 |
                                 static_cast<std::uint32_t>(trailer[6]) << 8 |
                                 trailer[7];

  if (crc != wire_crc) {
    fail(cell.vci, Aal5Error::crc_mismatch);
    return;
  }
  // Length consistency: payload must fit the PDU with <48 bytes of pad.
  const std::size_t expected_pdu =
      cells_for_payload(length) * kCellPayload;
  if (expected_pdu != pdu.size()) {
    fail(cell.vci, Aal5Error::length_mismatch);
    return;
  }
  const bool in_order = !vc.has_expected_seq || seq == vc.expected_seq;
  // Resynchronize to the received frame either way, so one loss does not
  // poison the VC.  This is the last touch of `vc`: a handler may release()
  // the VC, which frees its state.
  vc.expected_seq = static_cast<std::uint8_t>(seq + 1);
  vc.has_expected_seq = true;
  if (!in_order) {
    fail(cell.vci, Aal5Error::out_of_order);
    return;
  }

  pdu.resize(length);  // drop pad and trailer in place
  Aal5Frame frame;
  frame.vci = cell.vci;
  frame.seq = seq;
  frame.payload = std::move(pdu);
  ++frames_;
  on_frame_(std::move(frame));
}

void Aal5Reassembler::release(Vci vci) { vcs_.erase(vci); }

}  // namespace xunet::atm
