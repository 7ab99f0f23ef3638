// mbuf.hpp — BSD-style message buffer chains.
//
// The paper's instruction counts are functions of the number of mbufs in a
// message (Table 1: "+ 8 * (# of mbufs)"), and the Orc/Hobbit interface is
// "simply a pointer to an mbuf chain".  A chain here is one contiguous
// buffer plus the number of mbufs the message would occupy: the mbuf shape
// feeds only Table 1's per-mbuf term, so the bytes never need to be split.
// Layers hand a chain on by move, so a frame is copied once per direction
// (application buffer in on send, cells into the reassembly buffer on
// receive) and never again on the way through PF_XUNET, Orc and Hobbit.
#pragma once

#include <cstdint>

#include "util/buffer.hpp"

namespace xunet::kern {

/// A message held as one buffer, shaped as `mbuf_count()` mbufs.
class MbufChain {
 public:
  MbufChain() = default;

  /// Copy contiguous bytes into a chain of `mbuf_bytes` per mbuf (the last
  /// may be short).  Empty input still counts as a single mbuf, as a
  /// zero-length write occupies one buffer.
  static MbufChain from_bytes(util::BytesView data, std::size_t mbuf_bytes);

  /// Same shape as from_bytes, but takes ownership of `data` without
  /// copying it.
  static MbufChain adopt(util::Buffer&& data, std::size_t mbuf_bytes);

  /// Build a chain with an explicit shape: `count` mbufs of `each` bytes
  /// filled with `fill` (instruction-count benches control #mbufs exactly).
  static MbufChain shaped(std::size_t count, std::size_t each,
                          std::uint8_t fill = 0xA5);

  [[nodiscard]] std::size_t mbuf_count() const noexcept { return mbufs_; }
  [[nodiscard]] std::size_t total_bytes() const noexcept { return data_.size(); }
  /// The message bytes, in order.
  [[nodiscard]] util::BytesView bytes() const noexcept { return data_; }

  /// Release the buffer to the caller, consuming the chain.
  [[nodiscard]] util::Buffer take() && noexcept { return std::move(data_); }

 private:
  MbufChain(util::Buffer data, std::size_t mbufs)
      : data_(std::move(data)), mbufs_(mbufs) {}

  util::Buffer data_;
  std::size_t mbufs_ = 0;
};

}  // namespace xunet::kern
