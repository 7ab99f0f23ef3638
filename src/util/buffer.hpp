// buffer.hpp — byte buffers and big-endian wire serialization.
//
// All wire formats in this library (signaling messages, the IPPROTO_ATM
// encapsulation header, IP headers, AAL5 trailers) are serialized through
// Writer/Reader so that byte order and bounds checking live in one place.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace xunet::util {

/// Owned, growable byte buffer.  Thin alias so the element type is uniform
/// across the code base.
using Buffer = std::vector<std::uint8_t>;

/// Non-owning read-only view of bytes.
using BytesView = std::span<const std::uint8_t>;

/// Copy a view into an owned buffer.
[[nodiscard]] inline Buffer to_buffer(BytesView v) {
  return Buffer(v.begin(), v.end());
}

/// Make a buffer from a string's bytes.
[[nodiscard]] inline Buffer to_buffer(std::string_view s) {
  return Buffer(s.begin(), s.end());
}

/// Interpret a byte view as text (for QoS strings, service names).
[[nodiscard]] inline std::string to_text(BytesView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

/// Big-endian serializer appending to an owned Buffer.
class Writer {
 public:
  Writer() = default;
  /// Start writing into an existing buffer (appends).
  explicit Writer(Buffer initial) : buf_(std::move(initial)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  /// Raw bytes, no length prefix.
  void bytes(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  /// Length-prefixed (u16) byte string; rejects nothing — caller enforces
  /// limits before serializing.
  void lp_bytes(BytesView v) {
    u16(static_cast<std::uint16_t>(v.size()));
    bytes(v);
  }
  /// Length-prefixed (u16) text string.
  void lp_string(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Size the buffer for `n` bytes in total, so a writer that knows its
  /// message size up front allocates once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  /// Take the finished buffer; the Writer is left empty.
  [[nodiscard]] Buffer take() { return std::move(buf_); }
  [[nodiscard]] BytesView view() const noexcept { return buf_; }

 private:
  Buffer buf_;
};

/// Big-endian bounds-checked deserializer over a byte view.  Every accessor
/// returns a Result so malformed wire input can never read out of bounds.
class Reader {
 public:
  explicit Reader(BytesView data) noexcept : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8() {
    if (remaining() < 1) return Errc::protocol_error;
    return data_[pos_++];
  }
  [[nodiscard]] Result<std::uint16_t> u16() {
    if (remaining() < 2) return Errc::protocol_error;
    auto hi = data_[pos_], lo = data_[pos_ + 1];
    pos_ += 2;
    return static_cast<std::uint16_t>((hi << 8) | lo);
  }
  [[nodiscard]] Result<std::uint32_t> u32() {
    auto hi = u16();
    if (!hi) return hi.error();
    auto lo = u16();
    if (!lo) return lo.error();
    return (static_cast<std::uint32_t>(*hi) << 16) | *lo;
  }
  [[nodiscard]] Result<std::uint64_t> u64() {
    auto hi = u32();
    if (!hi) return hi.error();
    auto lo = u32();
    if (!lo) return lo.error();
    return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
  }
  /// Fixed-size raw byte run.
  [[nodiscard]] Result<BytesView> bytes(std::size_t n) {
    if (remaining() < n) return Errc::protocol_error;
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  /// u16 length-prefixed byte string.
  [[nodiscard]] Result<BytesView> lp_bytes() {
    auto n = u16();
    if (!n) return n.error();
    return bytes(*n);
  }
  /// u16 length-prefixed text string.
  [[nodiscard]] Result<std::string> lp_string() {
    auto v = lp_bytes();
    if (!v) return v.error();
    return to_text(*v);
  }
  /// Everything not yet consumed.
  [[nodiscard]] BytesView rest() const noexcept { return data_.subspan(pos_); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace xunet::util
