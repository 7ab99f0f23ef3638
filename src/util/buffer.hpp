// buffer.hpp — byte buffers and big-endian wire serialization.
//
// All wire formats in this library (signaling messages, the IPPROTO_ATM
// encapsulation header, IP headers, AAL5 trailers) are serialized through
// Writer/Reader so that byte order and bounds checking live in one place.
#pragma once

#include <cassert>
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

/// Big-endian loads from raw bytes whose bounds the caller has checked.
[[nodiscard]] inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}
[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(load_u16(p)) << 16 | load_u16(p + 2);
}
[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(load_u32(p)) << 32 | load_u32(p + 4);
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
  /// Length-prefixed (u16) byte string.  The caller rejects longer input
  /// where it enters the system; a longer one here is a bug.
  void lp_bytes(BytesView v) {
    assert(v.size() <= 0xFFFF);
    u16(static_cast<std::uint16_t>(v.size()));
    bytes(v);
  }
  /// Length-prefixed (u16) text string, limited as lp_bytes.
  void lp_string(std::string_view s) {
    assert(s.size() <= 0xFFFF);
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Overwrite the two bytes already written at `at`, e.g. a checksum
  /// over what follows it.
  void patch_u16(std::size_t at, std::uint16_t v) {
    assert(at + 2 <= buf_.size());
    buf_[at] = static_cast<std::uint8_t>(v >> 8);
    buf_[at + 1] = static_cast<std::uint8_t>(v);
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
    pos_ += 2;
    return load_u16(data_.data() + pos_ - 2);
  }
  [[nodiscard]] Result<std::uint32_t> u32() {
    if (remaining() < 4) return Errc::protocol_error;
    pos_ += 4;
    return load_u32(data_.data() + pos_ - 4);
  }
  [[nodiscard]] Result<std::uint64_t> u64() {
    if (remaining() < 8) return Errc::protocol_error;
    pos_ += 8;
    return load_u64(data_.data() + pos_ - 8);
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

/// One chunk of a byte stream for a de-framer that keeps a partial message
/// in `tail` between chunks.  `take(bytes)` consumes whole messages from
/// the front of `bytes` and returns how many bytes it used; the rest is
/// kept.  With nothing held, `bytes` is the chunk itself, so a chunk of
/// whole messages is never copied.
template <typename Take>
void feed_stream(Buffer& tail, BytesView chunk, Take&& take) {
  const bool held = !tail.empty();
  if (held) tail.insert(tail.end(), chunk.begin(), chunk.end());
  const std::size_t used = take(held ? BytesView(tail) : chunk);
  if (held) {
    tail.erase(tail.begin(), tail.begin() + static_cast<long>(used));
  } else {
    tail.assign(chunk.begin() + static_cast<long>(used), chunk.end());
  }
}

}  // namespace xunet::util
