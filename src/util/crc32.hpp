// crc32.hpp — CRC-32 (IEEE 802.3 polynomial) as used by the AAL5 trailer.
#pragma once

#include <cstdint>

#include "util/buffer.hpp"

namespace xunet::util {

/// Incremental CRC-32 engine (polynomial 0x04C11DB7, reflected form), the
/// CRC used by AAL5.  Feed bytes in any chunking; value() is the final CRC.
/// On x86-64 CPUs with PCLMULQDQ, update() folds the 16-byte multiple body
/// of a run of 64 bytes or more with carry-less multiplies; the rest, and
/// everything on other hosts, goes eight bytes per step (slicing-by-8).
/// Results are bit-identical to the byte-at-a-time table method either way.
class Crc32 {
 public:
  Crc32() noexcept = default;

  /// Mix a run of bytes into the CRC.
  void update(BytesView data) noexcept;

  /// Final CRC value for everything fed so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  /// Reset to the empty-message state.
  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte run.
[[nodiscard]] std::uint32_t crc32(BytesView data) noexcept;

}  // namespace xunet::util
