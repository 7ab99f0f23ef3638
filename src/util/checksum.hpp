// checksum.hpp — 16-bit one's-complement Internet checksum (RFC 1071),
// used by the simulated IP header, and Fletcher-16, which guards the
// signaling messages.
#pragma once

#include <cstdint>

#include "util/buffer.hpp"

namespace xunet::util {

/// Internet checksum over a byte run.  An odd trailing byte is padded with
/// zero, per RFC 1071.
[[nodiscard]] std::uint16_t internet_checksum(BytesView data) noexcept;

/// True when a header whose checksum field is included in `data` verifies.
[[nodiscard]] inline bool checksum_ok(BytesView data) noexcept {
  return internet_checksum(data) == 0;
}

/// Fletcher-16 (sums modulo 255) over a byte run: the second sum in the
/// high byte, the first in the low byte.
[[nodiscard]] std::uint16_t fletcher16(BytesView data) noexcept;

}  // namespace xunet::util
