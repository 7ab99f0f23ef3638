#include "util/checksum.hpp"

namespace xunet::util {

std::uint16_t internet_checksum(BytesView data) noexcept {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFFu) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFu);
}

std::uint16_t fletcher16(BytesView data) noexcept {
  // Both sums are reduced once per block rather than once per byte.  After
  // n bytes from reduced sums (< 255), b is at most 254 + 254n +
  // 255n(n+1)/2, which stays below 2^32 for n <= 5802.
  constexpr std::size_t kBlock = 5802;
  std::uint32_t a = 0, b = 0;
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const std::size_t n = left < kBlock ? left : kBlock;
    for (std::size_t i = 0; i < n; ++i) {
      a += p[i];
      b += a;
    }
    a %= 255;
    b %= 255;
    p += n;
    left -= n;
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

}  // namespace xunet::util
