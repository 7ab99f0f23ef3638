// digest.hpp — 64-bit FNV-1a digest for golden-value replay tests.
//
// A replay test pins a long transcript (a JSONL export, a cell schedule)
// by its digest instead of a checked-in copy.  On a mismatch the test
// prints the new digest so an intended behaviour change can update it.
#pragma once

#include <cstdint>
#include <string_view>

namespace xunet::golden {

[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace xunet::golden
