#include "util/crc32.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define XUNET_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace xunet::util {
namespace {

/// Slicing-by-8 tables for the reflected 0x04C11DB7 polynomial, generated
/// at compile time.  kTables[0] is the classic byte-at-a-time table;
/// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups advance the state over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit word built from bytes, so the result does not
/// depend on host byte order (compilers fuse this into one load on
/// little-endian hosts).
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t update_tables(std::uint32_t c, const std::uint8_t* p,
                            std::size_t n) noexcept {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef XUNET_CRC32_CLMUL

/// Shortest input worth folding: four 128-bit lanes.
constexpr std::size_t kFoldMin = 64;

/// True when the CPU has PCLMULQDQ.  Decided once, on first use, so no
/// initializer depends on the order of static construction.
bool have_clmul() noexcept {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return yes;
}

inline __m128i load(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// `x` carried forward over the distance the constant pair `k` encodes.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Carry-less multiply folding over `n` bytes, n a multiple of 16 and at
/// least kFoldMin (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009).  Four 128-bit
/// accumulators advance 64 bytes per step, are folded into one, then the
/// 128-bit remainder is Barrett-reduced to the 32-bit CRC register.  The
/// constants are x^k mod P for the bit-reflected 0x04C11DB7 polynomial (the
/// set Linux's crc32-pclmul uses); `c` is the register state, as for the
/// table path.
__attribute__((target("pclmul"))) std::uint32_t fold_clmul(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(fold(x0, k1k2), load(p));
    x1 = _mm_xor_si128(fold(x1, k1k2), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k1k2), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k1k2), load(p + 48));
  }
  x0 = _mm_xor_si128(fold(x0, k3k4), x1);
  x0 = _mm_xor_si128(fold(x0, k3k4), x2);
  x0 = _mm_xor_si128(fold(x0, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = _mm_xor_si128(fold(x0, k3k4), load(p));
  }

  // 128 -> 96 bits (this also appends the 32 zero bits the CRC needs).
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(k3k4, x0, 0x01), _mm_srli_si128(x0, 8));
  // 96 -> 64 bits.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00),
                     _mm_srli_si128(x0, 4));
  // Barrett reduction 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#endif  // XUNET_CRC32_CLMUL

}  // namespace

void Crc32::update(BytesView data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = state_;
#ifdef XUNET_CRC32_CLMUL
  if (n >= kFoldMin && have_clmul()) {
    const std::size_t body = n & ~std::size_t{15};
    c = fold_clmul(c, p, body);
    p += body;
    n -= body;
  }
#endif
  state_ = update_tables(c, p, n);
}

std::uint32_t crc32(BytesView data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace xunet::util
