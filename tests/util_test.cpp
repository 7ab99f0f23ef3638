// util_test.cpp — unit tests for the utility substrate.
#include <gtest/gtest.h>

#include <memory>

#include "util/buffer.hpp"
#include "util/checksum.hpp"
#include "util/crc32.hpp"
#include "util/json.hpp"
#include "util/loc_scan.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace xunet::util {
namespace {

// ---------------------------------------------------------------- Result

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.error(), Errc::ok);

  Result<int> bad(Errc::not_found);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::not_found);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok;
  EXPECT_TRUE(ok.ok());
  Result<void> bad(Errc::timed_out);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::timed_out);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

TEST(Result, ErrcNamesAreDistinct) {
  EXPECT_EQ(to_string(Errc::ok), "ok");
  EXPECT_EQ(to_string(Errc::no_buffer_space), "no_buffer_space");
  EXPECT_EQ(to_string(Errc::too_many_files), "too_many_files");
  EXPECT_NE(to_string(Errc::rejected), to_string(Errc::cancelled));
}

// ------------------------------------------------------------------ JSON

// Every JSON-dangerous byte class a string can carry — quotes, backslashes,
// the named control escapes, and raw control bytes — comes out escaped.
TEST(Json, EscapeCoversQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain ascii"), "plain ascii");
  EXPECT_EQ(json_escape("q\"b\\e"), "q\\\"b\\\\e");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f\x00", 3)),
            "\\u0001\\u001f\\u0000");
}

// ------------------------------------------------------------ serialization

TEST(Serialization, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ull);
  Buffer buf = w.take();
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8);

  Reader r(buf);
  EXPECT_EQ(*r.u8(), 0xAB);
  EXPECT_EQ(*r.u16(), 0x1234);
  EXPECT_EQ(*r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.u64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, BigEndianOnTheWire) {
  Writer w;
  w.u16(0x0102);
  Buffer buf = w.take();
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(Serialization, LengthPrefixedStrings) {
  Writer w;
  w.lp_string("hello");
  w.lp_string("");
  Buffer buf = w.take();
  Reader r(buf);
  EXPECT_EQ(*r.lp_string(), "hello");
  EXPECT_EQ(*r.lp_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, TruncationIsAnError) {
  Writer w;
  w.u32(1);
  Buffer buf = w.take();
  buf.pop_back();
  Reader r(buf);
  auto v = r.u32();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.error(), Errc::protocol_error);
}

TEST(Serialization, LpStringTruncatedBodyIsAnError) {
  Writer w;
  w.u16(10);  // claims 10 bytes
  w.bytes(to_buffer(std::string_view("abc")));
  Buffer buf = w.take();
  Reader r(buf);
  EXPECT_FALSE(r.lp_string().ok());
}

class SerializationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SerializationSweep, ByteRunsRoundTrip) {
  std::size_t n = GetParam();
  Rng rng(n * 7 + 1);
  Buffer data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  Writer w;
  w.lp_bytes(data);
  Buffer buf = w.take();
  Reader r(buf);
  auto out = r.lp_bytes();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(to_buffer(*out), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerializationSweep,
                         ::testing::Values(0, 1, 2, 47, 48, 255, 4096, 65535));

// ------------------------------------------------------------------- CRC32

TEST(Crc32, KnownVectors) {
  // Standard check value: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(to_buffer(std::string_view("123456789"))), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::string s = "the quick brown fox jumps over the lazy dog";
  Crc32 inc;
  Buffer whole = to_buffer(std::string_view(s));
  inc.update({whole.data(), 10});
  inc.update({whole.data() + 10, whole.size() - 10});
  EXPECT_EQ(inc.value(), crc32(whole));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Buffer data(100, 0x55);
  std::uint32_t before = crc32(data);
  data[50] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

// Bit-serial CRC-32, one byte per outer step: the textbook definition both
// engines (carry-less folding, slicing-by-8) must reproduce exactly.
std::uint32_t reference_crc32(BytesView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

Buffer random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Buffer b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  // Every length through the 64-byte folding threshold and several 16-byte
  // folds plus every tail size, from every start offset within a 16-byte
  // lane, so unaligned loads on both the folded and the table path are hit.
  const Buffer data = random_bytes(300 + 16, 11);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const BytesView v{data.data() + off, len};
      ASSERT_EQ(crc32(v), reference_crc32(v)) << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, MatchesReferenceUnderRandomChunking) {
  // Messages up to the largest AAL5 PDU (9180-byte payload + pad + trailer)
  // fed in pieces.  Small pieces stay on the table path; two-way splits put
  // one cut at a random point, near the front (inside the first 64-byte
  // fold) or near the end (inside the last 16-byte tail).
  constexpr std::size_t kMaxPdu = 9188;
  const Buffer msg = random_bytes(kMaxPdu, 12);
  Rng rng(13);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t len = trial < 200 ? 3000 : rng.below(kMaxPdu + 1);
    const BytesView whole{msg.data(), len};
    Crc32 inc;
    if (trial < 200) {
      std::size_t pos = 0;
      while (pos < len) {
        const std::size_t n = std::min<std::size_t>(rng.below(40), len - pos);
        inc.update(whole.subspan(pos, n));
        pos += n;
      }
    } else {
      std::size_t cut = rng.below(len + 1);
      if (trial % 3 == 1) cut = std::min<std::size_t>(rng.below(64), len);
      if (trial % 3 == 2) cut = len - std::min<std::size_t>(rng.below(16), len);
      inc.update(whole.first(cut));
      inc.update(whole.subspan(cut));
    }
    ASSERT_EQ(inc.value(), reference_crc32(whole))
        << "trial " << trial << " length " << len;
  }
}

// ---------------------------------------------------------------- checksum

TEST(Checksum, VerifiesAfterEmbedding) {
  Buffer hdr = {0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40,
                0x06, 0x00, 0x00, 0xac, 0x10, 0x0a, 0x63, 0xac, 0x10,
                0x0a, 0x0c};
  std::uint16_t csum = internet_checksum(hdr);
  hdr[10] = static_cast<std::uint8_t>(csum >> 8);
  hdr[11] = static_cast<std::uint8_t>(csum);
  EXPECT_TRUE(checksum_ok(hdr));
  hdr[3] ^= 0xFF;
  EXPECT_FALSE(checksum_ok(hdr));
}

TEST(Checksum, OddLengthDoesNotCrash) {
  Buffer odd = {0x01, 0x02, 0x03};
  (void)internet_checksum(odd);
  SUCCEED();
}

// ------------------------------------------------------------------- stats

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.4142, 1e-3);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(Stats, LinearFitRecoversExactLine) {
  std::vector<double> x{1, 2, 4, 8, 16};
  std::vector<double> y;
  for (double v : x) y.push_back(99.0 + 8.0 * v);  // the Table 1 shape
  auto f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 99.0, 1e-9);
  EXPECT_NEAR(f.slope, 8.0, 1e-9);
  EXPECT_NEAR(f.max_residual, 0.0, 1e-9);
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(77);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanIsRoughlyRight) {
  Rng r(31);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

// ------------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  TextTable t("Demo");
  t.header({"Component", "Count"});
  t.row({"PF_XUNET", "99"});
  t.row({"IP", "57"});
  std::string out = t.render();
  EXPECT_NE(out.find("== Demo =="), std::string::npos);
  EXPECT_NE(out.find("PF_XUNET"), std::string::npos);
  EXPECT_NE(out.find("57"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

// ---------------------------------------------------------------- loc scan

TEST(LocScan, CountsOwnSources) {
  auto c = scan_component("util", std::string(XUNET_SOURCE_DIR) + "/src/util");
  EXPECT_GT(c.files, 5u);
  EXPECT_GT(c.lines, 200u);
  EXPECT_GT(c.code_lines, 100u);
  EXPECT_LT(c.code_lines, c.lines);
}

TEST(LocScan, MissingDirectoryYieldsZeroes) {
  auto c = scan_component("ghost", "/no/such/dir");
  EXPECT_EQ(c.files, 0u);
  EXPECT_EQ(c.lines, 0u);
}

}  // namespace
}  // namespace xunet::util
