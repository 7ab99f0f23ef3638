// wire_test.cpp — the call path's wire formats: every writer's bytes are
// pinned by a golden digest over a fixed table of inputs, Fletcher-16 is
// checked against a per-byte reference, each writer makes one allocation
// per message, and the stream de-framers survive arbitrary chunking.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "digest.hpp"
#include "ip/packet.hpp"
#include "signaling/messages.hpp"
#include "signaling/stub_proto.hpp"
#include "tcpsim/segment.hpp"
#include "util/alloc_hook.hpp"
#include "util/buffer.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace xunet {
namespace {

// ------------------------------------------------------------ input table

constexpr auto kFirstType = static_cast<std::uint8_t>(sig::MsgType::export_srv);
constexpr auto kLastType = static_cast<std::uint8_t>(sig::MsgType::peer_resync_info);

/// One message per MsgType with ordinary field values, then the edges:
/// all fields zero and strings empty, every field at its maximum with
/// 255-byte strings, and mixed string lengths.
std::vector<sig::Msg> msg_table() {
  std::vector<sig::Msg> out;
  for (std::uint8_t t = kFirstType; t <= kLastType; ++t) {
    sig::Msg m;
    m.type = static_cast<sig::MsgType>(t);
    m.req_id = 0x01020304u * t;
    m.seq = t % 3 == 0 ? 0 : 1000u + t;
    m.cookie = static_cast<sig::Cookie>(0x1234 + t);
    m.vci = static_cast<atm::Vci>(32 + t);
    m.vci2 = t % 2 == 0 ? atm::kInvalidVci : static_cast<atm::Vci>(100 + t);
    m.port = static_cast<std::uint16_t>(4000 + t);
    m.service = t % 4 == 0 ? "" : "echo";
    m.qos = t % 5 == 0 ? "" : "peak=1000;mean=500";
    m.dst = "berkeley.rt";
    m.comment = t % 2 == 0 ? "" : "hello from murray hill";
    m.error = static_cast<std::uint8_t>(t % 7);
    m.trace_id = t % 3 == 1 ? 0 : 0x0102030405060708ull * t;
    m.parent_span = t % 3 == 2 ? 0 : 0x1111111111111111ull + t;
    out.push_back(m);
  }
  sig::Msg empty;
  out.push_back(empty);
  sig::Msg max;
  max.type = sig::MsgType::peer_resync_info;
  max.req_id = 0xFFFFFFFFu;
  max.seq = 0xFFFFFFFFu;
  max.cookie = 0xFFFF;
  max.vci = 0xFFFF;
  max.vci2 = 0xFFFF;
  max.port = 0xFFFF;
  max.error = 0xFF;
  max.trace_id = ~std::uint64_t{0};
  max.parent_span = ~std::uint64_t{0};
  max.service = std::string(255, 's');
  max.qos = std::string(255, '\xFF');
  max.dst = std::string(255, 'd');
  max.comment = std::string(255, '\0');
  out.push_back(max);
  sig::Msg mixed = max;
  mixed.type = sig::MsgType::connect_req;
  mixed.service.clear();
  mixed.dst = "x";
  out.push_back(mixed);
  return out;
}

std::vector<sig::StubMsg> stub_table() {
  std::vector<sig::StubMsg> out;
  for (std::uint8_t t = 1; t <= 4; ++t) {
    for (std::uint8_t u = 0; u <= 2; ++u) {
      sig::StubMsg m;
      m.type = static_cast<sig::StubMsg::Type>(t);
      m.up_type = static_cast<kern::AnandUpType>(u);
      m.vci = static_cast<std::uint16_t>(40 + 3 * t + u);
      m.cookie = static_cast<std::uint16_t>(0xBEEF ^ (t << 8 | u));
      m.machine = ip::IpAddress{0x0A000001u + t};
      out.push_back(m);
    }
  }
  sig::StubMsg zero;
  zero.machine = ip::IpAddress{0};
  out.push_back(zero);
  sig::StubMsg max;
  max.type = sig::StubMsg::Type::down_disconnect;
  max.up_type = kern::AnandUpType::connect_indication;
  max.vci = 0xFFFF;
  max.cookie = 0xFFFF;
  max.machine = ip::IpAddress{0xFFFFFFFFu};
  out.push_back(max);
  return out;
}

util::Buffer pattern(std::size_t n, unsigned mul) {
  util::Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * mul + 1);
  return b;
}

std::vector<tcp::Segment> segment_table() {
  std::vector<tcp::Segment> out;
  for (unsigned f = 0; f < 16; ++f) {
    tcp::Segment s;
    s.src_port = static_cast<std::uint16_t>(10000 + f);
    s.dst_port = 177;
    s.seq = 1000 + 0x10000u * f;
    s.ack = f % 2 == 0 ? 0 : 2000 + f;
    s.flags = tcp::Flags{.syn = (f & 1) != 0, .ack = (f & 2) != 0,
                         .fin = (f & 4) != 0, .rst = (f & 8) != 0};
    s.window = 64;
    s.payload = pattern(f * 7, 13);
    out.push_back(s);
  }
  tcp::Segment max;
  max.src_port = 0xFFFF;
  max.dst_port = 0xFFFF;
  max.seq = 0xFFFFFFFFu;
  max.ack = 0xFFFFFFFFu;
  max.flags = tcp::Flags{.syn = true, .ack = true, .fin = true, .rst = true};
  max.window = 0xFFFF;
  max.payload = pattern(1400, 31);
  out.push_back(max);
  tcp::Segment empty;
  out.push_back(empty);
  return out;
}

std::vector<ip::IpPacket> packet_table() {
  std::vector<ip::IpPacket> out;
  ip::IpPacket p;
  p.src = ip::IpAddress{0x0A000001u};
  p.dst = ip::IpAddress{0x0A000102u};
  p.protocol = ip::IpProto::tcp;
  p.id = 7;
  p.payload = pattern(40, 3);
  out.push_back(p);
  ip::IpPacket frag = p;
  frag.protocol = ip::IpProto::atm;
  frag.id = 0xFFFF;
  frag.ttl = 1;
  frag.more_fragments = true;
  frag.frag_offset = 4328;
  frag.payload = pattern(4328, 5);
  out.push_back(frag);
  ip::IpPacket last = frag;
  last.more_fragments = false;
  last.frag_offset = 0x1FFF * 8;
  last.payload = pattern(3, 11);
  out.push_back(last);
  ip::IpPacket max;
  max.src = ip::IpAddress{0xFFFFFFFFu};
  max.dst = ip::IpAddress{0xFFFFFFFFu};
  max.protocol = ip::IpProto::udp;
  max.ttl = 0xFF;
  max.id = 0xFFFF;
  out.push_back(max);
  return out;
}

void append(std::string& transcript, const util::Buffer& wire) {
  transcript.append(reinterpret_cast<const char*>(wire.data()), wire.size());
}

// ------------------------------------------------------------- wire golden

// Digest of every writer's output over the tables above, in order:
// sig::serialize and sig::frame per message, then each StubMsg, TCP
// segment and IP packet.  Any byte that moves changes it.
constexpr std::uint64_t kWireDigest = 0xe5023c5f23adeebeull;

TEST(Wire, EveryWriterIsByteExact) {
  std::string transcript;
  for (const sig::Msg& m : msg_table()) {
    append(transcript, sig::serialize(m));
    append(transcript, sig::frame(m));
  }
  for (const sig::StubMsg& m : stub_table()) append(transcript, sig::serialize(m));
  for (const tcp::Segment& s : segment_table()) append(transcript, tcp::serialize(s));
  for (const ip::IpPacket& p : packet_table()) append(transcript, ip::serialize(p));
  EXPECT_EQ(golden::fnv1a64(transcript), kWireDigest)
      << std::hex << "digest 0x" << golden::fnv1a64(transcript) << std::dec
      << " over " << transcript.size() << " bytes";
}

TEST(Wire, EveryMessageRoundTrips) {
  for (const sig::Msg& m : msg_table()) {
    auto parsed = sig::parse_msg(sig::serialize(m));
    ASSERT_TRUE(parsed.ok()) << sig::to_string(m.type);
    EXPECT_EQ(sig::serialize(*parsed), sig::serialize(m));
  }
  for (const tcp::Segment& s : segment_table()) {
    auto parsed = tcp::parse_segment(tcp::serialize(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(tcp::serialize(*parsed), tcp::serialize(s));
  }
}

// ------------------------------------------------------------- Fletcher-16

/// The textbook form: both sums reduced after every byte.
std::uint16_t fletcher16_per_byte(util::BytesView data) {
  std::uint32_t a = 0, b = 0;
  for (std::uint8_t byte : data) {
    a = (a + byte) % 255;
    b = (b + a) % 255;
  }
  return static_cast<std::uint16_t>((b << 8) | a);
}

TEST(Wire, Fletcher16MatchesThePerByteReference) {
  std::vector<util::Buffer> inputs;
  for (std::size_t n = 0; n <= 3; ++n) inputs.push_back(util::Buffer(n, 0xFF));
  inputs.push_back(util::Buffer{0x01, 0x02});
  // All-0xFF runs drive both sums to their worst case across block ends.
  for (std::size_t n : {5801u, 5802u, 5803u, 11604u, 11605u, 20000u}) {
    inputs.push_back(util::Buffer(n, 0xFF));
  }
  inputs.push_back(util::Buffer(65535, 0xFF));
  util::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    util::Buffer b(rng.below(i < 100 ? 64 : 30000));
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
    inputs.push_back(std::move(b));
  }
  util::Buffer random_max(65535);
  for (auto& byte : random_max) byte = static_cast<std::uint8_t>(rng.next());
  inputs.push_back(std::move(random_max));
  for (const util::Buffer& b : inputs) {
    EXPECT_EQ(util::fletcher16(b), fletcher16_per_byte(b)) << b.size() << " bytes";
  }
}

// -------------------------------------------------------- allocation budget

/// Heap allocations made while `fn` runs.
template <typename F>
std::uint64_t allocs_of(F&& fn) {
  const std::uint64_t before = util::alloc_count();
  fn();
  return util::alloc_count() - before;
}

TEST(Wire, EveryWriterAllocatesOneBufferPerMessage) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "alloc hook not linked into this binary";
  }
  std::size_t bytes = 0;  // consumes each result so no writer is elided
  for (const sig::Msg& m : msg_table()) {
    EXPECT_EQ(allocs_of([&] { bytes += sig::serialize(m).size(); }), 1u)
        << "serialize " << sig::to_string(m.type);
    EXPECT_EQ(allocs_of([&] { bytes += sig::frame(m).size(); }), 1u)
        << "frame " << sig::to_string(m.type);
  }
  for (const sig::StubMsg& m : stub_table()) {
    EXPECT_EQ(allocs_of([&] { bytes += sig::serialize(m).size(); }), 1u);
  }
  for (const tcp::Segment& s : segment_table()) {
    EXPECT_EQ(allocs_of([&] { bytes += tcp::serialize(s).size(); }), 1u);
  }
  for (const ip::IpPacket& p : packet_table()) {
    EXPECT_EQ(allocs_of([&] { bytes += ip::serialize(p).size(); }), 1u);
  }
  EXPECT_GT(bytes, 0u);
}

// ----------------------------------------------------------- de-framers

/// Cut `stream` at random points: mostly small pieces, sometimes a large
/// one carrying many messages at once, sometimes single bytes.
std::vector<util::BytesView> random_cuts(const util::Buffer& stream, util::Rng& rng) {
  std::vector<util::BytesView> cuts;
  std::size_t off = 0;
  while (off < stream.size()) {
    std::size_t n = rng.chance(0.1) ? 1 + rng.below(4000) : 1 + rng.below(80);
    n = std::min(n, stream.size() - off);
    cuts.emplace_back(stream.data() + off, n);
    off += n;
  }
  return cuts;
}

TEST(Wire, MsgFramerDeliversEveryMessageInOrderAcrossRandomCuts) {
  constexpr std::uint32_t kMessages = 1000;
  util::Rng rng(23);
  std::vector<util::Buffer> sent;
  util::Buffer stream;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    sig::Msg m;
    m.type = static_cast<sig::MsgType>(kFirstType + i % (kLastType - kFirstType + 1));
    m.req_id = i;
    m.seq = static_cast<std::uint32_t>(rng.next());
    m.service = std::string(rng.below(40), 's');
    m.qos = std::string(rng.below(300), 'q');
    m.comment = std::string(rng.below(8), static_cast<char>(i));
    sent.push_back(sig::serialize(m));
    util::Buffer framed = sig::frame(m);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  std::vector<util::Buffer> got;
  int errors = 0;
  sig::MsgFramer framer([&](const sig::Msg& m) { got.push_back(sig::serialize(m)); },
                        [&](util::Errc) { ++errors; });
  for (util::BytesView cut : random_cuts(stream, rng)) framer.feed(cut);
  EXPECT_EQ(errors, 0);
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], sent[i]) << i;
}

TEST(Wire, StubFramerDeliversEveryMessageInOrderAcrossRandomCuts) {
  constexpr std::uint16_t kMessages = 1000;
  util::Rng rng(29);
  util::Buffer stream;
  for (std::uint16_t i = 0; i < kMessages; ++i) {
    sig::StubMsg m;
    m.type = static_cast<sig::StubMsg::Type>(1 + i % 4);
    m.up_type = static_cast<kern::AnandUpType>(i % 3);
    m.vci = i;
    m.cookie = static_cast<std::uint16_t>(rng.next());
    m.machine = ip::IpAddress{static_cast<std::uint32_t>(rng.next())};
    util::Buffer wire = sig::serialize(m);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  util::Buffer got;
  std::uint16_t next_vci = 0;
  bool in_order = true;
  sig::StubFramer framer([&](const sig::StubMsg& m) {
    in_order = in_order && m.vci == next_vci++;
    util::Buffer wire = sig::serialize(m);
    got.insert(got.end(), wire.begin(), wire.end());
  });
  for (util::BytesView cut : random_cuts(stream, rng)) framer.feed(cut);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(next_vci, kMessages);
  EXPECT_EQ(got, stream);
}

}  // namespace
}  // namespace xunet
