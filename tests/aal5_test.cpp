// aal5_test.cpp — the Xunet AAL5 variant: segmentation, reassembly, and the
// two guarantees of §5.4 (cell loss within a frame, out-of-order frames).
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "atm/aal5.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace xunet::atm {
namespace {

struct Collector {
  std::vector<Aal5Frame> frames;
  std::vector<std::pair<Vci, Aal5Error>> errors;
  Aal5Reassembler reasm{[this](Aal5Frame f) { frames.push_back(std::move(f)); },
                        [this](Vci v, Aal5Error e) { errors.emplace_back(v, e); }};
};

util::Buffer make_payload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Buffer b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

TEST(Aal5, CellsForPayloadMath) {
  EXPECT_EQ(cells_for_payload(0), 1u);   // trailer alone needs one cell
  EXPECT_EQ(cells_for_payload(40), 1u);  // 40 + 8 == 48
  EXPECT_EQ(cells_for_payload(41), 2u);
  EXPECT_EQ(cells_for_payload(88), 2u);  // 88 + 8 == 96
  EXPECT_EQ(cells_for_payload(89), 3u);
}

TEST(Aal5, SegmentSetsEndOfFrameOnLastCellOnly) {
  Aal5Segmenter seg;
  auto cells = seg.segment(100, make_payload(200, 1));
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), cells_for_payload(200));
  for (std::size_t i = 0; i < cells->size(); ++i) {
    EXPECT_EQ((*cells)[i].end_of_frame, i + 1 == cells->size());
    EXPECT_EQ((*cells)[i].vci, 100);
  }
}

TEST(Aal5, RejectsOversizeAndInvalidVci) {
  Aal5Segmenter seg;
  EXPECT_EQ(seg.segment(100, util::Buffer(kMaxFramePayload + 1, 0)).error(),
            util::Errc::message_too_long);
  EXPECT_EQ(seg.segment(kInvalidVci, make_payload(10, 2)).error(),
            util::Errc::invalid_argument);
}

class Aal5RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Aal5RoundTrip, PayloadSurvivesSegmentationAndReassembly) {
  const std::size_t n = GetParam();
  Aal5Segmenter seg;
  Collector c;
  util::Buffer payload = make_payload(n, n + 17);
  auto cells = seg.segment(7, payload);
  ASSERT_TRUE(cells.ok());
  for (const Cell& cell : *cells) c.reasm.cell_arrival(cell);
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].payload, payload);
  EXPECT_EQ(c.frames[0].vci, 7);
  EXPECT_TRUE(c.errors.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Aal5RoundTrip,
                         ::testing::Values(0, 1, 39, 40, 41, 47, 48, 49, 96,
                                           1000, 4096, 65535));

TEST(Aal5, SequenceNumbersIncrementPerVc) {
  Aal5Segmenter seg;
  Collector c;
  for (int i = 0; i < 5; ++i) {
    auto cells = seg.segment(9, make_payload(10, i));
    ASSERT_TRUE(cells.ok());
    for (const Cell& cell : *cells) c.reasm.cell_arrival(cell);
  }
  ASSERT_EQ(c.frames.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.frames[static_cast<std::size_t>(i)].seq, i);
  }
}

TEST(Aal5, PerVcSequencesAreIndependent) {
  Aal5Segmenter seg;
  (void)seg.segment(1, make_payload(10, 1));
  (void)seg.segment(1, make_payload(10, 2));
  (void)seg.segment(2, make_payload(10, 3));
  EXPECT_EQ(seg.next_seq(1), 2);
  EXPECT_EQ(seg.next_seq(2), 1);
  EXPECT_EQ(seg.next_seq(3), 0);
  seg.release(1);
  EXPECT_EQ(seg.next_seq(1), 0);
}

TEST(Aal5, LostMiddleCellDetected) {
  Aal5Segmenter seg;
  Collector c;
  auto cells = seg.segment(5, make_payload(200, 4));
  ASSERT_TRUE(cells.ok());
  ASSERT_GE(cells->size(), 3u);
  for (std::size_t i = 0; i < cells->size(); ++i) {
    if (i == 1) continue;  // drop one mid-frame cell
    c.reasm.cell_arrival((*cells)[i]);
  }
  EXPECT_TRUE(c.frames.empty());
  ASSERT_EQ(c.errors.size(), 1u);
  // A missing cell shrinks the PDU: caught by the CRC or length check.
  EXPECT_TRUE(c.errors[0].second == Aal5Error::crc_mismatch ||
              c.errors[0].second == Aal5Error::length_mismatch);
}

TEST(Aal5, LostLastCellMergesFramesAndIsDetected) {
  Aal5Segmenter seg;
  Collector c;
  auto f1 = seg.segment(5, make_payload(100, 5));
  auto f2 = seg.segment(5, make_payload(100, 6));
  ASSERT_TRUE(f1.ok() && f2.ok());
  // Drop the end-of-frame cell of frame 1: its cells merge into frame 2.
  for (std::size_t i = 0; i + 1 < f1->size(); ++i) c.reasm.cell_arrival((*f1)[i]);
  for (const Cell& cell : *f2) c.reasm.cell_arrival(cell);
  EXPECT_TRUE(c.frames.empty());
  EXPECT_GE(c.errors.size(), 1u);
}

TEST(Aal5, CorruptedCellFailsCrc) {
  Aal5Segmenter seg;
  Collector c;
  auto cells = seg.segment(5, make_payload(60, 7));
  ASSERT_TRUE(cells.ok());
  (*cells)[0].payload[10] ^= 0x80;
  for (const Cell& cell : *cells) c.reasm.cell_arrival(cell);
  ASSERT_EQ(c.errors.size(), 1u);
  EXPECT_EQ(c.errors[0].second, Aal5Error::crc_mismatch);
}

TEST(Aal5, OutOfOrderFramesDetectedViaUu) {
  Aal5Segmenter seg;
  Collector c;
  auto f0 = seg.segment(5, make_payload(20, 8));
  auto f1 = seg.segment(5, make_payload(20, 9));
  auto f2 = seg.segment(5, make_payload(20, 10));
  ASSERT_TRUE(f0.ok() && f1.ok() && f2.ok());
  // Deliver 0, then 2 (frame 1 lost in the network): seq gap detected.
  for (const Cell& cell : *f0) c.reasm.cell_arrival(cell);
  for (const Cell& cell : *f2) c.reasm.cell_arrival(cell);
  ASSERT_EQ(c.frames.size(), 1u);
  ASSERT_EQ(c.errors.size(), 1u);
  EXPECT_EQ(c.errors[0].second, Aal5Error::out_of_order);
}

TEST(Aal5, ResynchronizesAfterSequenceGap) {
  Aal5Segmenter seg;
  Collector c;
  std::vector<util::Result<std::vector<Cell>>> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(seg.segment(5, make_payload(20, i)));
  // Deliver 0, skip 1, deliver 2 (error), deliver 3 (accepted again).
  for (const Cell& cell : *frames[0]) c.reasm.cell_arrival(cell);
  for (const Cell& cell : *frames[2]) c.reasm.cell_arrival(cell);
  for (const Cell& cell : *frames[3]) c.reasm.cell_arrival(cell);
  EXPECT_EQ(c.frames.size(), 2u);  // frames 0 and 3
  EXPECT_EQ(c.errors.size(), 1u);
}

TEST(Aal5, InterleavedVcsReassembleIndependently) {
  Aal5Segmenter seg;
  Collector c;
  util::Buffer pa = make_payload(150, 20);
  util::Buffer pb = make_payload(150, 21);
  auto ca = seg.segment(10, pa);
  auto cb = seg.segment(11, pb);
  ASSERT_TRUE(ca.ok() && cb.ok());
  // Interleave cell streams of the two VCs.
  std::size_t i = 0, j = 0;
  while (i < ca->size() || j < cb->size()) {
    if (i < ca->size()) c.reasm.cell_arrival((*ca)[i++]);
    if (j < cb->size()) c.reasm.cell_arrival((*cb)[j++]);
  }
  ASSERT_EQ(c.frames.size(), 2u);
  EXPECT_TRUE(c.errors.empty());
  for (const auto& f : c.frames) {
    EXPECT_EQ(f.payload, f.vci == 10 ? pa : pb);
  }
}

TEST(Aal5, ReleaseDiscardsPartialFrame) {
  Aal5Segmenter seg;
  Collector c;
  auto cells = seg.segment(5, make_payload(200, 30));
  ASSERT_TRUE(cells.ok());
  c.reasm.cell_arrival((*cells)[0]);  // partial
  c.reasm.release(5);
  // A fresh frame on the same VCI reassembles cleanly (seq state also gone).
  Aal5Segmenter seg2;
  auto fresh = seg2.segment(5, make_payload(30, 31));
  for (const Cell& cell : *fresh) c.reasm.cell_arrival(cell);
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_TRUE(c.errors.empty());
}

// ------------------------------------------- recovery after a bad frame
//
// The reassembler keeps a per-VC frame buffer that fills as cells arrive
// and is checked by one CRC pass at end of frame.  Every way a frame can end
// early must leave that state clean: the next good frame on the same VC has
// to arrive intact.

void feed(Collector& c, const std::vector<Cell>& cells) {
  for (const Cell& cell : cells) c.reasm.cell_arrival(cell);
}

/// Recompute the trailer CRC of a segmented frame after its bytes were
/// edited, so a test can forge a frame that passes the CRC check.
void reseal(std::vector<Cell>& cells) {
  util::Crc32 crc;
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) crc.update(cells[i].payload);
  std::uint8_t* last = cells.back().payload.data();
  crc.update({last, kCellPayload - 4});
  const std::uint32_t v = crc.value();
  for (int k = 0; k < 4; ++k) {
    last[kCellPayload - 4 + k] = static_cast<std::uint8_t>(v >> (24 - 8 * k));
  }
}

/// The frame after a failure on VCI 5 is delivered byte for byte.
void expect_next_frame_intact(Aal5Segmenter& seg, Collector& c) {
  const std::size_t frames = c.frames.size();
  const std::size_t errors = c.errors.size();
  const util::Buffer payload = make_payload(300, 99);
  feed(c, *seg.segment(5, payload));
  ASSERT_EQ(c.frames.size(), frames + 1);
  EXPECT_EQ(c.errors.size(), errors);
  EXPECT_EQ(c.frames.back().payload, payload);
}

TEST(Aal5, CleanFrameFollowsOversizeDiscard) {
  Aal5Segmenter seg;
  Collector c;
  // A runaway frame (end-of-frame cell lost for good): feed non-EOM cells
  // until the reassembler discards, then nothing more of it.
  Cell runaway;
  runaway.vci = 5;
  runaway.payload.fill(0x3C);
  while (c.errors.empty()) c.reasm.cell_arrival(runaway);
  ASSERT_EQ(c.errors[0].second, Aal5Error::oversize);
  expect_next_frame_intact(seg, c);
}

TEST(Aal5, CleanFrameFollowsCrcMismatch) {
  Aal5Segmenter seg;
  Collector c;
  auto bad = seg.segment(5, make_payload(200, 50));
  (*bad)[2].payload[17] ^= 0x04;
  feed(c, *bad);
  ASSERT_EQ(c.errors.size(), 1u);
  ASSERT_EQ(c.errors[0].second, Aal5Error::crc_mismatch);
  expect_next_frame_intact(seg, c);
}

TEST(Aal5, CleanFrameFollowsLengthMismatch) {
  Aal5Segmenter seg;
  Collector c;
  // A frame whose length field claims one more cell than it has, resealed
  // so only the length check can catch it.
  auto bad = seg.segment(5, make_payload(200, 51));
  std::uint8_t* trailer = bad->back().payload.data() + kCellPayload - kAal5TrailerBytes;
  trailer[2] = 0;
  trailer[3] = 250;
  reseal(*bad);
  feed(c, *bad);
  ASSERT_EQ(c.errors.size(), 1u);
  ASSERT_EQ(c.errors[0].second, Aal5Error::length_mismatch);
  expect_next_frame_intact(seg, c);
}

TEST(Aal5, CleanFrameFollowsReleaseMidFrame) {
  Aal5Segmenter seg;
  Collector c;
  auto cells = seg.segment(5, make_payload(200, 52));
  c.reasm.cell_arrival((*cells)[0]);
  c.reasm.cell_arrival((*cells)[1]);
  c.reasm.release(5);
  seg.release(5);
  expect_next_frame_intact(seg, c);
}

TEST(Aal5, SingleBitFlipInMiddleCellOrCrcFieldFailsCrc) {
  // 200 payload bytes segment into 5 cells; the last holds 8 payload bytes,
  // 32 pad bytes, then UU (40), CPI (41), length (42-43) and CRC (44-47).
  // The receiver's one CRC pass over the reassembled PDU must cover every
  // byte up to the CRC field, pad and trailer included.
  struct Flip {
    std::size_t cell;  ///< index, counted from the front (4 = last)
    std::size_t byte;
    std::uint8_t mask;
  };
  for (const Flip f : {Flip{2, 30, 0x01},    // middle cell
                       Flip{4, 20, 0x08},    // last cell's pad
                       Flip{4, 40, 0x02},    // UU (frame sequence number)
                       Flip{4, 42, 0x40},    // length, high byte
                       Flip{4, 43, 0x01},    // length, low byte
                       Flip{4, 46, 0x10}}) { // CRC field
    Aal5Segmenter seg;
    Collector c;
    auto cells = seg.segment(5, make_payload(200, 53));
    ASSERT_EQ(cells->size(), 5u);
    (*cells)[f.cell].payload[f.byte] ^= f.mask;
    feed(c, *cells);
    EXPECT_TRUE(c.frames.empty()) << "cell " << f.cell << " byte " << f.byte;
    ASSERT_EQ(c.errors.size(), 1u) << "cell " << f.cell << " byte " << f.byte;
    EXPECT_EQ(c.errors[0].second, Aal5Error::crc_mismatch)
        << "cell " << f.cell << " byte " << f.byte;
  }
}

TEST(Aal5, ErrorAndFrameCountersTrack) {
  Aal5Segmenter seg;
  Collector c;
  auto good = seg.segment(5, make_payload(30, 40));
  for (const Cell& cell : *good) c.reasm.cell_arrival(cell);
  auto bad = seg.segment(5, make_payload(30, 41));
  (*bad)[0].payload[0] ^= 1;
  for (const Cell& cell : *bad) c.reasm.cell_arrival(cell);
  EXPECT_EQ(c.reasm.frame_count(), 1u);
  EXPECT_EQ(c.reasm.error_count(), 1u);
}

// ------------------------------------------ handlers and table churn
//
// Per-VC state lives in a std::map, where an erase frees the VC's node.  A
// handler is free to release() the VC it is told about (an application
// tearing the call down on a bad frame), so the reassembler must not touch
// that VC's state once a handler has run.

TEST(Aal5, HandlersMayReleaseTheirVcFromInsideTheCallback) {
  Aal5Segmenter seg;
  std::vector<Aal5Frame> frames;
  std::vector<std::pair<Vci, Aal5Error>> errors;
  Aal5Reassembler* self = nullptr;
  Aal5Reassembler reasm(
      [&](Aal5Frame f) {
        const Vci v = f.vci;
        const bool last_of_stream = f.seq == 3;
        frames.push_back(std::move(f));
        if (last_of_stream) self->release(v);
      },
      [&](Vci v, Aal5Error e) {
        errors.emplace_back(v, e);
        self->release(v);
      });
  self = &reasm;
  constexpr Vci kFirst = 100;
  constexpr int kVcs = 64;
  // Per VC: frame 0, frame 2 (frame 1 lost: out of order, released in
  // on_error), frame 3 (fresh state, released in on_frame), a corrupted
  // frame 4 (CRC failure, released in on_error), frame 5 (fresh state).
  std::vector<std::vector<Cell>> streams(kVcs);
  std::vector<std::vector<util::Buffer>> good(kVcs);
  for (int i = 0; i < kVcs; ++i) {
    const Vci v = static_cast<Vci>(kFirst + i);
    for (int f = 0; f < 6; ++f) {
      util::Buffer p = make_payload(20 + 37 * f + i, 1000 * i + f);
      auto cells = seg.segment(v, p);
      ASSERT_TRUE(cells.ok());
      if (f == 1) continue;
      if (f == 4) (*cells)[0].payload[3] ^= 0x10;
      if (f != 2 && f != 4) good[i].push_back(p);
      streams[i].insert(streams[i].end(), cells->begin(), cells->end());
    }
  }
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (const auto& s : streams) {
      if (k < s.size()) {
        reasm.cell_arrival(s[k]);
        any = true;
      }
    }
    if (!any) break;
  }
  ASSERT_EQ(errors.size(), 2u * kVcs);
  ASSERT_EQ(frames.size(), 3u * kVcs);
  std::vector<std::size_t> next(kVcs, 0);
  for (const Aal5Frame& f : frames) {
    const std::size_t i = f.vci - kFirst;
    ASSERT_LT(next[i], good[i].size());
    EXPECT_EQ(f.payload, good[i][next[i]++]) << "vci " << f.vci;
  }
  for (const auto& [v, e] : errors) {
    EXPECT_TRUE(e == Aal5Error::out_of_order || e == Aal5Error::crc_mismatch)
        << "vci " << v << ": " << to_string(e);
  }
}

TEST(Aal5, ManyInterleavedVcsSurviveTrieRebuildsReleaseAndRecreate) {
  Aal5Segmenter seg;
  Collector c;
  util::Rng rng(2024);
  // 320 VCIs spread over the switched range, so both the per-VC sequence
  // table and the reassembly table grow and churn.
  std::vector<Vci> vcis;
  for (int i = 0; i < 320; ++i) vcis.push_back(static_cast<Vci>(1024 + 7 * i));
  std::map<Vci, std::deque<util::Buffer>> expected;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<Cell>> streams;
    for (Vci v : vcis) {
      util::Buffer p = make_payload(1 + rng.below(400), rng.next());
      auto cells = seg.segment(v, p);
      ASSERT_TRUE(cells.ok());
      expected[v].push_back(std::move(p));
      streams.push_back(std::move(*cells));
    }
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (const auto& s : streams) {
        if (k < s.size()) {
          c.reasm.cell_arrival(s[k]);
          any = true;
        }
      }
      if (!any) break;
    }
    // Tear down every third VC (a different third each round) on both
    // sides; the next round recreates it from sequence zero.
    for (std::size_t i = static_cast<std::size_t>(round) % 3; i < vcis.size();
         i += 3) {
      seg.release(vcis[i]);
      c.reasm.release(vcis[i]);
      EXPECT_EQ(seg.next_seq(vcis[i]), 0u);
    }
  }
  EXPECT_TRUE(c.errors.empty());
  ASSERT_EQ(c.frames.size(), 4u * vcis.size());
  for (const Aal5Frame& f : c.frames) {
    std::deque<util::Buffer>& q = expected[f.vci];
    ASSERT_FALSE(q.empty()) << "vci " << f.vci;
    EXPECT_EQ(f.payload, q.front()) << "vci " << f.vci;
    q.pop_front();
  }
}

// Property sweep: random loss patterns never produce a corrupted delivered
// frame — loss is always *detected* (the §5.4 guarantee), never silent.
class Aal5LossSweep : public ::testing::TestWithParam<int> {};

TEST_P(Aal5LossSweep, LossIsDetectedNeverSilent) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Aal5Segmenter seg;
  std::vector<util::Buffer> sent;
  Collector c;
  for (int f = 0; f < 50; ++f) {
    util::Buffer p = make_payload(1 + rng.below(500), rng.next());
    sent.push_back(p);
    auto cells = seg.segment(3, p);
    ASSERT_TRUE(cells.ok());
    for (const Cell& cell : *cells) {
      if (rng.chance(0.02)) continue;  // 2% cell loss
      c.reasm.cell_arrival(cell);
    }
  }
  // Every delivered frame must byte-match what was sent with that seq.
  for (const auto& f : c.frames) {
    ASSERT_LT(f.seq, sent.size());
    EXPECT_EQ(f.payload, sent[f.seq]) << "silent corruption at seq "
                                      << int(f.seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Aal5LossSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace xunet::atm
