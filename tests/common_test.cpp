// Unit tests for the common foundation: data blocks, CRC-16 hashing,
// wrapping 16-bit logical time, the deterministic RNG, and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/crc16.hpp"
#include "common/data_block.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/wrap16.hpp"

namespace dvmc {
namespace {

// ---------------------------------------------------------------------------
// Address helpers
// ---------------------------------------------------------------------------

TEST(Types, BlockAlignment) {
  EXPECT_EQ(blockAddr(0x1000), 0x1000u);
  EXPECT_EQ(blockAddr(0x103F), 0x1000u);
  EXPECT_EQ(blockAddr(0x1040), 0x1040u);
  EXPECT_EQ(blockOffset(0x103F), 0x3Fu);
  EXPECT_EQ(blockOffset(0x1040), 0u);
}

TEST(Types, WordAlignment) {
  EXPECT_EQ(kBlockSizeWords * kWordBytes, kBlockSizeBytes);
  EXPECT_EQ(wordAddr(0x1000), 0x1000u);
  EXPECT_EQ(wordAddr(0x1007), 0x1000u);
  EXPECT_EQ(wordAddr(0x1008), 0x1008u);
}

// ---------------------------------------------------------------------------
// DataBlock
// ---------------------------------------------------------------------------

TEST(DataBlock, ReadWriteRoundTrip) {
  DataBlock d;
  d.write(0, 0x1122334455667788ULL);
  EXPECT_EQ(d.read(0), 0x1122334455667788ULL);
  d.write(56, 42);
  EXPECT_EQ(d.read(56), 42u);
  EXPECT_EQ(d.read(0), 0x1122334455667788ULL);
}

TEST(DataBlock, DefaultZero) {
  DataBlock d;
  for (std::size_t w = 0; w < kBlockSizeWords; ++w) {
    EXPECT_EQ(d.read(w * kWordBytes), 0u);
  }
}

TEST(DataBlock, EqualityAndBitFlip) {
  DataBlock a, b;
  a.write(8, 7);
  b.write(8, 7);
  EXPECT_EQ(a, b);
  b.flipBit(64);  // first bit of word 1
  EXPECT_NE(a, b);
  EXPECT_EQ(b.read(8), 6u);
  b.flipBit(64);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// CRC-16
// ---------------------------------------------------------------------------

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16(data, 9), 0x29B1);
}

TEST(Crc16, DetectsSingleBitFlipsInBlocks) {
  DataBlock d;
  for (std::size_t w = 0; w < kBlockSizeWords; ++w) {
    d.write(w * kWordBytes, w * 3);
  }
  const std::uint16_t clean = hashBlock(d);
  // Every single-bit corruption must change the hash (CRC-16 guarantees
  // detection of bursts shorter than 16 bits).
  for (std::size_t bit = 0; bit < kBlockSizeBytes * 8; bit += 7) {
    DataBlock c = d;
    c.flipBit(bit);
    EXPECT_NE(hashBlock(c), clean) << "bit " << bit;
  }
}

TEST(Crc16, DetectsShortBursts) {
  DataBlock d;
  d.write(0, 0xDEADBEEFCAFEF00DULL);
  const std::uint16_t clean = hashBlock(d);
  // Flip bursts of up to 15 adjacent bits: all must be detected.
  for (std::size_t len = 2; len <= 15; ++len) {
    DataBlock c = d;
    for (std::size_t b = 100; b < 100 + len; ++b) c.flipBit(b);
    EXPECT_NE(hashBlock(c), clean) << "burst length " << len;
  }
}

TEST(Crc16, SlicedMatchesScalarReference) {
  // The slice-by-8 fast path must be output-identical to the one-byte
  // scalar reference for every length (covering the 8-byte folding loop,
  // the sub-slice tail, and their interaction) and for data that exercises
  // all byte values.
  Rng rng(0xC0FFEE);
  std::vector<std::uint8_t> buf(257);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    EXPECT_EQ(crc16(buf.data(), len), crc16Scalar(buf.data(), len))
        << "length " << len;
  }
  // All-identical bytes, each possible value, at a block-sized length.
  std::vector<std::uint8_t> block(kBlockSizeBytes);
  for (unsigned v = 0; v < 256; ++v) {
    std::fill(block.begin(), block.end(), static_cast<std::uint8_t>(v));
    EXPECT_EQ(crc16(block.data(), block.size()),
              crc16Scalar(block.data(), block.size()))
        << "fill byte " << v;
  }
}

TEST(Crc16, ScalarKnownVector) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16Scalar(data, 9), 0x29B1);
}

TEST(Crc16, HashDistribution) {
  // Distinct blocks should essentially never collide in a small sample.
  std::set<std::uint16_t> hashes;
  for (std::uint64_t i = 0; i < 300; ++i) {
    DataBlock d;
    d.write(0, i * 0x9E3779B97F4A7C15ULL + 1);
    hashes.insert(hashBlock(d));
  }
  EXPECT_GE(hashes.size(), 295u);
}

// ---------------------------------------------------------------------------
// Wrapping 16-bit logical time
// ---------------------------------------------------------------------------

TEST(Wrap16, BasicOrder) {
  EXPECT_TRUE(ltimeBefore(1, 2));
  EXPECT_FALSE(ltimeBefore(2, 1));
  EXPECT_FALSE(ltimeBefore(5, 5));
  EXPECT_TRUE(ltimeBeforeEq(5, 5));
}

TEST(Wrap16, WrapAroundOrder) {
  // 0xFFF0 is before 0x0010 on the wheel (distance 0x20 forward).
  EXPECT_TRUE(ltimeBefore(0xFFF0, 0x0010));
  EXPECT_FALSE(ltimeBefore(0x0010, 0xFFF0));
  EXPECT_EQ(ltimeDistance(0xFFF0, 0x0010), 0x20);
}

TEST(Wrap16, HalfWheelBoundary) {
  // Exactly half the wheel apart: the distance is 0x8000, treated as "not
  // before" in both directions by the signed comparison convention.
  EXPECT_FALSE(ltimeBefore(0, 0x8000));
  EXPECT_FALSE(ltimeBefore(0x8000, 0));
  EXPECT_TRUE(ltimeBefore(0, 0x7FFF));
}

// Property sweep: for any base b and forward step s in (0, 2^15), b is
// before b+s.
class Wrap16Property : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Wrap16Property, ForwardStepsCompareCorrectly) {
  const std::uint32_t base = GetParam();
  for (std::uint32_t step : {1u, 2u, 100u, 0x3FFFu, 0x7FFEu}) {
    const LTime16 a = static_cast<LTime16>(base);
    const LTime16 b = static_cast<LTime16>(base + step);
    EXPECT_TRUE(ltimeBefore(a, b)) << base << "+" << step;
    EXPECT_FALSE(ltimeBefore(b, a)) << base << "+" << step;
    EXPECT_EQ(ltimeDistance(a, b), step);
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, Wrap16Property,
                         ::testing::Values(0u, 1u, 0x7FFFu, 0x8000u, 0xFFF0u,
                                           0xFFFFu, 0x1234u, 0xABCDu));

TEST(Wrap16, Truncate) {
  EXPECT_EQ(ltimeTruncate(0x12345), 0x2345);
  EXPECT_EQ(ltimeTruncate(0xFFFF), 0xFFFF);
  EXPECT_EQ(ltimeTruncate(0x10000), 0);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const auto v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(RunningStat, MeanAndStddev) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.addTracked(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.addTracked(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(LatencyHistogram, BucketsAndMean) {
  LatencyHistogram h;
  h.add(1);
  h.add(2);
  h.add(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.maxValue(), 1000u);
  EXPECT_NEAR(h.mean(), (1 + 2 + 1000) / 3.0, 0.01);
  EXPECT_FALSE(h.toString().empty());
}

TEST(LatencyHistogram, PercentilesOnKnownDistribution) {
  // 100 samples of 1 (bucket <=1), 100 of 3 (bucket <=4): p50 falls exactly
  // on the last sample of the first bucket, everything above is in <=4.
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add(1);
  for (int i = 0; i < 100; ++i) h.add(3);
  EXPECT_EQ(h.percentile(0.50), 1u);
  EXPECT_EQ(h.percentile(0.51), 4u);
  EXPECT_EQ(h.p90(), 4u);
  EXPECT_EQ(h.p99(), 4u);
  EXPECT_EQ(h.percentile(1.0), 4u);
  EXPECT_EQ(h.percentile(0.0), 1u);  // clamped: first sample's bucket
}

TEST(LatencyHistogram, PercentilesSpanBuckets) {
  // 90 fast samples (<=16), 9 medium (<=128), 1 slow (<=1024): the classic
  // long-tail shape that p50/p90/p99 are meant to separate.
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.add(16);
  for (int i = 0; i < 9; ++i) h.add(100);
  h.add(1000);
  EXPECT_EQ(h.p50(), 16u);
  EXPECT_EQ(h.p90(), 16u);   // rank 90 is the last fast sample
  EXPECT_EQ(h.percentile(0.91), 128u);
  EXPECT_EQ(h.p99(), 128u);
  EXPECT_EQ(h.percentile(1.0), 1024u);
}

TEST(LatencyHistogram, PercentileEmptyAndSingle) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.p50(), 0u);
  EXPECT_EQ(empty.p99(), 0u);
  LatencyHistogram one;
  one.add(5);  // lands in the <=8 bucket
  EXPECT_EQ(one.p50(), 8u);
  EXPECT_EQ(one.p99(), 8u);
  LatencyHistogram zero;
  zero.add(0);  // value 0 lands in the <=1 bucket
  EXPECT_EQ(zero.p50(), 1u);
}

TEST(LatencyHistogram, PercentileSurvivesMerge) {
  LatencyHistogram a, b;
  for (int i = 0; i < 50; ++i) a.add(2);
  for (int i = 0; i < 50; ++i) b.add(200);
  a.merge(b);
  EXPECT_EQ(a.p50(), 2u);
  EXPECT_EQ(a.p99(), 256u);
}

}  // namespace
}  // namespace dvmc
