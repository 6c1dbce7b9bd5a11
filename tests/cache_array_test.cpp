// Unit tests for the cache array (LRU victims, ECC model) and the
// memory backing store.
#include <gtest/gtest.h>

#include "coherence/cache_array.hpp"
#include "coherence/memory_storage.hpp"
#include "common/error_sink.hpp"

namespace dvmc {
namespace {

constexpr auto kAlways = [](const CacheLine&) { return true; };

TEST(CacheArray, InstallAndFind) {
  CacheArray c({4, 2});
  DataBlock d;
  d.write(0, 99);
  CacheLine* v = c.victim(0x1000, kAlways);
  ASSERT_NE(v, nullptr);
  c.install(*v, 0x1000, MosiState::kS, d);
  CacheLine* f = c.find(0x1000);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->state, MosiState::kS);
  EXPECT_EQ(f->data.read(0), 99u);
  EXPECT_EQ(c.find(0x2000), nullptr);
}

TEST(CacheArray, VictimPrefersInvalidWays) {
  CacheArray c({1, 2});
  DataBlock d;
  CacheLine* v1 = c.victim(0x0, kAlways);
  c.install(*v1, 0x0, MosiState::kS, d);
  CacheLine* v2 = c.victim(0x40, kAlways);
  EXPECT_FALSE(v2->valid);  // second way still free
}

TEST(CacheArray, LruEviction) {
  CacheArray c({1, 2});
  ErrorSink sink;
  DataBlock d;
  c.install(*c.victim(0x000, kAlways), 0x000, MosiState::kS, d);
  c.install(*c.victim(0x040, kAlways), 0x040, MosiState::kS, d);
  // Touch 0x000 so 0x040 becomes LRU.
  c.touch(*c.find(0x000), &sink, 0, 0);
  CacheLine* v = c.victim(0x080, kAlways);
  ASSERT_TRUE(v->valid);
  EXPECT_EQ(v->tag, 0x040u);
}

TEST(CacheArray, VictimRespectsPredicate) {
  CacheArray c({1, 2});
  DataBlock d;
  c.install(*c.victim(0x000, kAlways), 0x000, MosiState::kM, d);
  c.install(*c.victim(0x040, kAlways), 0x040, MosiState::kM, d);
  auto onlyShared = [](const CacheLine& l) { return l.tag == 0x040; };
  CacheLine* v = c.victim(0x080, onlyShared);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->tag, 0x040u);
  auto none = [](const CacheLine&) { return false; };
  EXPECT_EQ(c.victim(0x080, none), nullptr);
}

TEST(CacheArray, SetIndexingSeparatesSets) {
  CacheArray c({4, 1});
  DataBlock d;
  // Blocks mapping to different sets never evict each other.
  for (Addr a : {Addr{0x000}, Addr{0x040}, Addr{0x080}, Addr{0x0C0}}) {
    c.install(*c.victim(a, kAlways), a, MosiState::kS, d);
  }
  for (Addr a : {Addr{0x000}, Addr{0x040}, Addr{0x080}, Addr{0x0C0}}) {
    EXPECT_NE(c.find(a), nullptr) << a;
  }
}

TEST(CacheArrayEcc, SingleBitFlipCorrectedOnAccess) {
  CacheArray c({4, 2});
  ErrorSink sink;
  DataBlock d;
  d.write(0, 0xABCD);
  c.install(*c.victim(0x1000, kAlways), 0x1000, MosiState::kS, d);
  ASSERT_TRUE(c.injectBitFlip(12345).has_value());
  CacheLine* line = c.find(0x1000);
  // The stored data is corrupted until the ECC check runs at access time.
  c.touch(*line, &sink, 0, 0);
  EXPECT_EQ(line->data.read(0), 0xABCDu);
  EXPECT_EQ(c.eccCorrections(), 1u);
  EXPECT_FALSE(sink.any());
}

TEST(CacheArrayEcc, MultiBitFlipDetectedUncorrectable) {
  CacheArray c({4, 2});
  ErrorSink sink;
  DataBlock d;
  c.install(*c.victim(0x1000, kAlways), 0x1000, MosiState::kS, d);
  CacheLine* line = c.find(0x1000);
  line->data.flipBit(3);
  line->pendingFlips.push_back(3);
  line->data.flipBit(9);
  line->pendingFlips.push_back(9);
  c.touch(*line, &sink, 2, 77);
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kEcc);
  EXPECT_EQ(sink.first().node, 2u);
  EXPECT_EQ(c.eccCorrections(), 0u);
}

TEST(CacheArray, StateFlipPromotesToM) {
  CacheArray c({4, 2});
  DataBlock d;
  c.install(*c.victim(0x1000, kAlways), 0x1000, MosiState::kS, d);
  auto res = c.injectStateFlip(5);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->first, 0x1000u);
  EXPECT_EQ(res->second, MosiState::kM);
  EXPECT_EQ(c.find(0x1000)->state, MosiState::kM);
}

TEST(CacheArray, InjectionOnEmptyCacheFails) {
  CacheArray c({4, 2});
  EXPECT_FALSE(c.injectBitFlip(1).has_value());
  EXPECT_FALSE(c.injectStateFlip(1).has_value());
}

// ---------------------------------------------------------------------------
// MemoryStorage
// ---------------------------------------------------------------------------

TEST(MemoryStorage, DeterministicInitialPattern) {
  MemoryStorage m;
  ErrorSink sink;
  const DataBlock& a = m.read(0x40000000, &sink, 0, 0);
  const DataBlock expected = MemoryStorage::initialPattern(0x40000000);
  EXPECT_EQ(a, expected);
  // Two storages agree.
  MemoryStorage m2;
  EXPECT_EQ(m2.read(0x40000000, &sink, 0, 0), expected);
}

TEST(MemoryStorage, SyncSegmentZeroInitialized) {
  MemoryStorage m;
  ErrorSink sink;
  const DataBlock& lock = m.read(0x10000, &sink, 0, 0);
  for (std::size_t w = 0; w < kBlockSizeWords; ++w) {
    EXPECT_EQ(lock.read(w * 8), 0u);
  }
  // Data segment is NOT zero (stale-data bugs must be visible).
  const DataBlock& data = m.read(0x40000000, &sink, 0, 0);
  bool anyNonZero = false;
  for (std::size_t w = 0; w < kBlockSizeWords; ++w) {
    if (data.read(w * 8) != 0) anyNonZero = true;
  }
  EXPECT_TRUE(anyNonZero);
}

TEST(MemoryStorage, WriteReadBack) {
  MemoryStorage m;
  ErrorSink sink;
  DataBlock d;
  d.write(16, 1234);
  m.write(0x5000, d);
  EXPECT_EQ(m.read(0x5000, &sink, 0, 0).read(16), 1234u);
}

TEST(MemoryStorageEcc, SingleBitCorrected) {
  MemoryStorage m;
  ErrorSink sink;
  DataBlock d;
  d.write(0, 0xFEED);
  m.write(0x5000, d);
  ASSERT_TRUE(m.injectBitFlip(0x5000, 5));
  EXPECT_EQ(m.read(0x5000, &sink, 0, 0).read(0), 0xFEEDu);
  EXPECT_EQ(m.eccCorrections(), 1u);
  EXPECT_FALSE(sink.any());
}

TEST(MemoryStorageEcc, DoubleBitDetected) {
  MemoryStorage m;
  ErrorSink sink;
  DataBlock d;
  m.write(0x5000, d);
  ASSERT_TRUE(m.injectBitFlip(0x5000, 5));
  ASSERT_TRUE(m.injectBitFlip(0x5000, 6));
  m.read(0x5000, &sink, 1, 10);
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kEcc);
}

TEST(MemoryStorage, RestoreReplacesContents) {
  MemoryStorage m;
  ErrorSink sink;
  DataBlock d;
  d.write(0, 1);
  m.write(0x40, d);
  FlatMap<Addr, DataBlock> snapshot = m.blocks();
  d.write(0, 2);
  m.write(0x40, d);
  EXPECT_EQ(m.read(0x40, &sink, 0, 0).read(0), 2u);
  m.restore(snapshot);
  EXPECT_EQ(m.read(0x40, &sink, 0, 0).read(0), 1u);
}

}  // namespace
}  // namespace dvmc
