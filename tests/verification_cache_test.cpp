// Unit tests for the Verification Cache (Uniprocessor Ordering checker's
// store mirror + RMO parked-value optimization, §4.1).
#include <gtest/gtest.h>

#include "common/error_sink.hpp"
#include "dvmc/verification_cache.hpp"

namespace dvmc {
namespace {

TEST(VerificationCache, StoreLifecycle) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  EXPECT_TRUE(vc.canAllocate(0x100));
  vc.storeCommit(0x100, 42);
  EXPECT_EQ(vc.entries(), 1u);
  EXPECT_EQ(vc.lookupStore(0x100), std::optional<std::uint64_t>(42));
  vc.storePerformed(0x100, 42, 10);
  EXPECT_EQ(vc.entries(), 0u);
  EXPECT_FALSE(sink.any());
}

TEST(VerificationCache, ChainedStoresKeepLatestValue) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storeCommit(0x100, 1, 10);
  vc.storeCommit(0x100, 2, 11);
  vc.storeCommit(0x100, 3, 12);
  EXPECT_EQ(vc.lookupStore(0x100), std::optional<std::uint64_t>(3));
  // Stores perform oldest-first; each deallocation is value-checked.
  vc.storePerformed(0x100, 1, 1);
  vc.storePerformed(0x100, 2, 2);
  EXPECT_EQ(vc.entries(), 1u);
  EXPECT_FALSE(sink.any());
  vc.storePerformed(0x100, 3, 3);
  EXPECT_EQ(vc.entries(), 0u);
  EXPECT_FALSE(sink.any());
}

TEST(VerificationCache, SeqFilteredLookupIgnoresYoungerStores) {
  // A load re-entering verification after a flush must not replay against
  // stores younger than itself.
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storeCommit(0x100, 1, 10);  // older than the load
  vc.storeCommit(0x100, 2, 30);  // younger than the load
  EXPECT_EQ(vc.lookupStoreOlderThan(0x100, 20),
            std::optional<std::uint64_t>(1));
  EXPECT_FALSE(vc.lookupStoreOlderThan(0x100, 5).has_value());
  EXPECT_EQ(vc.lookupStoreOlderThan(0x100, 40),
            std::optional<std::uint64_t>(2));
}

TEST(VerificationCache, IntermediateDeallocMismatchDetected) {
  // Per-store deallocation checking: a corrupted middle store in a chain
  // is caught even though it is not the newest value.
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storeCommit(0x100, 1, 1);
  vc.storeCommit(0x100, 2, 2);
  vc.storePerformed(0x100, 99, 5);  // first store performed corrupted
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kUniprocessorOrdering);
}

TEST(VerificationCache, DeallocationDetectsWriteBufferCorruption) {
  ErrorSink sink;
  VerificationCache vc(3, 8, &sink);
  vc.storeCommit(0x100, 42);
  // The write buffer delivered a corrupted value to the cache.
  vc.storePerformed(0x100, 43, 99);
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kUniprocessorOrdering);
  EXPECT_EQ(sink.first().node, 3u);
}

TEST(VerificationCache, PerformWithoutCommitDetected) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storePerformed(0x200, 5, 7);  // fabricated store (fault)
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kUniprocessorOrdering);
}

TEST(VerificationCache, CapacityGatesNewWords) {
  ErrorSink sink;
  VerificationCache vc(0, 2, &sink);
  vc.storeCommit(0x100, 1);
  vc.storeCommit(0x108, 2);
  EXPECT_FALSE(vc.canAllocate(0x110));  // full
  EXPECT_TRUE(vc.canAllocate(0x100));   // merges with existing word
  vc.storePerformed(0x100, 1, 0);
  EXPECT_TRUE(vc.canAllocate(0x110));
}

TEST(VerificationCache, WordAliasing) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storeCommit(0x104, 9);  // an unaligned address names its word
  EXPECT_EQ(vc.lookupStore(0x100), std::optional<std::uint64_t>(9));
}

TEST(VerificationCache, ParkedValuesSeparateFromStores) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.parkLoadValue(0x100, 7);
  // Ordered-load replay must not hit a parked-only entry.
  EXPECT_FALSE(vc.lookupStore(0x100).has_value());
  EXPECT_FALSE(vc.lookupStoreOlderThan(0x100, 999).has_value());
  EXPECT_EQ(vc.consumeParked(0x100), std::optional<std::uint64_t>(7));
  // Consumed: gone.
  EXPECT_FALSE(vc.consumeParked(0x100).has_value());
  EXPECT_EQ(vc.entries(), 0u);
}

TEST(VerificationCache, StoreChainAndParkCoexist) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storeCommit(0x100, 50, 5);
  vc.parkLoadValue(0x100, 49);
  // The pending store is visible through the store lookup; the parked
  // value lives independently (the replay logic prefers the store lookup).
  EXPECT_EQ(vc.lookupStore(0x100), std::optional<std::uint64_t>(50));
  EXPECT_EQ(vc.consumeParked(0x100), std::optional<std::uint64_t>(49));
  // The store chain survives the consume.
  EXPECT_EQ(vc.entries(), 1u);
  vc.storePerformed(0x100, 50, 0);
  EXPECT_EQ(vc.entries(), 0u);
}

TEST(VerificationCache, ParkedEntrySurvivesStorePerform) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storeCommit(0x100, 5, 1);
  vc.parkLoadValue(0x100, 5);
  vc.storePerformed(0x100, 5, 0);
  // The parked flag keeps the word alive for the pending replay.
  EXPECT_EQ(vc.consumeParked(0x100), std::optional<std::uint64_t>(5));
  EXPECT_EQ(vc.entries(), 0u);
}

TEST(VerificationCache, ClearDropsEverything) {
  ErrorSink sink;
  VerificationCache vc(0, 8, &sink);
  vc.storeCommit(0x100, 1, 1);
  vc.parkLoadValue(0x200, 2);
  vc.clear();
  EXPECT_EQ(vc.entries(), 0u);
  EXPECT_FALSE(vc.lookupStore(0x100).has_value());
}

}  // namespace
}  // namespace dvmc
