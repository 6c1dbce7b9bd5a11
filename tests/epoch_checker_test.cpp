// Unit tests for the Cache Coherence checker: CET rule-1 checks, the
// Inform-Epoch pipeline into the MET, the three epoch rules (appropriate
// epochs, no illegal overlap, correct data propagation), the sorting
// queue's one deadline timer and overflow count, open-epoch wraparound
// scrubbing, and 16-bit timestamp wrap behavior.
#include <gtest/gtest.h>

#include <vector>

#include "common/crc16.hpp"
#include "dvmc/cache_epoch_checker.hpp"
#include "dvmc/memory_epoch_checker.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

/// A fixed logical clock for driving the MET directly.
class FixedClock final : public LogicalClock {
 public:
  std::uint64_t now() override { return value; }
  std::uint64_t value = 0;
};

struct CheckerFixture : ::testing::Test {
  CheckerFixture()
      : cet(sim, /*node=*/0, cfg, &sink,
            [this](Message m) { sent.push_back(std::move(m)); }),
        met(sim, /*node=*/1, cfg, &sink, clock) {}

  /// Runs the inform pipe by hand: CET messages -> MET.
  void pump() {
    for (Message& m : sent) met.onInform(m);
    sent.clear();
    met.drain();
  }

  DataBlock block(std::uint64_t v) {
    DataBlock d;
    d.write(0, v);
    return d;
  }

  Simulator sim;
  DvmcConfig cfg;
  ErrorSink sink;
  FixedClock clock;
  std::vector<Message> sent;
  CacheEpochChecker cet;
  MemoryEpochChecker met;
};

// ---------------------------------------------------------------------------
// CET rule 1: accesses only in appropriate epochs
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, AccessInsideEpochIsClean) {
  cet.onEpochBegin(0x1000, /*rw=*/true, block(1), 10);
  cet.onPerformAccess(0x1000, /*isWrite=*/true);
  cet.onPerformAccess(0x1000, /*isWrite=*/false);
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, LoadOutsideEpochDetected) {
  cet.onPerformAccess(0x1000, false);
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kCacheCoherence);
}

TEST_F(CheckerFixture, StoreInReadOnlyEpochDetected) {
  cet.onEpochBegin(0x1000, /*rw=*/false, block(1), 10);
  cet.onPerformAccess(0x1000, /*isWrite=*/true);
  ASSERT_TRUE(sink.any());
  EXPECT_EQ(sink.first().kind, CheckerKind::kCacheCoherence);
}

TEST_F(CheckerFixture, ReadInReadOnlyEpochIsClean) {
  cet.onEpochBegin(0x1000, false, block(1), 10);
  cet.onPerformAccess(0x1000, false);
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, EpochEndWithoutBeginDetected) {
  cet.onEpochEnd(0x1000, block(1), 20);
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, DoubleBeginDetected) {
  cet.onEpochBegin(0x1000, true, block(1), 10);
  cet.onEpochBegin(0x1000, false, block(1), 11);
  EXPECT_TRUE(sink.any());
}

// ---------------------------------------------------------------------------
// Inform-Epoch wire format
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, InformCarriesTimesAndHashes) {
  const DataBlock d0 = block(7);
  const DataBlock d1 = block(8);
  cet.onEpochBegin(0x1000, true, d0, 100);
  cet.onEpochEnd(0x1000, d1, 140);
  ASSERT_EQ(sent.size(), 1u);
  const Message& m = sent[0];
  EXPECT_EQ(m.type, MsgType::kInformEpoch);
  EXPECT_TRUE(m.epoch.readWrite);
  EXPECT_EQ(m.epoch.begin, 100);
  EXPECT_EQ(m.epoch.end, 140);
  EXPECT_EQ(m.epoch.beginHash, hashBlock(d0));
  EXPECT_EQ(m.epoch.endHash, hashBlock(d1));
}

TEST_F(CheckerFixture, ReadOnlyInformReplicatesBeginHash) {
  const DataBlock d = block(7);
  cet.onEpochBegin(0x1000, false, d, 100);
  cet.onEpochEnd(0x1000, d, 120);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].epoch.endHash, sent[0].epoch.beginHash);
}

// ---------------------------------------------------------------------------
// MET rules (a): overlap, (b): data propagation
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, CleanHandoffSequence) {
  // Memory seeds the entry, then RW -> RO -> RW handoffs with matching
  // hashes and non-overlapping times.
  clock.value = 5;
  const DataBlock init = block(0);
  met.onHomeRequest(0x1000, init);

  const DataBlock v1 = block(11);
  cet.onEpochBegin(0x1000, true, init, 10);
  cet.onEpochEnd(0x1000, v1, 20);  // RW [10,20], wrote v1
  cet.onEpochBegin(0x1000, false, v1, 21);
  cet.onEpochEnd(0x1000, v1, 30);  // RO [21,30]
  cet.onEpochBegin(0x1000, true, v1, 30);
  cet.onEpochEnd(0x1000, block(12), 35);  // RW [30,35]
  pump();
  EXPECT_FALSE(sink.any()) << sink.first().what;
  EXPECT_EQ(met.stats().get("met.informsProcessed"), 3u);
}

TEST_F(CheckerFixture, RwOverlapDetected) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 10);
  cet.onEpochEnd(0x1000, block(1), 30);  // RW [10,30]
  pump();
  // A second RW epoch beginning at 25 overlaps [10,30].
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 2;
  m.addr = 0x1000;
  m.epoch.readWrite = true;
  m.epoch.begin = 25;
  m.epoch.end = 40;
  m.epoch.beginHash = hashBlock(block(1));
  m.epoch.endHash = hashBlock(block(2));
  met.onInform(m);
  met.drain();
  ASSERT_TRUE(sink.any());
  EXPECT_NE(sink.first().what.find("overlap"), std::string::npos);
}

TEST_F(CheckerFixture, RoMayOverlapRo) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  const auto h = hashBlock(block(0));
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.type = MsgType::kInformEpoch;
    m.src = static_cast<NodeId>(i);
    m.addr = 0x1000;
    m.epoch.readWrite = false;
    m.epoch.begin = 10;
    m.epoch.end = static_cast<LTime16>(30 + i);
    m.epoch.beginHash = h;
    m.epoch.endHash = h;
    met.onInform(m);
  }
  met.drain();
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, RoOverlappingRwDetected) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 10);
  cet.onEpochEnd(0x1000, block(1), 30);
  pump();
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 2;
  m.addr = 0x1000;
  m.epoch.readWrite = false;
  m.epoch.begin = 20;  // inside [10,30]
  m.epoch.end = 40;
  m.epoch.beginHash = hashBlock(block(1));
  m.epoch.endHash = m.epoch.beginHash;
  met.onInform(m);
  met.drain();
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, DataPropagationMismatchDetected) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 10);
  cet.onEpochEnd(0x1000, block(1), 20);  // ended with v1
  pump();
  EXPECT_FALSE(sink.any());
  // Next epoch begins with corrupted data (v2 instead of v1).
  cet.onEpochBegin(0x1000, false, block(2), 25);
  cet.onEpochEnd(0x1000, block(2), 30);
  pump();
  ASSERT_TRUE(sink.any());
  EXPECT_NE(sink.first().what.find("hash"), std::string::npos);
}

TEST_F(CheckerFixture, SeedHashComesFromMemoryImage) {
  clock.value = 3;
  const DataBlock mem = block(123);
  met.onHomeRequest(0x1000, mem);
  // First epoch begins with data matching memory: clean.
  cet.onEpochBegin(0x1000, false, mem, 5);
  cet.onEpochEnd(0x1000, mem, 9);
  pump();
  EXPECT_FALSE(sink.any());
  // A fresh block whose first epoch shows different data: flagged.
  met.onHomeRequest(0x2000, mem);
  cet.onEpochBegin(0x2000, false, block(99), 5);
  cet.onEpochEnd(0x2000, block(99), 9);
  pump();
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, SortingQueueReordersInforms) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  const auto h = hashBlock(block(0));
  // Two RO informs arrive end-first; the priority queue processes them in
  // begin order so lastROEnd grows monotonically without false alarms.
  Message late;
  late.type = MsgType::kInformEpoch;
  late.src = 2;
  late.addr = 0x1000;
  late.epoch.readWrite = false;
  late.epoch.begin = 30;
  late.epoch.end = 50;
  late.epoch.beginHash = h;
  late.epoch.endHash = h;
  Message early = late;
  early.src = 3;
  early.epoch.begin = 10;
  early.epoch.end = 20;
  met.onInform(late);
  met.onInform(early);
  met.drain();
  EXPECT_FALSE(sink.any());
}

// ---------------------------------------------------------------------------
// Sorting queue timing: one deadline timer per MET
// ---------------------------------------------------------------------------

/// An Inform-Epoch for block 0x1000 from node 2.
Message inform(bool rw, LTime16 begin, LTime16 end, std::uint16_t beginHash,
               std::uint16_t endHash) {
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 2;
  m.addr = 0x1000;
  m.epoch.readWrite = rw;
  m.epoch.begin = begin;
  m.epoch.end = end;
  m.epoch.beginHash = beginHash;
  m.epoch.endHash = endHash;
  return m;
}

TEST_F(CheckerFixture, OverflowCountsInformsPushedOutBeforeResting) {
  DvmcConfig small = cfg;
  small.informQueueCapacity = 16;
  MemoryEpochChecker q(sim, /*node=*/1, small, &sink, clock);
  q.onHomeRequest(0x1000, block(0));
  const auto h = hashBlock(block(0));
  for (LTime16 i = 0; i < 17; ++i) {
    q.onInform(inform(false, static_cast<LTime16>(10 + i), 100, h, h));
  }
  EXPECT_EQ(q.stats().get("met.informOverflow"), 1u);
  EXPECT_EQ(q.stats().get("met.informsProcessed"), 1u);
  EXPECT_EQ(q.queuedInforms(), 16u);
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, OrphanInformKeepsEntriesGaugeInStep) {
  // No onHomeRequest: the inform creates the block's row itself.
  met.onInform(inform(false, 10, 20, 0, 0));
  met.drain();
  EXPECT_EQ(met.stats().get("met.informWithoutEntry"), 1u);
  EXPECT_EQ(met.metEntries(), 1u);
  EXPECT_EQ(met.stats().get("met.entries"), met.metEntries());
  EXPECT_EQ(met.peakMetEntries(), met.metEntries());
}

TEST_F(CheckerFixture, ThousandInformsHoldOneTimer) {
  DvmcConfig small = cfg;
  small.informQueueCapacity = 16;
  MemoryEpochChecker q(sim, /*node=*/1, small, &sink, clock);
  q.onHomeRequest(0x1000, block(0));
  const auto h = hashBlock(block(0));
  for (LTime16 i = 0; i < 1000; ++i) {
    q.onInform(inform(false, i, static_cast<LTime16>(i + 5), h, h));
  }
  EXPECT_EQ(sim.pendingEvents(), 1u);
  EXPECT_EQ(q.queuedInforms(), 16u);
  // The timer alone empties the queue once its entries have rested.
  sim.run();
  EXPECT_EQ(q.queuedInforms(), 0u);
  EXPECT_EQ(q.stats().get("met.informsProcessed"), 1000u);
  EXPECT_EQ(sim.now(), small.informSortDelay);
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, InformRestsTheFullSortDelay) {
  met.onHomeRequest(0x1000, block(0));
  const auto h = hashBlock(block(0));
  met.onInform(inform(false, 10, 20, h, h));  // cycle 0, empty queue
  const Cycle delay = cfg.informSortDelay;
  std::size_t justBefore = 0;
  std::size_t atDeadline = 0;
  sim.scheduleAt(delay - 1, [&] { justBefore = met.queuedInforms(); });
  sim.scheduleAt(delay, [&] { atDeadline = met.queuedInforms(); });
  sim.run();
  EXPECT_EQ(justBefore, 1u);
  EXPECT_EQ(atDeadline, 0u);
  EXPECT_EQ(met.stats().get("met.informsProcessed"), 1u);
}

TEST_F(CheckerFixture, LaterArrivalWithEarlierBeginWaitsItsOwnRest) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  const auto h0 = hashBlock(block(0));
  const auto h1 = hashBlock(block(1));
  const auto h2 = hashBlock(block(2));
  // RW [10,20] then RW [30,50]: processed the other way round, the second
  // epoch would overlap the first.
  const Message first = inform(true, 10, 20, h0, h1);
  const Message second = inform(true, 30, 50, h1, h2);
  met.onInform(second);  // cycle 0
  sim.scheduleAt(100, [&] { met.onInform(first); });
  const Cycle delay = cfg.informSortDelay;
  std::size_t atFirstDeadline = 0;
  std::size_t beforeSecondDeadline = 0;
  sim.scheduleAt(delay, [&] { atFirstDeadline = met.queuedInforms(); });
  sim.scheduleAt(delay + 99,
                 [&] { beforeSecondDeadline = met.queuedInforms(); });
  sim.run();
  // The earlier-begin top arrived at 100, so nothing leaves before it has
  // rested; then both leave together in the timer's last firing, earlier
  // begin first.
  EXPECT_EQ(atFirstDeadline, 2u);
  EXPECT_EQ(beforeSecondDeadline, 2u);
  EXPECT_EQ(sim.now(), delay + 100);
  EXPECT_EQ(met.queuedInforms(), 0u);
  EXPECT_EQ(met.stats().get("met.informsProcessed"), 2u);
  EXPECT_FALSE(sink.any()) << sink.first().what;
}

// ---------------------------------------------------------------------------
// 16-bit wraparound
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, EpochsAcrossWrapBoundaryAreClean) {
  clock.value = 0xFFF0;
  met.onHomeRequest(0x1000, block(0));
  // RW [0xFFF8, 0x0008] wraps; the following RO [0x0009, ...] must not be
  // flagged as overlapping.
  cet.onEpochBegin(0x1000, true, block(0), 0xFFF8);
  cet.onEpochEnd(0x1000, block(1), 0x10008);  // wide time wraps to 8
  cet.onEpochBegin(0x1000, false, block(1), 0x10009);
  cet.onEpochEnd(0x1000, block(1), 0x10010);
  pump();
  EXPECT_FALSE(sink.any()) << sink.first().what;
}

TEST_F(CheckerFixture, WrapOverlapStillDetected) {
  clock.value = 0xFFF0;
  met.onHomeRequest(0x1000, block(0));
  cet.onEpochBegin(0x1000, true, block(0), 0xFFF8);
  cet.onEpochEnd(0x1000, block(1), 0x10008);  // RW [FFF8, 0008]
  pump();
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 2;
  m.addr = 0x1000;
  m.epoch.readWrite = true;
  m.epoch.begin = 0xFFFC;  // inside the wrapped RW epoch
  m.epoch.end = 0x0002;
  m.epoch.beginHash = hashBlock(block(1));
  m.epoch.endHash = hashBlock(block(1));
  met.onInform(m);
  met.drain();
  EXPECT_TRUE(sink.any());
}

// ---------------------------------------------------------------------------
// Open-epoch scrubbing
// ---------------------------------------------------------------------------

TEST_F(CheckerFixture, LongEpochAnnouncedOpenAndClosed) {
  cfg.scrubAgeTicks = 16;  // tiny for the test
  CacheEpochChecker smallCet(sim, 0, cfg, &sink,
                             [this](Message m) { sent.push_back(m); });
  smallCet.onEpochBegin(0x1000, true, block(1), 100);
  // Age the checker: later epochs advance lastLtime past the threshold.
  smallCet.onEpochBegin(0x2000, false, block(2), 200);
  sim.run(100'000);  // let the scrub sweep run
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent[0].type, MsgType::kInformOpenEpoch);
  EXPECT_TRUE(sent[0].epoch.readWrite);
  EXPECT_EQ(sent[0].epoch.begin, 100);
  sent.clear();
  // The eventual end now produces a short Inform-Closed-Epoch.
  smallCet.onEpochEnd(0x1000, block(1), 250);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, MsgType::kInformClosedEpoch);
  EXPECT_EQ(sent[0].epoch.end, 250);
}

TEST_F(CheckerFixture, OpenRwEpochBlocksOtherEpochs) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  Message open;
  open.type = MsgType::kInformOpenEpoch;
  open.src = 3;
  open.addr = 0x1000;
  open.epoch.readWrite = true;
  open.epoch.begin = 10;
  open.epoch.beginHash = hashBlock(block(0));
  met.onInform(open);
  met.drain();
  EXPECT_FALSE(sink.any());
  // An RO epoch while the RW epoch is open: violation.
  Message ro;
  ro.type = MsgType::kInformEpoch;
  ro.src = 2;
  ro.addr = 0x1000;
  ro.epoch.readWrite = false;
  ro.epoch.begin = 20;
  ro.epoch.end = 25;
  ro.epoch.beginHash = hashBlock(block(0));
  ro.epoch.endHash = ro.epoch.beginHash;
  met.onInform(ro);
  met.drain();
  EXPECT_TRUE(sink.any());
}

TEST_F(CheckerFixture, ClosedEpochReleasesOpenState) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  Message open;
  open.type = MsgType::kInformOpenEpoch;
  open.src = 3;
  open.addr = 0x1000;
  open.epoch.readWrite = true;
  open.epoch.begin = 10;
  open.epoch.beginHash = hashBlock(block(0));
  met.onInform(open);
  met.drain();
  Message closed;
  closed.type = MsgType::kInformClosedEpoch;
  closed.src = 3;
  closed.addr = 0x1000;
  closed.epoch.readWrite = true;
  closed.epoch.end = 30;
  met.onInform(closed);
  // After the close, a new RW epoch beginning at 31 is clean — and the
  // data check is skipped (the closed-inform carries no end hash).
  Message rw;
  rw.type = MsgType::kInformEpoch;
  rw.src = 2;
  rw.addr = 0x1000;
  rw.epoch.readWrite = true;
  rw.epoch.begin = 31;
  rw.epoch.end = 40;
  rw.epoch.beginHash = 0xDEAD;  // would mismatch if checked
  rw.epoch.endHash = 0xBEEF;
  met.onInform(rw);
  met.drain();
  EXPECT_FALSE(sink.any());
}

TEST_F(CheckerFixture, MetResetClearsState) {
  clock.value = 0;
  met.onHomeRequest(0x1000, block(0));
  EXPECT_EQ(met.metEntries(), 1u);
  met.reset();
  EXPECT_EQ(met.metEntries(), 0u);
}

}  // namespace
}  // namespace dvmc
