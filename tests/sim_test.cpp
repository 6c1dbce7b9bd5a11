// Unit tests for the discrete-event kernel: ordering, determinism,
// reentrant scheduling, and the run/runUntil drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace dvmc {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameCycleFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ReentrantScheduling) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule(1, chain);
  };
  sim.schedule(1, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 5u);
}

TEST(Simulator, ZeroDelayRunsLaterSameCycle) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1, [&] {
    order.push_back(1);
    sim.schedule(0, [&] { order.push_back(2); });
  });
  sim.schedule(1, [&] { order.push_back(3); });
  sim.run();
  // The zero-delay event runs after already-queued same-cycle events.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, RunHonorsLimit) {
  Simulator sim;
  int ran = 0;
  sim.schedule(10, [&] { ++ran; });
  sim.schedule(100, [&] { ++ran; });
  sim.run(50);
  EXPECT_EQ(ran, 1);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunUntilPredicate) {
  Simulator sim;
  int x = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i, [&] { ++x; });
  }
  const bool hit = sim.runUntil([&] { return x == 4; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(x, 4);
  EXPECT_EQ(sim.now(), 4u);
}

TEST(Simulator, RunUntilReturnsFalseWhenDrained) {
  Simulator sim;
  sim.schedule(1, [] {});
  EXPECT_FALSE(sim.runUntil([] { return false; }));
}

TEST(Simulator, EventCounting) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(1, [] {});
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 7u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  Cycle seen = 0;
  sim.scheduleAt(123, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 123u);
}

// --- calendar-queue specifics: the 64-cycle near window, the second
// level, and the seam between them -----------------------------------------

TEST(Simulator, FarFutureEventsRunInTimeOrder) {
  Simulator sim;
  std::vector<Cycle> order;
  for (Cycle d : {Cycle{1000}, Cycle{64}, Cycle{5'000'000}, Cycle{65},
                  Cycle{200}}) {
    sim.schedule(d, [&, d] { order.push_back(d); });
  }
  sim.run();
  EXPECT_EQ(order,
            (std::vector<Cycle>{64, 65, 200, 1000, 5'000'000}));
  EXPECT_EQ(sim.now(), 5'000'000u);
}

TEST(Simulator, WindowBoundaryDelays) {
  // Delays straddling the 64-cycle near window (63 → calendar, 64 → second
  // level) must still execute in time order.
  Simulator sim;
  std::vector<Cycle> order;
  for (Cycle d : {Cycle{64}, Cycle{63}, Cycle{65}, Cycle{62}, Cycle{127},
                  Cycle{128}, Cycle{129}}) {
    sim.schedule(d, [&, d] { order.push_back(d); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<Cycle>{62, 63, 64, 65, 127, 128, 129}));
}

TEST(Simulator, SameCycleFifoAcrossHeapAndCalendar) {
  // A far-future event (second level) scheduled BEFORE a near event for the
  // same cycle must run first: same-cycle execution follows scheduling
  // order regardless of which structure held the event.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(100, [&] { order.push_back(1); });  // far → second level
  sim.schedule(40, [&] {
    // At cycle 40, cycle 100 is within the near window → calendar.
    sim.schedule(60, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, SameCycleFifoWhenNearScheduledFirst) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] {
    sim.schedule(70, [&] { order.push_back(1); });   // cycle 100, 2nd level
    sim.schedule(40, [&] {                            // cycle 70
      sim.schedule(30, [&] { order.push_back(2); });  // cycle 100 via calendar
    });
  });
  sim.run();
  // The second-level event (scheduled earlier) still precedes the calendar
  // event at 100.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, BucketWraparoundLongChain) {
  // A self-rescheduling chain with a delay coprime to the window size
  // sweeps every bucket index many times.
  Simulator sim;
  Cycle last = 0;
  int count = 0;
  std::function<void()> chain = [&] {
    EXPECT_EQ(sim.now(), last + 7);
    last = sim.now();
    if (++count < 1000) sim.schedule(7, chain);
  };
  sim.schedule(7, chain);
  sim.run();
  EXPECT_EQ(count, 1000);
  EXPECT_EQ(sim.now(), 7000u);
}

TEST(Simulator, RunLimitLandsInsideWindow) {
  // run(limit) advances now_ past cycles with no events; later scheduling
  // relative to the new now_ must stay consistent.
  Simulator sim;
  std::vector<Cycle> ran;
  sim.schedule(10, [&] { ran.push_back(sim.now()); });
  sim.schedule(90, [&] { ran.push_back(sim.now()); });
  sim.run(47);
  EXPECT_EQ(sim.now(), 47u);
  EXPECT_EQ(ran, (std::vector<Cycle>{10}));
  sim.schedule(3, [&] { ran.push_back(sim.now()); });  // cycle 50
  sim.schedule(63, [&] { ran.push_back(sim.now()); });  // cycle 110
  sim.run();
  EXPECT_EQ(ran, (std::vector<Cycle>{10, 50, 90, 110}));
}

TEST(Simulator, NodeRecyclingKeepsOrdering) {
  // Push the kernel through many alloc/release cycles (slab reuse) and
  // check counting + ordering stay exact.
  Simulator sim;
  std::uint64_t lastSeen = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      sim.schedule(static_cast<Cycle>(1 + (i * 13) % 200),
                   [&, i] { lastSeen = sim.now() * 1000 + i; });
    }
    sim.run();
    EXPECT_TRUE(sim.empty());
  }
  EXPECT_EQ(sim.eventsExecuted(), 5000u);
  EXPECT_NE(lastSeen, 0u);
}

TEST(Simulator, ClearDestroysPendingActionsWithoutRunningThem) {
  // Near (calendar) and far (second level) events alike: clear() runs each
  // pending action's destructor, releasing what it captured, and the kernel
  // keeps working afterwards.
  Simulator sim;
  auto token = std::make_shared<int>(0);
  bool ran = false;
  sim.schedule(3, [&ran, token] { ran = true; });
  sim.schedule(500, [&ran, token] { ran = true; });
  EXPECT_EQ(token.use_count(), 3);
  sim.clear();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(token.use_count(), 1);
  sim.run();
  EXPECT_FALSE(ran);
  sim.schedule(1, [&ran] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RandomizedAgainstReferenceOrdering) {
  // Drive the kernel with a deterministic pseudo-random mix of near and far
  // delays (including reentrant schedules) and compare the execution order
  // against a stable-sorted reference on (when, scheduling index).
  struct Ref {
    Cycle when;
    std::uint64_t order;
  };
  Simulator sim;
  std::vector<Ref> ref;
  std::vector<std::uint64_t> executed;
  std::uint64_t lcg = 12345;
  std::uint64_t nextId = 0;
  auto rnd = [&] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  std::function<void(std::uint64_t)> body = [&](std::uint64_t id) {
    executed.push_back(id);
    if (nextId < 3000 && rnd() % 3 == 0) {
      // Reentrant: spawn a child with a delay crossing the window boundary
      // every so often.
      const Cycle d = rnd() % 5 == 0 ? 60 + rnd() % 20 : rnd() % 64;
      const std::uint64_t child = nextId++;
      ref.push_back({sim.now() + d, child});
      sim.schedule(d, [&, child] { body(child); });
    }
  };
  for (int i = 0; i < 500; ++i) {
    const Cycle when = rnd() % 300;
    const std::uint64_t id = nextId++;
    ref.push_back({when, id});
    sim.scheduleAt(when, [&, id] { body(id); });
  }
  sim.run();

  std::stable_sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.order < b.order;
  });
  ASSERT_EQ(executed.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(executed[i], ref[i].order) << "position " << i;
  }
}

// --- the tick phase: tickers run after their cycle's events -------------

// Records each tick as (cycle, name) into a shared log; `onTick` runs inside
// the tick.
struct LogTicker final : Simulator::Ticker {
  LogTicker(Simulator& s, std::vector<std::pair<Cycle, int>>& l, int n)
      : sim(s), log(l), name(n), id(s.addTicker(*this)) {}
  void tick() override {
    log.emplace_back(sim.now(), name);
    if (onTick) onTick();
  }
  Simulator& sim;
  std::vector<std::pair<Cycle, int>>& log;
  int name;
  Simulator::TickerId id;
  std::function<void()> onTick;
};

using Log = std::vector<std::pair<Cycle, int>>;

TEST(SimulatorTickPhase, TickerRunsAfterEveryEventOfItsCycle) {
  // Events of cycle 5 scheduled before and after the arm, and one a
  // zero-delay event adds, all run before the tick.
  Simulator sim;
  Log log;
  LogTicker t(sim, log, 100);
  sim.schedule(5, [&] {
    log.emplace_back(sim.now(), 1);
    sim.schedule(0, [&] { log.emplace_back(sim.now(), 3); });
  });
  sim.armTick(t.id, 5);
  sim.schedule(5, [&] { log.emplace_back(sim.now(), 2); });
  sim.schedule(6, [&] { log.emplace_back(sim.now(), 4); });
  sim.run();
  EXPECT_EQ(log, (Log{{5, 1}, {5, 2}, {5, 3}, {5, 100}, {6, 4}}));
}

TEST(SimulatorTickPhase, TickersRunInRegistrationOrder) {
  Simulator sim;
  Log log;
  LogTicker a(sim, log, 0);
  LogTicker b(sim, log, 1);
  LogTicker c(sim, log, 2);
  sim.armTick(c.id, 3);
  sim.armTick(a.id, 3);
  sim.armTick(b.id, 3);
  sim.armTick(a.id, 3);  // arming an armed ticker again is a no-op
  sim.run();
  EXPECT_EQ(log, (Log{{3, 0}, {3, 1}, {3, 2}}));
  EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(SimulatorTickPhase, ArmDuringABegunPhaseLandsInTheNextCycle) {
  Simulator sim;
  Log log;
  LogTicker a(sim, log, 0);
  LogTicker b(sim, log, 1);
  LogTicker c(sim, log, 2);
  // At cycle 4, b re-arms itself and a (both already ran) for this cycle,
  // and c, which is still pending here, so that arm changes nothing. A
  // zero-delay event from the phase runs after it and arms b again.
  b.onTick = [&] {
    if (sim.now() != 4) return;
    sim.armTick(b.id, sim.now());
    sim.armTick(a.id, sim.now());
    sim.armTick(c.id, sim.now());
    sim.schedule(0, [&] {
      log.emplace_back(sim.now(), 9);
      sim.armTick(b.id, sim.now());
    });
  };
  sim.armTick(a.id, 4);
  sim.armTick(b.id, 4);
  sim.armTick(c.id, 4);
  sim.run();
  EXPECT_EQ(log, (Log{{4, 0}, {4, 1}, {4, 2}, {4, 9}, {5, 0}, {5, 1}}));
}

TEST(SimulatorTickPhase, FarArmFiresAtItsCycle) {
  Simulator sim;
  Log log;
  LogTicker t(sim, log, 0);
  sim.armTick(t.id, 64);
  sim.armTick(t.id, 1'000);
  sim.armTick(t.id, 63);
  // Events of the arm's cycle still run first.
  sim.scheduleAt(1'000, [&] { log.emplace_back(sim.now(), 5); });
  sim.run();
  EXPECT_EQ(log, (Log{{63, 0}, {64, 0}, {1'000, 5}, {1'000, 0}}));
}

TEST(SimulatorTickPhase, CountsIncludeTicks) {
  Simulator sim;
  Log log;
  LogTicker t(sim, log, 0);
  EXPECT_TRUE(sim.empty());
  sim.armTick(t.id, 2);
  sim.armTick(t.id, 7);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.schedule(3, [] {});
  EXPECT_EQ(sim.pendingEvents(), 3u);
  EXPECT_TRUE(sim.step());  // the tick at 2
  EXPECT_EQ(sim.now(), 2u);
  EXPECT_EQ(sim.eventsExecuted(), 1u);
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.clear();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pendingEvents(), 0u);
  sim.run();
  EXPECT_EQ(log, (Log{{2, 0}}));
  sim.armTick(t.id, sim.now() + 1);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.eventsExecuted(), 2u);
}

// --- stopping at a cycle --------------------------------------------------

TEST(SimulatorTickPhase, BoundIsReachedWhenNoEventFallsOnIt) {
  // No event or tick falls on cycle 47: a bounded run still ends with
  // every earlier one run and now() at the bound, and the bound's tick
  // phase counts as over, so an arm for it lands in the next cycle.
  Simulator sim;
  Log log;
  LogTicker t(sim, log, 0);
  sim.schedule(10, [&] { log.emplace_back(sim.now(), 1); });
  sim.armTick(t.id, 30);
  sim.schedule(90, [&] { log.emplace_back(sim.now(), 2); });
  bool stop = false;
  EXPECT_FALSE(sim.runUntilFlag(stop, 47));
  EXPECT_EQ(sim.now(), 47u);
  EXPECT_EQ(log, (Log{{10, 1}, {30, 0}}));
  sim.armTick(t.id, sim.now());
  EXPECT_FALSE(sim.runUntil([] { return false; }, 60));
  EXPECT_EQ(sim.now(), 60u);
  EXPECT_EQ(log, (Log{{10, 1}, {30, 0}, {48, 0}}));
  // A predicate still ends the run early, at the event that satisfied it.
  EXPECT_TRUE(sim.runUntil([&] { return log.size() == 4; }, 500));
  EXPECT_EQ(sim.now(), 90u);
}

// --- the second level: blocks, slots and rounds ----------------------------
//
// Events 64 or more cycles out wait in one of 64 slots, one per aligned
// 64-cycle block, and move into the calendar when their block begins; an
// event more than 4,096 cycles out waits in its slot for a later round.

// An action that logs (now(), name).
auto noteAt(Simulator& sim, Log& log, int name) {
  return [&sim, &log, name] { log.emplace_back(sim.now(), name); };
}

TEST(SimulatorSecondLevel, DelayOfExactlyOneWindow) {
  // 64 cycles is the shortest delay the second level takes. Its event runs
  // at its cycle, ahead of a calendar event for that cycle scheduled later,
  // and a block's first cycle (64) is reached from the second level too.
  Simulator sim;
  Log log;
  sim.schedule(64, noteAt(sim, log, 1));  // 64: block 1's first cycle
  sim.schedule(63, noteAt(sim, log, 0));  // 63: calendar
  sim.schedule(10, [&] {
    sim.schedule(64, noteAt(sim, log, 3));  // 74: second level
    sim.schedule(63, noteAt(sim, log, 2));  // 73: calendar
  });
  sim.schedule(20, [&] { sim.schedule(54, noteAt(sim, log, 4)); });  // 74
  sim.run();
  EXPECT_EQ(log, (Log{{63, 0}, {64, 1}, {73, 2}, {74, 3}, {74, 4}}));
}

TEST(SimulatorSecondLevel, DelayOf4096LandsInTheCurrentBlocksSlot) {
  // 4,096 cycles is the CET scrub period. Scheduled from block 0, cycles
  // 4,096 and 4,101 (block 64) go to slot 0, the current block's own slot;
  // they wait there a whole round and run in scheduling order with the
  // events that reach those cycles from nearer.
  Simulator sim;
  Log log;
  sim.schedule(4096, noteAt(sim, log, 1));                    // 4,096
  sim.schedule(1, [&] { sim.schedule(4095, noteAt(sim, log, 2)); });
  sim.schedule(5, [&] { sim.schedule(4096, noteAt(sim, log, 3)); });
  sim.scheduleAt(63 * 64, noteAt(sim, log, 0));               // slot 63
  sim.scheduleAt(4000, [&] { sim.schedule(101, noteAt(sim, log, 4)); });
  sim.scheduleAt(4090, [&] { sim.schedule(11, noteAt(sim, log, 5)); });
  sim.run();
  EXPECT_EQ(log, (Log{{4032, 0}, {4096, 1}, {4096, 2}, {4101, 3},
                      {4101, 4}, {4101, 5}}));
}

TEST(SimulatorSecondLevel, LaterRoundsShareASlotWithTheCurrentRound) {
  // Cycles 70, 100, 100 + 4,096 and 100 + 3 * 4,096 all map to slot 1. The
  // later rounds, scheduled first, stay in the slot, in order, each time
  // block 1 of a round begins.
  Simulator sim;
  Log log;
  sim.scheduleAt(100 + 3 * 4096, noteAt(sim, log, 4));
  sim.scheduleAt(100 + 4096, noteAt(sim, log, 2));
  sim.scheduleAt(100, noteAt(sim, log, 1));
  sim.scheduleAt(100 + 4096, noteAt(sim, log, 3));
  sim.scheduleAt(70, noteAt(sim, log, 0));
  EXPECT_EQ(sim.run(100), 2u);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pendingEvents(), 3u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, (Log{{70, 0}, {100, 1}, {4196, 2}, {4196, 3}, {12388, 4}}));
  EXPECT_EQ(sim.now(), 12388u);
}

TEST(SimulatorSecondLevel, EventAtABlocksFirstCycleRunsBeforeItsTick) {
  // Cycle 128 begins block 2, and its tick is armed in the calendar before
  // the block begins. The second-level event for 128 runs first, then the
  // calendar one, then the tick. Block 3's slot holds only a later round's
  // event when the tick armed for cycle 192 runs.
  Simulator sim;
  Log log;
  LogTicker t(sim, log, 100);
  sim.scheduleAt(128, noteAt(sim, log, 1));
  sim.scheduleAt(192 + 4096, noteAt(sim, log, 3));
  sim.scheduleAt(100, [&] { sim.armTick(t.id, 128); });
  sim.scheduleAt(110, [&] { sim.schedule(18, noteAt(sim, log, 2)); });
  sim.scheduleAt(150, [&] { sim.armTick(t.id, 192); });
  sim.run();
  EXPECT_EQ(log, (Log{{128, 1}, {128, 2}, {128, 100}, {192, 100},
                      {4288, 3}}));
}

TEST(SimulatorSecondLevel, ClearReleasesSecondLevelEventsOfBothRounds) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  bool ran = false;
  sim.schedule(500, [&ran, token] { ran = true; });         // this round
  sim.schedule(500 + 4096, [&ran, token] { ran = true; });  // same slot
  sim.schedule(200'000, [&ran, token] { ran = true; });     // many rounds
  EXPECT_EQ(token.use_count(), 4);
  EXPECT_EQ(sim.pendingEvents(), 3u);
  sim.clear();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(ran);
  // The emptied slots take new events.
  Log log;
  sim.schedule(500, noteAt(sim, log, 1));
  sim.schedule(100, noteAt(sim, log, 0));
  sim.run();
  EXPECT_EQ(log, (Log{{100, 0}, {500, 1}}));
}

TEST(SimulatorSecondLevel, RunLimitInsideABlockWhoseEventsAreNotYetDue) {
  // Cycle 200 lies in block 3 ([192, 255]). A run bounded at 195 begins the
  // block and runs nothing; an event scheduled from there for 200 goes to
  // the calendar, behind the second-level one.
  Simulator sim;
  Log log;
  sim.scheduleAt(200, noteAt(sim, log, 1));
  sim.scheduleAt(250, noteAt(sim, log, 2));
  EXPECT_EQ(sim.run(150), 0u);
  EXPECT_EQ(sim.now(), 150u);
  EXPECT_EQ(sim.run(195), 0u);
  EXPECT_EQ(sim.now(), 195u);
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.schedule(5, noteAt(sim, log, 3));   // 200: calendar
  sim.schedule(2, noteAt(sim, log, 4));   // 197
  sim.schedule(64, noteAt(sim, log, 5));  // 259: second level, block 4
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(log, (Log{{197, 4}, {200, 1}, {200, 3}, {250, 2}, {259, 5}}));
}

TEST(SimulatorSecondLevel, StopChecksSeeNoBlockBegin) {
  // A block begin moves now() to the block's first cycle and runs nothing;
  // the stop check runs only after events and ticks, so a predicate on
  // now() stops at the first event at or past its cycle.
  Simulator sim;
  Log log;
  sim.scheduleAt(200, noteAt(sim, log, 1));
  sim.scheduleAt(201, noteAt(sim, log, 2));
  EXPECT_TRUE(sim.runUntil([&] { return sim.now() >= 192; }));
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(log, (Log{{200, 1}}));
}

TEST(SimulatorSecondLevel, RandomizedAllRangesBoundedRunsAndTicks) {
  // Delays from all three ranges: the calendar (under 64 cycles), the
  // second level's first round (64 to 4,096) and later rounds (up to about
  // 200,000). They come from the start, from reentrant children and from
  // outside between runs that stop at random bounds, with same-cycle
  // collisions at multiples of 997 reached from different distances and a
  // ticker armed at random cycles. The execution order must equal a stable
  // sort on (cycle, scheduling index), each cycle's tick after its events.
  struct Ref {
    Cycle when;
    int kind;  // 0: event, 1: tick
    std::uint64_t order;
    bool operator==(const Ref& o) const {
      return when == o.when && kind == o.kind && order == o.order;
    }
  };
  Simulator sim;
  Log tickLog;
  LogTicker ticker(sim, tickLog, 0);
  std::vector<Ref> ref;
  std::vector<Ref> executed;
  std::set<Cycle> tickCycles;
  std::uint64_t farArms = 0;  // each is one event that arms the ticker
  std::uint64_t lcg = 977;
  std::uint64_t nextId = 0;
  constexpr std::uint64_t kMaxEvents = 4000;
  auto rnd = [&] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  auto delay = [&]() -> Cycle {
    switch (rnd() % 4) {
      case 0:
        return rnd() % 64;
      case 1:
        return 64 + rnd() % 4033;  // 64 to 4,096
      case 2:
        return 4097 + rnd() % 196'000;
      default: {
        const Cycle ahead = rnd() % 3 == 0 ? rnd() % 200 : rnd() % 5;
        return (sim.now() / 997 + 1 + ahead) * 997 - sim.now();
      }
    }
  };
  std::function<void(std::uint64_t)> body;
  auto add = [&](Cycle d) {
    const std::uint64_t id = nextId++;
    ref.push_back({sim.now() + d, 0, id});
    sim.schedule(d, [&body, id] { body(id); });
  };
  auto arm = [&](Cycle d) {
    tickCycles.insert(sim.now() + d);
    if (d >= 64) ++farArms;
    sim.armTick(ticker.id, sim.now() + d);
  };
  body = [&](std::uint64_t id) {
    executed.push_back({sim.now(), 0, id});
    if (nextId < kMaxEvents && rnd() % 2 == 0) add(delay());
    if (nextId < kMaxEvents && rnd() % 16 == 0) add(delay());
    if (rnd() % 8 == 0) arm(rnd() % 2 == 0 ? rnd() % 64 : delay());
  };
  ticker.onTick = [&] { executed.push_back({sim.now(), 1, 0}); };
  for (int i = 0; i < 400; ++i) add(delay());
  for (int i = 0; i < 20; ++i) arm(1 + rnd() % 5000);
  int bounds = 0;
  while (!sim.empty()) {
    const Cycle limit = sim.now() + rnd() % 20'000;
    sim.run(limit);
    ASSERT_EQ(sim.now(), limit);
    ++bounds;
    // The bound's tick phase is over, so arms from here start a cycle on.
    if (nextId < kMaxEvents) add(delay());
    if (rnd() % 2 == 0) arm(1 + rnd() % 300);
  }
  EXPECT_GT(bounds, 10);

  for (Cycle c : tickCycles) ref.push_back({c, 1, 0});
  std::stable_sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.order < b.order;
  });
  ASSERT_EQ(executed.size(), ref.size());
  EXPECT_EQ(sim.eventsExecuted(), executed.size() + farArms);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_TRUE(executed[i] == ref[i])
        << "position " << i << ": ran (" << executed[i].when << ", "
        << executed[i].kind << ", " << executed[i].order << "), expected ("
        << ref[i].when << ", " << ref[i].kind << ", " << ref[i].order << ")";
  }
}

}  // namespace
}  // namespace dvmc
