// Unit tests for the discrete-event kernel: ordering, determinism,
// reentrant scheduling, and the run/runUntil drivers.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
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

// --- calendar-queue specifics: the 64-cycle near window, the far-future
// heap, and the seam between them ------------------------------------------

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
  // Delays straddling the 64-cycle near window (63 → calendar, 64 → heap)
  // must still execute in time order.
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
  // A far-future event (heap) scheduled BEFORE a near event for the same
  // cycle must run first: same-cycle execution follows scheduling order
  // regardless of which structure held the event.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(100, [&] { order.push_back(1); });  // far → heap
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
    sim.schedule(70, [&] { order.push_back(1); });   // cycle 100 via heap
    sim.schedule(40, [&] {                            // cycle 70
      sim.schedule(30, [&] { order.push_back(2); });  // cycle 100 via calendar
    });
  });
  sim.run();
  // Heap event (order earlier) still precedes the calendar event at 100.
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
  // Near (calendar) and far (heap) events alike: clear() runs each pending
  // action's destructor, releasing what it captured, and the kernel keeps
  // working afterwards.
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

}  // namespace
}  // namespace dvmc
