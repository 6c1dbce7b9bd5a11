// Discrete-event simulation kernel.
//
// The whole system is modeled as events on a single global cycle clock.
// Events scheduled for the same cycle execute in scheduling order, which
// makes every run bit-for-bit deterministic for a given seed — a property
// the error-injection experiments and SafetyNet recovery tests rely on.
//
// Storage is a two-level calendar queue tuned for the hot path. Nearly all
// events in this machine are scheduled a handful of cycles out (cache and
// link latencies), so the kernel keeps a 64-cycle window of FIFO buckets —
// one per upcoming cycle, nonemptiness tracked in a single 64-bit mask —
// and spills only far-future events (checkpoint intervals, membar-injection
// timers) to a binary heap. Event nodes come from a slab-backed free list,
// and the action is an InlineTask whose captures live *inside* the slab
// node (one node = exactly two cache lines), so steady-state scheduling
// performs zero allocations — including for the captures, which under the
// old std::function Action heap-allocated whenever they exceeded ~16 bytes
// (i.e. nearly always).
//
// Each cycle ends with a fixed tick phase. Components that act once per
// cycle (the cores) register as tickers and arm the cycles they want to
// run in; after a cycle's last event, its armed tickers run in
// registration order. A ticker therefore sees every input of its cycle,
// whatever order the events that delivered them were scheduled in. An arm
// is one bit in a 64-bit mask kept per calendar bucket, not an event.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/inline_task.hpp"
#include "common/types.hpp"

namespace dvmc {

class EventTracer;

class Simulator {
 public:
  /// Inline capture budget for scheduled actions. 96 bytes holds every
  /// hot-path capture with room to spare (a cache operation's largest, the
  /// L2's [this, CacheOp, generation], is 64) and lands sizeof(Event) on
  /// exactly two cache lines. Captures that exceed it fail to compile at
  /// the schedule() call site: pool the payload (see MessagePool) instead
  /// of raising the budget.
  static constexpr std::size_t kActionCapacityBytes = 96;
  using Action = InlineTask<kActionCapacityBytes>;

  /// A component that runs in the tick phase of the cycles it arms.
  class Ticker {
   public:
    virtual void tick() = 0;

   protected:
    ~Ticker() = default;
  };
  /// One bit of a 64-bit arm mask per ticker.
  static constexpr std::size_t kMaxTickers = 64;
  using TickerId = std::uint32_t;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in cycles.
  Cycle now() const { return now_; }

  /// Schedules `fn` to run `delay` cycles from now (0 = later this cycle).
  void schedule(Cycle delay, Action fn) { scheduleAt(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at an absolute cycle (must not be in the past).
  void scheduleAt(Cycle when, Action fn);

  /// Registers `t`; tickers armed for the same cycle run in registration
  /// order. Allocates nothing; at most kMaxTickers may register.
  TickerId addTicker(Ticker& t);

  /// Arms ticker `id` for the tick phase of cycle `when` (>= now()). Arming
  /// an armed ticker again is a no-op. Once `when`'s phase has begun, the
  /// arm goes to the next cycle, unless the ticker is still pending in
  /// this phase. An arm 64 or more cycles out is one ordinary event that
  /// arms the ticker when its cycle comes.
  void armTick(TickerId id, Cycle when) {
    DVMC_ASSERT(when >= now_, "tick armed in the past");
    const std::uint64_t bit = std::uint64_t{1} << id;
    if (when == phaseCycle_) {
      if ((phasePending_ & bit) != 0) return;
      ++when;
    }
    if (when - now_ >= kNearWindow) {
      armTickFar(id, when);
      return;
    }
    const std::size_t idx = static_cast<std::size_t>(when % kNearWindow);
    if ((tickArms_[idx] & bit) != 0) return;
    tickArms_[idx] |= bit;
    tickBuckets_ |= std::uint64_t{1} << idx;
    ++size_;
  }

  /// Executes the next event or tick; returns false if nothing is pending.
  bool step();

  /// Runs every event and tick up to and including cycle `limit`, then
  /// sets now() to `limit` (unless nothing was bounded: `limit` = ~0).
  /// Returns the number of events and ticks executed.
  std::uint64_t run(Cycle limit = ~Cycle{0});

  /// Runs until `pred()` becomes true (checked after each event and tick),
  /// or as run(limit) would. Returns true if pred was satisfied; otherwise
  /// now() is `limit`, as after run(limit).
  bool runUntil(const std::function<bool()>& pred, Cycle limit = ~Cycle{0});

  /// runUntil() on a flag that events set: the loop reads `stop` before
  /// the first event and after each event and tick, and calls nothing per
  /// event.
  bool runUntilFlag(const bool& stop, Cycle limit = ~Cycle{0});

  /// Destroys every pending event and drops every armed tick without
  /// running them. Owners call this before tearing down components whose
  /// resources pending actions still hold (pooled message handles release
  /// into their pool).
  void clear();

  /// Events and ticks executed; a tick counts as one dispatch.
  std::uint64_t eventsExecuted() const { return executed_; }
  /// Pending events and armed ticks.
  bool empty() const { return size_ == 0; }
  std::size_t pendingEvents() const { return size_; }

  /// Event tracer attached to this simulation, or nullptr (the default:
  /// tracing off costs one null check per instrumentation site). The
  /// tracer is owned by the caller (System wires SystemConfig::tracer in);
  /// it hangs off the kernel so every component that can schedule events
  /// can also trace them without extra constructor plumbing.
  EventTracer* tracer() const { return tracer_; }
  void setTracer(EventTracer* t) { tracer_ = t; }

 private:
  struct Event {
    Cycle when = 0;
    std::uint64_t order = 0;
    Action fn;              // captures stored inline — see kActionCapacityBytes
    Event* next = nullptr;  // bucket chain / free list
  };
  static_assert(sizeof(Event) == 128,
                "Event should stay exactly two cache lines; re-tune "
                "kActionCapacityBytes if a field changes");

  // Delays below kNearWindow go to the calendar; the window width matches
  // the bucket count so each bucket holds at most one distinct cycle.
  static constexpr Cycle kNearWindow = 64;
  static constexpr std::size_t kSlabEvents = 256;

  /// The loop behind run(), runUntil() and runUntilFlag(): reads
  /// `stopped()` before the first event and after each event and tick.
  template <class Stopped>
  bool runUntilStopped(const Stopped& stopped, Cycle limit);
  /// Executes the next event or tick if it falls at or before `limit`.
  bool runNext(Cycle limit);
  /// Ends a run the bound stopped: cycle `limit` is over.
  void finishAt(Cycle limit);
  void armTickFar(TickerId id, Cycle when);
  /// Runs the lowest pending ticker of the current phase.
  void runTicker();
  Event* allocEvent(Cycle when, Action fn);
  void releaseEvent(Event* e);
  /// Executes the earliest pending event; `t` must equal peekWhen().
  void dispatch(Cycle t);
  void pushBucket(Event* e);
  void insertBucketOrdered(Event* e);
  void pushHeap(Event* e);
  Event* popHeap();
  /// Time of the earliest pending event (~Cycle{0} if none).
  Cycle peekWhen() const;
  Cycle nextBucketTime() const;
  /// Earliest cycle with an armed ticker; some ticker must be armed.
  Cycle nextTickTime() const;

  std::array<Event*, kNearWindow> bucketHead_{};
  std::array<Event*, kNearWindow> bucketTail_{};
  std::uint64_t bucketMask_ = 0;  // bit i set iff bucketHead_[i] != nullptr
  std::array<std::uint64_t, kNearWindow> tickArms_{};  // tickers per bucket
  std::uint64_t tickBuckets_ = 0;  // bit i set iff tickArms_[i] != 0
  std::array<Ticker*, kMaxTickers> tickers_{};
  TickerId numTickers_ = 0;
  // The cycle whose tick phase began last, and its tickers still to run.
  Cycle phaseCycle_ = ~Cycle{0};
  std::uint64_t phasePending_ = 0;
  std::vector<Event*> heap_;      // min-heap on (when, order)
  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* freeList_ = nullptr;
  Cycle now_ = 0;
  std::uint64_t nextOrder_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t size_ = 0;  // pending events plus armed ticks
  EventTracer* tracer_ = nullptr;  // non-owning; see tracer()
};

}  // namespace dvmc
