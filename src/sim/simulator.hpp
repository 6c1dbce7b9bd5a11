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

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in cycles.
  Cycle now() const { return now_; }

  /// Schedules `fn` to run `delay` cycles from now (0 = later this cycle).
  void schedule(Cycle delay, Action fn) { scheduleAt(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at an absolute cycle (must not be in the past).
  void scheduleAt(Cycle when, Action fn);

  /// Executes the next event; returns false if the queue is empty.
  bool step();

  /// Runs until the event queue drains or `limit` cycles have elapsed.
  /// Returns the number of events executed.
  std::uint64_t run(Cycle limit = ~Cycle{0});

  /// Runs until `pred()` becomes true (checked after each event), the queue
  /// drains, or `limit` is reached. Returns true if pred was satisfied.
  bool runUntil(const std::function<bool()>& pred, Cycle limit = ~Cycle{0});

  /// runUntil() on a flag that events set: the loop reads `stop` before
  /// the first event and after each one, and calls nothing per event.
  bool runUntilFlag(const bool& stop, Cycle limit = ~Cycle{0});

  /// Destroys every pending event without running it. Owners call this
  /// before tearing down components whose resources pending actions still
  /// hold (pooled message handles release into their pool).
  void clear();

  std::uint64_t eventsExecuted() const { return executed_; }
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

  /// The loop behind runUntil() and runUntilFlag(): reads `stopped()`
  /// before the first event and after each one.
  template <class Stopped>
  bool runUntilStopped(const Stopped& stopped, Cycle limit);
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

  std::array<Event*, kNearWindow> bucketHead_{};
  std::array<Event*, kNearWindow> bucketTail_{};
  std::uint64_t bucketMask_ = 0;  // bit i set iff bucketHead_[i] != nullptr
  std::vector<Event*> heap_;      // min-heap on (when, order)
  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* freeList_ = nullptr;
  Cycle now_ = 0;
  std::uint64_t nextOrder_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t size_ = 0;
  EventTracer* tracer_ = nullptr;  // non-owning; see tracer()
};

}  // namespace dvmc
