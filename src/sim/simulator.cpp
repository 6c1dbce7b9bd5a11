#include "sim/simulator.hpp"

#include <bit>

namespace dvmc {

namespace {
constexpr Cycle kNoEvent = ~Cycle{0};
}  // namespace

Simulator::Event* Simulator::allocEvent(Cycle when, Action fn) {
  if (freeList_ == nullptr) {
    slabs_.emplace_back(new Event[kSlabEvents]);
    Event* slab = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabEvents; ++i) {
      slab[i].next = freeList_;
      freeList_ = &slab[i];
    }
  }
  Event* e = freeList_;
  freeList_ = e->next;
  e->when = when;
  e->fn = std::move(fn);
  e->next = nullptr;
  return e;
}

void Simulator::releaseEvent(Event* e) {
  e->fn.reset();
  e->next = freeList_;
  freeList_ = e;
}

void Simulator::pushBucket(Event* e) {
  const std::size_t idx = static_cast<std::size_t>(e->when % kNearWindow);
  // Events reach a bucket directly in scheduling order, so a plain tail
  // append keeps it FIFO (beginBlock puts earlier-scheduled ones in front).
  if (bucketHead_[idx] == nullptr) {
    bucketHead_[idx] = bucketTail_[idx] = e;
    bucketMask_ |= std::uint64_t{1} << idx;
  } else {
    bucketTail_[idx]->next = e;
    bucketTail_[idx] = e;
  }
}

void Simulator::pushSlot(Event* e) {
  const std::size_t slot =
      static_cast<std::size_t>(e->when / kNearWindow % kFarSlots);
  if (slotHead_[slot] == nullptr) {
    slotHead_[slot] = e;
    slotMask_ |= std::uint64_t{1} << slot;
  } else {
    slotTail_[slot]->next = e;
  }
  slotTail_[slot] = e;
}

Cycle Simulator::nextBucketTime() const {
  if (bucketMask_ == 0) return kNoEvent;
  // Every bucketed event lies in [now_, now_ + kNearWindow), so rotating the
  // occupancy mask to start at now_'s bucket turns "earliest event cycle"
  // into a count-trailing-zeros.
  const int base = static_cast<int>(now_ % kNearWindow);
  const std::uint64_t rotated = std::rotr(bucketMask_, base);
  return now_ + static_cast<Cycle>(std::countr_zero(rotated));
}

Cycle Simulator::nextTickTime() const {
  // Armed cycles lie in the same window as bucketed events.
  const int base = static_cast<int>(now_ % kNearWindow);
  const std::uint64_t rotated = std::rotr(tickBuckets_, base);
  return now_ + static_cast<Cycle>(std::countr_zero(rotated));
}

Cycle Simulator::nextBlockTime() const {
  // Every second-level event lies in a block after now_'s, at most kFarSlots
  // blocks out or in a later round of its slot, so the first nonempty slot
  // from the next block on names the earliest block that can hold one.
  const Cycle next = now_ / kNearWindow + 1;
  const int base = static_cast<int>(next % kFarSlots);
  const std::uint64_t rotated = std::rotr(slotMask_, base);
  return (next + static_cast<Cycle>(std::countr_zero(rotated))) * kNearWindow;
}

void Simulator::beginBlock(Cycle start) {
  // The block's events go in front of their cycles' buckets, each cycle's
  // chain in slot order. That is scheduling order, exactly:
  //  - an event enters the second level only when it is scheduled 64 or
  //    more cycles before its cycle, and the calendar only when scheduled
  //    fewer than 64 cycles before;
  //  - so every second-level event for cycle c was scheduled earlier than
  //    every calendar event for c;
  //  - a slot is append-only between block begins, so its chain, and each
  //    cycle's chain cut out of it, stays in scheduling order.
  // Events scheduled for the block from here on are appended behind.
  now_ = start;
  const std::size_t slot =
      static_cast<std::size_t>(start / kNearWindow % kFarSlots);
  const Cycle end = start + kNearWindow;
  Event* keepHead = nullptr;
  Event* keepTail = nullptr;
  std::uint64_t touched = 0;  // cycles whose spread chain has begun
  for (Event* e = slotHead_[slot]; e != nullptr;) {
    Event* next = e->next;
    if (e->when < end) {
      const std::size_t idx = static_cast<std::size_t>(e->when % kNearWindow);
      const std::uint64_t bit = std::uint64_t{1} << idx;
      if ((touched & bit) == 0) {
        spreadHead_[idx] = e;
        touched |= bit;
      } else {
        spreadTail_[idx]->next = e;
      }
      spreadTail_[idx] = e;
    } else {
      // A later round's event stays, in order.
      if (keepHead == nullptr) {
        keepHead = e;
      } else {
        keepTail->next = e;
      }
      keepTail = e;
    }
    e = next;
  }
  slotHead_[slot] = keepHead;
  if (keepHead == nullptr) {
    slotMask_ &= ~(std::uint64_t{1} << slot);
  } else {
    keepTail->next = nullptr;
    slotTail_[slot] = keepTail;
  }
  while (touched != 0) {
    const auto idx = static_cast<std::size_t>(std::countr_zero(touched));
    touched &= touched - 1;
    Event*& head = bucketHead_[idx];
    spreadTail_[idx]->next = head;
    if (head == nullptr) {
      bucketTail_[idx] = spreadTail_[idx];
      bucketMask_ |= std::uint64_t{1} << idx;
    }
    head = spreadHead_[idx];
  }
}

Simulator::TickerId Simulator::addTicker(Ticker& t) {
  DVMC_ASSERT(numTickers_ < kMaxTickers, "more tickers than arm-mask bits");
  tickers_[numTickers_] = &t;
  return numTickers_++;
}

void Simulator::armTickFar(TickerId id, Cycle when) {
  scheduleAt(when, [this, id] { armTick(id, now_); });
}

void Simulator::runTicker() {
  const int id = std::countr_zero(phasePending_);
  // Cleared first: an arm from the ticker itself goes to the next cycle.
  phasePending_ &= phasePending_ - 1;
  --size_;
  ++executed_;
  tickers_[static_cast<std::size_t>(id)]->tick();
}

void Simulator::scheduleAt(Cycle when, Action fn) {
  DVMC_ASSERT(when >= now_, "event scheduled in the past");
  Event* e = allocEvent(when, std::move(fn));
  if (when - now_ < kNearWindow) {
    pushBucket(e);
  } else {
    pushSlot(e);
  }
  ++size_;
}

void Simulator::dispatch(Cycle t) {
  now_ = t;
  const std::size_t idx = static_cast<std::size_t>(t % kNearWindow);
  Event* e = bucketHead_[idx];
  bucketHead_[idx] = e->next;
  if (bucketHead_[idx] == nullptr) {
    bucketTail_[idx] = nullptr;
    bucketMask_ &= ~(std::uint64_t{1} << idx);
  }
  --size_;
  ++executed_;
  // Move the action out and recycle the node first so reentrant schedules
  // (including ones that reuse this node) are safe.
  Action fn = std::move(e->fn);
  releaseEvent(e);
  fn();
}

void Simulator::clear() {
  tickArms_ = {};
  tickBuckets_ = 0;
  phasePending_ = 0;
  const auto release = [this](Event* e) {
    while (e != nullptr) {
      Event* next = e->next;
      releaseEvent(e);
      e = next;
    }
  };
  for (std::size_t i = 0; i < kNearWindow; ++i) {
    release(bucketHead_[i]);
    bucketHead_[i] = bucketTail_[i] = nullptr;
  }
  bucketMask_ = 0;
  for (std::size_t i = 0; i < kFarSlots; ++i) {
    release(slotHead_[i]);
    slotHead_[i] = slotTail_[i] = nullptr;
  }
  slotMask_ = 0;
  size_ = 0;
}

bool Simulator::runNext(Cycle limit) {
  // A begun phase finishes before anything else runs, so an event a ticker
  // schedules for the phase's cycle runs after it.
  if (phasePending_ != 0) {
    if (phaseCycle_ > limit) return false;
    runTicker();
    return true;
  }
  for (;;) {
    const Cycle eventT = nextBucketTime();
    const Cycle tickT = tickBuckets_ != 0 ? nextTickTime() : kNoEvent;
    const Cycle nearT = tickT < eventT ? tickT : eventT;
    if (slotMask_ != 0) {
      // A block begins before any event or tick of its cycles runs. A
      // begin runs nothing, so the caller's stop checks see only events
      // and ticks.
      const Cycle blockT = nextBlockTime();
      if (blockT <= nearT) {
        if (blockT > limit) return false;
        beginBlock(blockT);
        continue;
      }
    }
    if (nearT > limit) return false;
    if (tickT < eventT) {
      // Every event of cycle tickT has run: begin its tick phase.
      now_ = tickT;
      const std::size_t idx = static_cast<std::size_t>(tickT % kNearWindow);
      phaseCycle_ = tickT;
      phasePending_ = tickArms_[idx];
      tickArms_[idx] = 0;
      tickBuckets_ &= ~(std::uint64_t{1} << idx);
      runTicker();
      return true;
    }
    dispatch(eventT);
    return true;
  }
}

void Simulator::finishAt(Cycle limit) {
  if (limit == kNoEvent || now_ > limit) return;
  // Cycle `limit` is over, its tick phase included: an arm for it goes to
  // the next cycle.
  now_ = limit;
  phaseCycle_ = limit;
}

bool Simulator::step() {
  return size_ != 0 && runNext(kNoEvent);
}

std::uint64_t Simulator::run(Cycle limit) {
  // The inner loop is the single hottest path in the whole system. There
  // is deliberately no per-event tracer branch here — the tracer hangs off
  // the kernel for *components* to consult at their instrumentation sites.
  std::uint64_t n = 0;
  while (size_ != 0 && runNext(limit)) ++n;
  finishAt(limit);
  return n;
}

template <class Stopped>
bool Simulator::runUntilStopped(const Stopped& stopped, Cycle limit) {
  if (stopped()) return true;
  while (size_ != 0 && runNext(limit)) {
    if (stopped()) return true;
  }
  finishAt(limit);
  return false;
}

bool Simulator::runUntil(const std::function<bool()>& pred, Cycle limit) {
  return runUntilStopped(pred, limit);
}

bool Simulator::runUntilFlag(const bool& stop, Cycle limit) {
  return runUntilStopped([&stop] { return stop; }, limit);
}

}  // namespace dvmc
