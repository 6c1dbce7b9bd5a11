#include "sim/simulator.hpp"

#include <algorithm>
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
  e->order = nextOrder_++;
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
  // schedule() hands out monotonically increasing order numbers, so a plain
  // tail append keeps each bucket sorted by order.
  if (bucketHead_[idx] == nullptr) {
    bucketHead_[idx] = bucketTail_[idx] = e;
    bucketMask_ |= std::uint64_t{1} << idx;
  } else {
    bucketTail_[idx]->next = e;
    bucketTail_[idx] = e;
  }
}

void Simulator::insertBucketOrdered(Event* e) {
  // Far-future events migrating out of the heap may carry a smaller order
  // number than same-cycle events appended directly; splice by order so
  // same-cycle execution still follows scheduling order. Same-cycle chains
  // are short, so the linear scan is cheap.
  const std::size_t idx = static_cast<std::size_t>(e->when % kNearWindow);
  Event* head = bucketHead_[idx];
  if (head == nullptr) {
    bucketHead_[idx] = bucketTail_[idx] = e;
    bucketMask_ |= std::uint64_t{1} << idx;
    return;
  }
  if (e->order < head->order) {
    e->next = head;
    bucketHead_[idx] = e;
    return;
  }
  Event* prev = head;
  while (prev->next != nullptr && prev->next->order < e->order) {
    prev = prev->next;
  }
  e->next = prev->next;
  prev->next = e;
  if (e->next == nullptr) bucketTail_[idx] = e;
}

void Simulator::pushHeap(Event* e) {
  const auto later = [](const Event* a, const Event* b) {
    if (a->when != b->when) return a->when > b->when;
    return a->order > b->order;
  };
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Simulator::Event* Simulator::popHeap() {
  const auto later = [](const Event* a, const Event* b) {
    if (a->when != b->when) return a->when > b->when;
    return a->order > b->order;
  };
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event* e = heap_.back();
  heap_.pop_back();
  e->next = nullptr;
  return e;
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

Cycle Simulator::peekWhen() const {
  const Cycle bucketT = nextBucketTime();
  const Cycle heapT = heap_.empty() ? kNoEvent : heap_.front()->when;
  return bucketT < heapT ? bucketT : heapT;
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
    pushHeap(e);
  }
  ++size_;
}

void Simulator::dispatch(Cycle t) {
  now_ = t;
  // Heap events whose cycle has arrived join the calendar so that events
  // from both structures interleave in global scheduling order.
  while (!heap_.empty() && heap_.front()->when == t) {
    insertBucketOrdered(popHeap());
  }
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
  for (std::size_t i = 0; i < kNearWindow; ++i) {
    for (Event* e = bucketHead_[i]; e != nullptr;) {
      Event* next = e->next;
      releaseEvent(e);
      e = next;
    }
    bucketHead_[i] = bucketTail_[i] = nullptr;
  }
  bucketMask_ = 0;
  for (Event* e : heap_) releaseEvent(e);
  heap_.clear();
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
  const Cycle eventT = peekWhen();
  if (tickBuckets_ != 0) {
    const Cycle tickT = nextTickTime();
    if (tickT < eventT) {
      if (tickT > limit) return false;
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
  }
  if (eventT > limit) return false;
  dispatch(eventT);
  return true;
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
