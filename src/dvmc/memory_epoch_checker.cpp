#include "dvmc/memory_epoch_checker.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace dvmc {

MemoryEpochChecker::MemoryEpochChecker(Simulator& sim, NodeId node,
                                       const DvmcConfig& cfg, ErrorSink* sink,
                                       LogicalClock& clock)
    : sim_(sim), node_(node), cfg_(cfg), sink_(sink), clock_(clock) {}

MemoryEpochChecker::MetEntry* MemoryEpochChecker::entryFor(Addr blk) {
  auto it = met_.find(blk);
  return it == met_.end() ? nullptr : &it->second;
}

void MemoryEpochChecker::onHomeRequest(Addr blk, const DataBlock& memData) {
  auto hit = met_.find(blk);
  if (hit != met_.end()) {
    hit->second.evictPending = false;  // cached again
    return;
  }
  // Fresh MET entry: the current logical time closes a fictitious
  // Read-Write epoch whose end hash is the block's memory image.
  MetEntry e;
  e.lastROEnd = clock_.now16();
  e.lastRWEnd = e.lastROEnd;
  e.lastRWEndHash = hashBlock(memData);
  e.hashValid = true;
  met_.emplace(blk, e);
  gEntries_.set(met_.size());
  cEntryCreated_.inc();
}

void MemoryEpochChecker::onBlockUncached(Addr blk) {
  auto it = met_.find(blk);
  if (it == met_.end()) return;
  it->second.evictPending = true;
  maybeEvict(blk, it->second);
}

void MemoryEpochChecker::maybeEvict(Addr blk, MetEntry& e) {
  if (!e.evictPending) return;
  // Keep the entry while informs for it are still buffered (their checks
  // would otherwise run against a freshly re-seeded entry) or while an
  // announced open epoch references it; eviction retries after each
  // processed inform.
  if (e.openRO != 0 || e.openRW != kInvalidNode) {
    cEvictDeferred_.inc();
    return;
  }
  for (const QueuedInform& q : queue_) {
    if (blockAddr(q.msg.addr) == blk) {
      cEvictDeferred_.inc();
      return;
    }
  }
  met_.erase(blk);
  gEntries_.set(met_.size());
  cEntryEvicted_.inc();
}

void MemoryEpochChecker::onInform(const Message& msg) {
  switch (msg.type) {
    case MsgType::kInformEpoch:
      enqueue(msg);
      return;
    case MsgType::kInformOpenEpoch:
      // Open/Closed announcements are processed immediately, outside the
      // sorting queue: the pair travels the same network path in order,
      // and queue-delaying the Open while the Close processes immediately
      // would wedge the open-epoch state whenever an announced epoch ends
      // within the sorting residence. The announced epoch is old by
      // construction (wraparound scrubbing), so its begin precedes any
      // queued inform and ordering is preserved.
      processInform(msg);
      return;
    case MsgType::kInformClosedEpoch:
      // Closes an epoch announced earlier; processed immediately.
      processClosed(msg);
      return;
    default:
      DVMC_FATAL("non-inform message delivered to MemoryEpochChecker");
  }
}

bool MemoryEpochChecker::beginsLater(const QueuedInform& a,
                                     const QueuedInform& b) {
  // Largest-on-top heap: "a < b" when a begins later.
  if (a.msg.epoch.begin != b.msg.epoch.begin) {
    return ltimeBefore(b.msg.epoch.begin, a.msg.epoch.begin);
  }
  return a.arrival > b.arrival;
}

bool MemoryEpochChecker::topRested() const {
  return sim_.now() - queue_.front().arrivalCycle >= cfg_.informSortDelay;
}

void MemoryEpochChecker::enqueue(const Message& msg) {
  queue_.push_back(QueuedInform{msg, arrivalCounter_++, sim_.now()});
  std::push_heap(queue_.begin(), queue_.end(), beginsLater);
  cInformsQueued_.inc();
  while (queue_.size() > cfg_.informQueueCapacity) {
    if (!topRested()) cInformOverflow_.inc();
    processOldest();
  }
  // Each inform rests in the queue for a bounded sorting delay before the
  // oldest (earliest-begin) entry may be processed; the residence window
  // absorbs network-latency skew between informs from different nodes so
  // that begin-time order is (almost) always restored before processing.
  // One timer per MET enforces it. The timer is unarmed only while the
  // queue is empty, so this inform is the top and sets the deadline.
  if (!timerArmed_) {
    timerArmed_ = true;
    sim_.schedule(cfg_.informSortDelay, [this] { popTick(); });
  }
}

void MemoryEpochChecker::popTick() {
  // Process every top entry that has rested, then re-arm at the new top's
  // rest deadline. A top that an overflow exposed may have been due before
  // this firing; it waited for it.
  while (!queue_.empty() && topRested()) processOldest();
  timerArmed_ = !queue_.empty();
  if (timerArmed_) {
    sim_.scheduleAt(queue_.front().arrivalCycle + cfg_.informSortDelay,
                    [this] { popTick(); });
  }
}

void MemoryEpochChecker::processOldest() {
  DVMC_ASSERT(!queue_.empty(), "processOldest on empty queue");
  std::pop_heap(queue_.begin(), queue_.end(), beginsLater);
  hSortResidence_.add(sim_.now() - queue_.back().arrivalCycle);
  const Message msg = queue_.back().msg;
  queue_.pop_back();
  processInform(msg);
}

void MemoryEpochChecker::drain() {
  while (!queue_.empty()) processOldest();
}

void MemoryEpochChecker::reportViolation(Addr blk, const char* what) {
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk, what});
  }
  cViolations_.inc();
}

void MemoryEpochChecker::processInform(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  MetEntry* e = entryFor(blk);
  if (e == nullptr) {
    // An inform for a block the home never saw requested: either a fault
    // (fabricated / misrouted message) or an inform that outlived its MET
    // entry. Create a fresh entry conservatively and continue.
    cInformWithoutEntry_.inc();
    e = &met_[blk];
    e->lastROEnd = 0;
    e->lastRWEnd = 0;
    e->hashValid = false;
    gEntries_.set(met_.size());
  }
  const EpochPayload& ep = msg.epoch;
  cInformsProcessed_.inc();
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kInform,
               ep.readWrite ? "met.informRW" : "met.informRO", node_, blk,
               msg.src);
  }

  // (a) overlap checks.
  if (ep.readWrite) {
    if (ltimeBefore(ep.begin, e->lastRWEnd)) {
      reportViolation(blk, "RW epoch overlaps previous RW epoch");
    }
    if (ltimeBefore(ep.begin, e->lastROEnd)) {
      reportViolation(blk, "RW epoch overlaps previous RO epoch");
    }
    if (e->openRO != 0 || e->openRW != kInvalidNode) {
      reportViolation(blk, "RW epoch overlaps an open epoch");
    }
  } else {
    if (ltimeBefore(ep.begin, e->lastRWEnd)) {
      reportViolation(blk, "RO epoch overlaps previous RW epoch");
    }
    if (e->openRW != kInvalidNode) {
      reportViolation(blk, "RO epoch overlaps an open RW epoch");
    }
  }

  // (b) data propagation: the block seen at epoch begin must match the end
  // of the latest Read-Write epoch.
  if (e->hashValid && ep.beginHash != e->lastRWEndHash) {
    reportViolation(blk, "data propagation hash mismatch");
  }

  if (msg.type == MsgType::kInformOpenEpoch) {
    if (ep.readWrite) {
      e->openRW = msg.src;
    } else {
      e->openRO |= (1ull << (msg.src % 64));
    }
    cOpenEpochs_.inc();
    return;
  }

  // Regular (closed) Inform-Epoch: fold the end time and hash in.
  if (ep.readWrite) {
    if (ltimeBefore(e->lastRWEnd, ep.end)) e->lastRWEnd = ep.end;
    if (ep.endHashValid) {
      e->lastRWEndHash = ep.endHash;
      e->hashValid = true;
    } else {
      e->hashValid = false;
    }
  } else {
    if (ltimeBefore(e->lastROEnd, ep.end)) e->lastROEnd = ep.end;
  }
  maybeEvict(blk, *e);
}

void MemoryEpochChecker::processClosed(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  MetEntry* e = entryFor(blk);
  if (e == nullptr) {
    cClosedWithoutEntry_.inc();
    return;
  }
  cClosedEpochs_.inc();
  if (msg.epoch.readWrite) {
    if (e->openRW != msg.src) {
      cClosedWithoutOpen_.inc();
    }
    e->openRW = kInvalidNode;
    if (ltimeBefore(e->lastRWEnd, msg.epoch.end)) {
      e->lastRWEnd = msg.epoch.end;
    }
    // The short Inform-Closed-Epoch carries no end hash (paper): the next
    // data-propagation check for this block must be skipped.
    e->hashValid = false;
  } else {
    e->openRO &= ~(1ull << (msg.src % 64));
    if (ltimeBefore(e->lastROEnd, msg.epoch.end)) {
      e->lastROEnd = msg.epoch.end;
    }
  }
  maybeEvict(blk, *e);
}

void MemoryEpochChecker::reset() {
  met_.clear();
  queue_.clear();
  gEntries_.set(0);
}

void MemoryEpochChecker::dumpForensics(Json& out, Addr focus) const {
  out.set("metEntries", Json::num(static_cast<std::uint64_t>(met_.size())))
      .set("queuedInforms",
           Json::num(static_cast<std::uint64_t>(queue_.size())));
  const Addr blk = blockAddr(focus);
  auto it = met_.find(blk);
  out.set("focusResident", Json::boolean(it != met_.end()));
  if (it == met_.end()) return;
  const MetEntry& e = it->second;
  Json row = Json::object();
  row.set("lastROEnd", Json::num(std::uint64_t{e.lastROEnd}))
      .set("lastRWEnd", Json::num(std::uint64_t{e.lastRWEnd}))
      .set("lastRWEndHash", Json::num(std::uint64_t{e.lastRWEndHash}))
      .set("hashValid", Json::boolean(e.hashValid))
      .set("openROMask", Json::num(e.openRO))
      .set("openRWNode",
           e.openRW == kInvalidNode ? Json() : Json::num(std::uint64_t{e.openRW}))
      .set("evictPending", Json::boolean(e.evictPending));
  out.set("focusEpochRow", std::move(row));
}

}  // namespace dvmc
