#include "coherence/hierarchy.hpp"

#include "common/assert.hpp"

namespace dvmc {

CacheHierarchy::CacheHierarchy(Simulator& sim, CoherentCache& l2,
                               CacheGeometry l1Geom, CoherenceTimings timings,
                               ErrorSink* sink, NodeId node)
    : sim_(sim),
      l2_(l2),
      timings_(timings),
      sink_(sink),
      node_(node),
      l1_(l1Geom, /*eccProtected=*/true) {
  l2_.setCpuNotifier(this);
}

void CacheHierarchy::onReadPermissionLost(Addr blk, bool remoteWrite) {
  // Inclusion: whatever leaves L2 leaves L1 — for any reason.
  CacheLine* line = l1_.find(blk);
  if (line != nullptr) {
    line->valid = false;
  }
  if (cpu_ != nullptr) cpu_->onReadPermissionLost(blk, remoteWrite);
}

void CacheHierarchy::access(const CacheOp& op, CacheOpCallback cb) {
  const bool isLoad = op.kind == CacheOp::Kind::kLoad ||
                      op.kind == CacheOp::Kind::kReplayLoad;

  if (isLoad) {
    // blk and isReplay are derived from `op` inside the event rather than
    // captured: [this, op, cb] is the exact inline-capacity budget of
    // Simulator::Action, and this fires for every load in the machine.
    sim_.schedule(timings_.l1Latency, [this, op, cb = std::move(cb)] {
      const bool isReplay = op.kind == CacheOp::Kind::kReplayLoad;
      CacheLine* line = l1_.find(blockAddr(op.addr));
      if (line != nullptr) {
        (isReplay ? cReplayHit_ : cHit_).inc();
        finishLoadFromL1(op, cb, *line);
        return;
      }
      (isReplay ? cReplayMiss_ : cMiss_).inc();
      forwardToL2(op, cb);
    });
    return;
  }

  // Stores / atomics / prefetches go straight to L2 (write-through, no
  // write-allocate at L1).
  CacheOpCallback wrapped = cb;
  if (op.kind == CacheOp::Kind::kStore ||
      op.kind == CacheOp::Kind::kAtomicSwap ||
      op.kind == CacheOp::Kind::kAtomicCas) {
    wrapped = [this, op, cb = std::move(cb)](const CacheOpResult& r) {
      const bool wrote = op.kind != CacheOp::Kind::kAtomicCas ||
                         r.value == op.compare;
      CacheLine* line = l1_.find(blockAddr(op.addr));
      if (wrote && line != nullptr) {
        line->data.write(blockOffset(op.addr), op.size, op.value);
      }
      if (cb) cb(r);
    };
  }
  l2_.request(op, std::move(wrapped));
}

void CacheHierarchy::finishLoadFromL1(const CacheOp& op,
                                      const CacheOpCallback& cb,
                                      CacheLine& line) {
  l1_.touch(line, sink_, node_, sim_.now());
  // The perform-time CET check fires even on an L1 hit: the CET tracks the
  // block's epoch regardless of which array satisfied the access.
  if (op.countsAsPerform && l2_.epochObserver() != nullptr) {
    l2_.epochObserver()->onPerformAccess(blockAddr(op.addr), false);
  }
  CacheOpResult r;
  r.tag = op.tag;
  r.value = line.data.read(blockOffset(op.addr), op.size);
  r.l1Hit = true;
  r.performLogical = l2_.clock().now();
  r.completedAt = sim_.now();
  if (cb) cb(r);
}

void CacheHierarchy::forwardToL2(const CacheOp& op, CacheOpCallback cb) {
  l2_.request(op, [this, op, cb = std::move(cb)](const CacheOpResult& r) {
    // Refill the L1 with the block if the L2 still has read permission.
    const Addr blk = blockAddr(op.addr);
    const DataBlock* data = l2_.peekReadable(blk);
    if (data != nullptr && l1_.find(blk) == nullptr) {
      CacheLine* victim =
          l1_.victim(blk, [](const CacheLine&) { return true; });
      DVMC_ASSERT(victim != nullptr, "L1 victim selection failed");
      l1_.install(*victim, blk, MosiState::kS, *data);
    }
    if (cb) cb(r);
  });
}

}  // namespace dvmc
