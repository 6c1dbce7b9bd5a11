#include "coherence/hierarchy.hpp"

#include "common/assert.hpp"

namespace dvmc {

CacheHierarchy::CacheHierarchy(Simulator& sim, CoherentCache& l2,
                               CacheGeometry l1Geom, ErrorSink* sink,
                               NodeId node)
    : sim_(sim), l2_(l2), sink_(sink), node_(node), l1_(l1Geom) {
  l2_.setHierarchy(this);
  l2_.setClient(this);
}

void CacheHierarchy::onReadPermissionLost(Addr blk, bool remoteWrite,
                                          bool hadCopy) {
  // Inclusion: whatever leaves L2 leaves L1 — for any reason.
  if (hadCopy) {
    if (CacheLine* line = l1_.find(blk)) l1_.invalidate(*line);
  }
#ifndef NDEBUG
  DVMC_ASSERT(l1_.find(blk) == nullptr,
              "the L1 holds a block its L2 held no readable copy of");
#endif
  if (cpu_ != nullptr) cpu_->onReadPermissionLost(blk, remoteWrite);
}

void CacheHierarchy::access(const CacheOp& op) {
  const bool isLoad = op.kind == CacheOp::Kind::kLoad ||
                      op.kind == CacheOp::Kind::kReplayLoad;
  if (!isLoad) {
    // Stores / atomics / prefetches go straight to L2 (write-through, no
    // write-allocate at L1).
    l2_.request(op);
    return;
  }
  // [this, op] takes 56 of Simulator::Action's 96 capture bytes, and this
  // fires for every load in the machine.
  sim_.schedule(kL1Latency, [this, op] {
    const bool isReplay = op.kind == CacheOp::Kind::kReplayLoad;
    CacheLine* line = l1_.find(blockAddr(op.addr));
    if (line != nullptr) {
      (isReplay ? cReplayHit_ : cHit_).inc();
      finishLoadFromL1(op, *line);
      return;
    }
    (isReplay ? cReplayMiss_ : cMiss_).inc();
    l2_.request(op);
  });
}

void CacheHierarchy::finishLoadFromL1(const CacheOp& op, CacheLine& line) {
  l1_.touch(line, sink_, node_, sim_.now());
  // The perform-time CET check fires even on an L1 hit: the CET tracks the
  // block's epoch regardless of which array satisfied the access.
  if (op.countsAsPerform && l2_.epochObserver() != nullptr) {
    l2_.epochObserver()->onPerformAccess(blockAddr(op.addr), false);
  }
  if (client_ != nullptr) {
    client_->onCacheOpDone(op, line.data.read(blockOffset(op.addr)));
  }
}

void CacheHierarchy::onCacheOpDone(const CacheOp& op, std::uint64_t value) {
  const Addr blk = blockAddr(op.addr);
  if (op.kind == CacheOp::Kind::kLoad ||
      op.kind == CacheOp::Kind::kReplayLoad) {
    // An L1 miss: refill the L1 with the block if the L2 still has read
    // permission.
    const DataBlock* data = l2_.peekReadable(blk);
    if (data != nullptr && l1_.find(blk) == nullptr) {
      CacheLine* victim = l1_.victim(blk, [](Addr) { return true; });
      DVMC_ASSERT(victim != nullptr, "L1 victim selection failed");
      l1_.install(*victim, blk, MosiState::kS, *data);
    }
  } else if (op.kind != CacheOp::Kind::kAtomicCas || value == op.compare) {
    // A store or atomic wrote the L2 copy: write it through to the L1 one.
    if (CacheLine* line = l1_.find(blk)) {
      line->data.write(blockOffset(op.addr), op.value);
    }
  }
  if (client_ != nullptr) client_->onCacheOpDone(op, value);
}

}  // namespace dvmc
