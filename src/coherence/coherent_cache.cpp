#include "coherence/coherent_cache.hpp"

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace dvmc {

namespace {

/// Retry interval for a fill that found every way in its set
/// mid-transaction (the MSHR holds the response until a way frees).
constexpr Cycle kFillRetryCycles = 8;

}  // namespace

CoherentCache::CoherentCache(Simulator& sim, TorusNetwork& dataNet,
                             NodeId node, MemoryMap map, CacheGeometry l2Geom,
                             ErrorSink* sink, LogicalClock& clock)
    : sim_(sim),
      dataNet_(dataNet),
      node_(node),
      map_(map),
      sink_(sink),
      array_(l2Geom),
      clock_(clock) {}

const DataBlock* CoherentCache::peekReadable(Addr blk) {
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) return &line->data;
  return nullptr;
}

bool CoherentCache::peekWritable(Addr blk) {
  CacheLine* line = array_.find(blk);
  return line != nullptr && mosiCanWrite(line->state);
}

void CoherentCache::request(const CacheOp& op) {
  // Loads pay the full L2 array access; stores and atomics drain through
  // the dedicated write port.
  const bool writePath = op.kind == CacheOp::Kind::kStore ||
                         op.kind == CacheOp::Kind::kAtomicSwap ||
                         op.kind == CacheOp::Kind::kAtomicCas;
  const Cycle lat = writePath ? kStoreLatency : kL2Latency;
  sim_.schedule(lat, [this, op, g = gen_] {
    if (g != gen_) return;  // squashed by BER recovery
    processOp(op);
  });
}

void CoherentCache::processOp(const CacheOp& op) {
  const Addr blk = blockAddr(op.addr);

  // A transaction is already in flight: queue behind it.
  auto mit = mshrs_.find(blk);
  if (mit != mshrs_.end()) {
    mit->second.ops.push_back(op);
    return;
  }

  CacheLine* line = array_.find(blk);
  const bool needsWrite = op.kind == CacheOp::Kind::kStore ||
                          op.kind == CacheOp::Kind::kAtomicSwap ||
                          op.kind == CacheOp::Kind::kAtomicCas ||
                          op.kind == CacheOp::Kind::kPrefetchM;

  if (line != nullptr && mosiCanRead(line->state) &&
      (!needsWrite || mosiCanWrite(line->state))) {
    array_.touch(*line, sink_, node_, sim_.now());
    cHit_.inc();
    const std::size_t off = blockOffset(op.addr);
    switch (op.kind) {
      case CacheOp::Kind::kLoad:
      case CacheOp::Kind::kReplayLoad:
        completeOp(op, line->data.read(off), op.countsAsPerform);
        return;
      case CacheOp::Kind::kStore:
        line->data.write(off, op.value);
        if (storeHook_) storeHook_(op.addr, op.value);
        completeOp(op, 0, true);
        return;
      case CacheOp::Kind::kAtomicSwap: {
        const std::uint64_t old = line->data.read(off);
        line->data.write(off, op.value);
        if (storeHook_) storeHook_(op.addr, op.value);
        completeOp(op, old, true);
        return;
      }
      case CacheOp::Kind::kAtomicCas: {
        const std::uint64_t old = line->data.read(off);
        if (old == op.compare) {
          line->data.write(off, op.value);
          if (storeHook_) storeHook_(op.addr, op.value);
        }
        completeOp(op, old, true);
        return;
      }
      case CacheOp::Kind::kPrefetchM:
        return;  // the permission was the point; nobody waits for it
    }
  }

  cMiss_.inc();
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kCoherence,
               needsWrite ? "l2.missM" : "l2.missS", node_, blk, 0);
  }
  startTransaction(blk, needsWrite, op);
}

void CoherentCache::completeOp(const CacheOp& op, std::uint64_t value,
                               bool performed) {
  if (performed && epochs_ != nullptr) {
    const bool isWrite = op.kind == CacheOp::Kind::kStore ||
                         op.kind == CacheOp::Kind::kAtomicSwap ||
                         op.kind == CacheOp::Kind::kAtomicCas;
    epochs_->onPerformAccess(blockAddr(op.addr), isWrite);
  }
  if (client_ != nullptr) client_->onCacheOpDone(op, value);
}

void CoherentCache::startTransaction(Addr blk, bool wantM,
                                     const CacheOp& op) {
  Mshr& m = mshrs_[blk];
  m.wantM = wantM;
  m.ops.push_back(op);
  issueRequest(blk, m);
}

bool CoherentCache::evictable(Addr blk) const {
  return mshrs_.count(blk) == 0 && wbBuffer_.count(blk) == 0;
}

void CoherentCache::completeFill(Addr blk) {
  // A fill needs a way. When every line in the set is itself
  // mid-transaction (upgrade MSHR, writeback awaiting its acknowledgment
  // or data turn), hardware holds the response in the MSHR until a way
  // frees; model that as a bounded-latency retry. The blocked transactions
  // never depend on this fill, so one of them always completes.
  CacheLine* line = array_.find(blk);
  const bool upgrade = line != nullptr && mosiCanRead(line->state);
  if (!upgrade &&
      array_.victim(blk, [this](Addr tag) { return evictable(tag); }) ==
          nullptr) {
    cFillStall_.inc();
    sim_.schedule(kFillRetryCycles, [this, blk, g = gen_] {
      if (g != gen_) return;  // squashed by BER recovery
      if (mshrs_.count(blk) != 0) completeFill(blk);
    });
    return;
  }

  // Move the MSHR out first: eviction and op replay below may start new
  // transactions for other blocks.
  Mshr m = std::move(mshrs_.at(blk));
  mshrs_.erase(blk);
  const std::uint64_t ltime = fillTime(m);

  if (upgrade) {
    // Upgrade path (S -> M or O -> M): close the Read-Only epoch, adopt the
    // freshest data, open the Read-Write epoch.
    DVMC_ASSERT(m.wantM, "GetS completion with a valid line");
    if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, ltime);
    if (m.hasData) line->data = m.data;
    line->state = MosiState::kM;
    array_.touch(*line, sink_, node_, sim_.now());
    if (epochs_ != nullptr) epochs_->onEpochBegin(blk, true, line->data, ltime);
  } else {
    if (!m.hasData) fillWithoutData(blk);
    installWithEviction(blk, m.wantM ? MosiState::kM : MosiState::kS, m.data,
                        ltime);
  }
  if (m.wantM && client_ != nullptr) client_->onWritePermission(blk);
  finishFill(blk, m);
}

void CoherentCache::replayOps(Mshr& m) {
  for (const CacheOp& op : m.ops) processOp(op);
}

void CoherentCache::installWithEviction(Addr blk, MosiState st,
                                        const DataBlock& d,
                                        std::uint64_t ltime) {
  CacheLine* victim =
      array_.victim(blk, [this](Addr tag) { return evictable(tag); });
  DVMC_ASSERT(victim != nullptr, "no evictable way in set");
  if (array_.valid(*victim)) evictLine(*victim);
  array_.install(*victim, blk, st, d);
  if (epochs_ != nullptr) {
    epochs_->onEpochBegin(blk, st == MosiState::kM, d, ltime);
  }
}

void CoherentCache::evictLine(CacheLine& line) {
  const Addr blk = array_.tag(line);
  if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line.data, clock_.now());
  if (mosiIsOwner(line.state)) {
    wbBuffer_[blk] = WbEntry{line.data, true};
    sendWriteback(blk, line.data);
    cEvictDirty_.inc();
  } else {
    cEvictClean_.inc();
  }
  array_.invalidate(line);
  notifyCpuLost(blk, /*remoteWrite=*/false);  // local eviction
}

void CoherentCache::supplyData(MsgType type, NodeId dest, Addr blk,
                               const DataBlock& d, int ackCount) {
  Message m;
  m.type = type;
  m.src = node_;
  m.dest = dest;
  m.addr = blk;
  m.hasData = true;
  m.data = d;
  m.ackCount = ackCount;
  dataNet_.send(m);
  cDataSupplied_.inc();
}

void CoherentCache::notifyCpuLost(Addr blk, bool remoteWrite) {
  if (cpu_ != nullptr) cpu_->onReadPermissionLost(blk, remoteWrite);
}

std::optional<std::pair<Addr, MosiState>> CoherentCache::injectStateFlip(
    std::uint64_t rand) {
  auto res = array_.injectStateFlip(rand);
  if (res && mosiCanWrite(res->second) && client_ != nullptr) {
    client_->onWritePermission(res->first);
  }
  return res;
}

void CoherentCache::invalidateAll() {
  array_.invalidateAll();
  mshrs_.clear();
  wbBuffer_.clear();
  ++gen_;  // squash scheduled controller events from the rolled-back past
}

}  // namespace dvmc
