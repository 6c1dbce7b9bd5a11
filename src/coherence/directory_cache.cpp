#include "coherence/directory_cache.hpp"

#include "common/assert.hpp"

namespace dvmc {

DirectoryCacheController::DirectoryCacheController(
    Simulator& sim, TorusNetwork& net, NodeId node, MemoryMap map,
    CacheGeometry l2Geom, ErrorSink* sink, std::unique_ptr<LogicalClock> clock)
    : CoherentCache(sim, net, node, map, l2Geom, sink, *clock),
      ownedClock_(std::move(clock)) {}

void DirectoryCacheController::issueRequest(Addr blk, Mshr& m) {
  if (wbBuffer_.count(blk) != 0) {
    // Our own writeback for this block is still in flight; wait for the
    // PutAck/Nack before re-requesting, so the home never sees the current
    // owner re-request its own block.
    cWbStall_.inc();
    return;
  }
  sendRequest(blk, m);
  m.requestSent = true;
}

void DirectoryCacheController::sendRequest(Addr blk, const Mshr& mshr) {
  sendToHome(mshr.wantM ? MsgType::kGetM : MsgType::kGetS, blk);
  (mshr.wantM ? cGetM_ : cGetS_).inc();
}

void DirectoryCacheController::sendToHome(MsgType type, Addr blk) {
  Message m;
  m.type = type;
  m.src = node_;
  m.dest = map_.homeOf(blk);
  m.addr = blk;
  dataNet_.send(m);
}

void DirectoryCacheController::onMessage(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  switch (msg.type) {
    case MsgType::kData: {
      auto it = mshrs_.find(blk);
      if (it == mshrs_.end()) {
        // Possible only under injected faults (duplicated or misrouted
        // message); drop it and let the checkers flag any consequence.
        cStrayData_.inc();
        return;
      }
      Mshr& m = it->second;
      m.dataReceived = true;
      m.acksExpected = msg.ackCount;
      if (msg.hasData) {
        m.hasData = true;
        m.data = msg.data;
      }
      maybeFinalize(blk);
      return;
    }
    case MsgType::kInvAck: {
      auto it = mshrs_.find(blk);
      if (it == mshrs_.end()) {
        // Possible only under injected faults (e.g., duplicated message).
        cStrayInvAck_.inc();
        return;
      }
      ++it->second.acksReceived;
      maybeFinalize(blk);
      return;
    }
    case MsgType::kFwdGetS:
      handleFwdGetS(msg);
      return;
    case MsgType::kFwdGetM:
      handleFwdGetM(msg);
      return;
    case MsgType::kInv:
      handleInv(msg);
      return;
    case MsgType::kPutAck:
    case MsgType::kNackPutM: {
      wbBuffer_.erase(blk);
      auto it = mshrs_.find(blk);
      if (it != mshrs_.end() && !it->second.requestSent) {
        sendRequest(blk, it->second);
        it->second.requestSent = true;
      }
      return;
    }
    default:
      DVMC_FATAL("unexpected message type at cache controller");
  }
}

void DirectoryCacheController::maybeFinalize(Addr blk) {
  auto it = mshrs_.find(blk);
  DVMC_ASSERT(it != mshrs_.end(), "finalize without MSHR");
  Mshr& m = it->second;
  if (!m.dataReceived) return;
  if (m.acksExpected >= 0 && m.acksReceived < m.acksExpected) return;
  completeFill(blk);
}

std::uint64_t DirectoryCacheController::fillTime(const Mshr&) {
  return clock().now();
}

void DirectoryCacheController::fillWithoutData(Addr blk) {
  // Ack-count-only upgrade with no local copy at all: the home believes
  // we are the owner, but our line left without a writeback — possible
  // only under injected faults (a state flip demoting M so the eviction
  // went out silently as clean, or a duplicated writeback resurrecting
  // stale ownership). An ownership grant without data for a block we do
  // not hold is a protocol invariant violation the controller can see
  // locally, so report it — a permission-only coherence checker has no
  // data hashes to catch the consequence otherwise. The zeroed block keeps
  // the machine running until recovery reacts.
  cUpgradeNoData_.inc();
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                   "ownership grant without data for an absent block"});
  }
}

void DirectoryCacheController::finishFill(Addr blk, Mshr& m) {
  sendToHome(MsgType::kUnblock, blk);
  replayOps(m);
}

void DirectoryCacheController::sendWriteback(Addr blk, const DataBlock& d) {
  Message putm;
  putm.type = MsgType::kPutM;
  putm.src = node_;
  putm.dest = map_.homeOf(blk);
  putm.addr = blk;
  putm.hasData = true;
  putm.data = d;
  dataNet_.send(putm);
}

void DirectoryCacheController::handleFwdGetS(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiIsOwner(line->state)) {
    array_.touch(*line, sink_, node_, sim_.now());
    supplyData(MsgType::kData, msg.requester, blk, line->data);
    if (line->state == MosiState::kM) {
      // M -> O: the Read-Write epoch ends, a Read-Only epoch begins.
      if (epochs_ != nullptr) {
        epochs_->onEpochEnd(blk, line->data, clock().now());
        epochs_->onEpochBegin(blk, false, line->data, clock().now());
      }
      line->state = MosiState::kO;
    }
    return;
  }
  auto wb = wbBuffer_.find(blk);
  if (wb != wbBuffer_.end()) {
    supplyData(MsgType::kData, msg.requester, blk, wb->second.data);
    return;
  }
  // Unreachable in a fault-free run: the home forwarded to us but we are
  // not the owner — a locally visible protocol invariant violation. Report
  // it (a permission-only coherence checker has no data hashes to catch
  // the fabricated payload downstream) and keep the system limping.
  cUnexpectedFwdGetS_.inc();
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                   "FwdGetS received for a block this node does not own"});
  }
  supplyData(MsgType::kData, msg.requester, blk,
             line != nullptr ? line->data : DataBlock{});
}

void DirectoryCacheController::handleFwdGetM(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) {
    array_.touch(*line, sink_, node_, sim_.now());
    supplyData(MsgType::kData, msg.requester, blk, line->data, msg.ackCount);
    if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, clock().now());
    array_.invalidate(*line);
    notifyCpuLost(blk, /*remoteWrite=*/true);  // a remote GetM took it
    return;
  }
  auto wb = wbBuffer_.find(blk);
  if (wb != wbBuffer_.end()) {
    supplyData(MsgType::kData, msg.requester, blk, wb->second.data,
               msg.ackCount);
    return;
  }
  // Same invariant violation as the FwdGetS case above, but for an
  // ownership transfer: the requester would install and dirty a fabricated
  // block, which only a data-hashing checker could catch later.
  cUnexpectedFwdGetM_.inc();
  if (sink_ != nullptr) {
    sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                   "FwdGetM received for a block this node does not own"});
  }
  supplyData(MsgType::kData, msg.requester, blk, DataBlock{}, msg.ackCount);
}

void DirectoryCacheController::handleInv(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);
  if (line != nullptr && mosiCanRead(line->state)) {
    if (auto it = mshrs_.find(blk); it != mshrs_.end()) {
      // The Inv raced our own outstanding transaction. If it was ordered
      // before the grant that gave us this copy (stale Inv from a slow
      // network), an ack-count-only upgrade response still expects us to
      // hold the data, and the home still listing us proves no writer
      // intervened since: stash our copy as the fill data unless a
      // response already carried some (a later one replaces it).
      Mshr& m = it->second;
      if (!m.hasData) {
        m.hasData = true;
        m.data = line->data;
      }
    }
    if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, clock().now());
    array_.invalidate(*line);
  }
  // An Inv after a silent S-eviction finds no line, but the CPU may still
  // hold speculatively performed loads on the block — the squash hint must
  // fire regardless of line presence.
  notifyCpuLost(blk, /*remoteWrite=*/true);
  Message ack;
  ack.type = MsgType::kInvAck;
  ack.src = node_;
  ack.dest = msg.requester;
  ack.addr = blk;
  dataNet_.send(ack);
}

}  // namespace dvmc
