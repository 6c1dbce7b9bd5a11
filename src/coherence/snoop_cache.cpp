#include "coherence/snoop_cache.hpp"

#include "common/assert.hpp"

namespace dvmc {

SnoopCacheController::SnoopCacheController(Simulator& sim,
                                           BroadcastTree& addrNet,
                                           TorusNetwork& dataNet, NodeId node,
                                           MemoryMap map, CacheGeometry l2Geom,
                                           CoherenceTimings timings,
                                           ErrorSink* sink)
    : CoherentCache(sim, dataNet, node, map, l2Geom, timings, sink,
                    orderClock_),
      addrNet_(addrNet) {}

void SnoopCacheController::issueRequest(Addr blk, Mshr& m) {
  Message req;
  req.type = m.wantM ? MsgType::kSnpGetM : MsgType::kSnpGetS;
  req.src = node_;
  req.addr = blk;
  addrNet_.broadcast(req);
  (m.wantM ? cGetM_ : cGetS_).inc();
}

void SnoopCacheController::onSnoop(const Message& msg) {
  orderClock_.tick();
  const std::uint64_t ltime = orderClock_.now();
  const Addr blk = blockAddr(msg.addr);

  if (msg.src == node_) {
    // Our own request reached its order point.
    if (msg.type == MsgType::kSnpGetS || msg.type == MsgType::kSnpGetM) {
      auto it = mshrs_.find(blk);
      if (it == mshrs_.end()) {
        cStraySelfSnoop_.inc();  // duplicated broadcast fault
        return;
      }
      Mshr& m = it->second;
      m.ordered = true;
      m.orderTime = ltime;
      if (m.wantM) {
        CacheLine* line = array_.find(blk);
        if (line != nullptr && line->state == MosiState::kO) {
          // O -> M upgrade: we are the owner; nobody else supplies data.
          m.selfSupply = true;
        }
      }
      maybeComplete(blk);
    } else if (msg.type == MsgType::kSnpPutM) {
      auto wb = wbBuffer_.find(blk);
      if (wb != wbBuffer_.end()) {
        if (wb->second.stillOwner) {
          // Ownership returns to memory at this order point; ship the data.
          Message d;
          d.type = MsgType::kSnpWbData;
          d.src = node_;
          d.dest = map_.homeOf(blk);
          d.addr = blk;
          d.hasData = true;
          d.data = wb->second.data;
          dataNet_.send(d);
          cWbData_.inc();
        }
        wbBuffer_.erase(wb);
      }
    }
    return;
  }

  // Somebody else's request. If we have an ordered-but-incomplete
  // transaction on this block, the snoop logically follows our transaction
  // and must wait for our data.
  auto it = mshrs_.find(blk);
  if (it != mshrs_.end() && it->second.ordered) {
    it->second.deferredSnoops.push_back(msg);
    cDeferredSnoop_.inc();
    return;
  }
  applySnoop(msg, ltime);
}

void SnoopCacheController::applySnoop(const Message& msg,
                                      std::uint64_t ltime) {
  const Addr blk = blockAddr(msg.addr);
  CacheLine* line = array_.find(blk);

  switch (msg.type) {
    case MsgType::kSnpGetS:
      if (line != nullptr && mosiIsOwner(line->state)) {
        array_.touch(*line, sink_, node_, sim_.now());
        supplyData(MsgType::kSnpData, msg.src, blk, line->data);
        if (line->state == MosiState::kM) {
          if (epochs_ != nullptr) {
            epochs_->onEpochEnd(blk, line->data, ltime);
            epochs_->onEpochBegin(blk, false, line->data, ltime);
          }
          line->state = MosiState::kO;
        }
      } else if (auto wb = wbBuffer_.find(blk);
                 wb != wbBuffer_.end() && wb->second.stillOwner) {
        supplyData(MsgType::kSnpData, msg.src, blk, wb->second.data);
      }
      return;
    case MsgType::kSnpGetM:
      if (line != nullptr && mosiCanRead(line->state)) {
        if (mosiIsOwner(line->state)) {
          supplyData(MsgType::kSnpData, msg.src, blk, line->data);
        }
        if (epochs_ != nullptr) epochs_->onEpochEnd(blk, line->data, ltime);
        line->valid = false;
        line->state = MosiState::kI;
      } else if (auto wb = wbBuffer_.find(blk);
                 wb != wbBuffer_.end() && wb->second.stillOwner) {
        supplyData(MsgType::kSnpData, msg.src, blk, wb->second.data);
        wb->second.stillOwner = false;
      }
      // A remote writer is taking the block. Even with no line present
      // (silent eviction) the CPU may hold speculatively performed loads on
      // it, so the squash hint fires regardless of line presence.
      notifyCpuLost(blk, /*remoteWrite=*/true);
      return;
    default:
      return;  // memory handles writebacks
  }
}

void SnoopCacheController::onMessage(const Message& msg) {
  if (msg.type != MsgType::kSnpData) {
    cUnexpectedData_.inc();
    return;
  }
  const Addr blk = blockAddr(msg.addr);
  auto it = mshrs_.find(blk);
  if (it == mshrs_.end()) {
    cStrayData_.inc();
    return;
  }
  it->second.hasData = true;
  it->second.data = msg.data;
  maybeComplete(blk);
}

void SnoopCacheController::maybeComplete(Addr blk) {
  auto it = mshrs_.find(blk);
  DVMC_ASSERT(it != mshrs_.end(), "complete without MSHR");
  const Mshr& m = it->second;
  if (!m.ordered) return;
  if (!m.hasData && !m.selfSupply) return;
  // Snoops for this block keep deferring while the fill waits for a way.
  completeFill(blk);
}

void SnoopCacheController::fillWithoutData(Addr) {
  DVMC_FATAL("install without data payload");
}

void SnoopCacheController::finishFill(Addr, Mshr& m) {
  // Perform the queued CPU operations inside our epoch, then honor the
  // snoops that were ordered after our request.
  replayOps(m);
  for (const Message& snoop : m.deferredSnoops) {
    applySnoop(snoop, snoop.snoopOrder + 1);
  }
}

void SnoopCacheController::sendWriteback(Addr blk, const DataBlock&) {
  // The data follows on the data network once the PutM reaches its order
  // point (onSnoop).
  Message putm;
  putm.type = MsgType::kSnpPutM;
  putm.src = node_;
  putm.addr = blk;
  addrNet_.broadcast(putm);
}

}  // namespace dvmc
