#include "coherence/snoop_memory.hpp"

#include "common/assert.hpp"
#include "common/crc16.hpp"

namespace dvmc {

SnoopMemoryController::SnoopMemoryController(Simulator& sim,
                                             TorusNetwork& dataNet,
                                             NodeId node, MemoryMap map,
                                             CoherenceTimings timings,
                                             ErrorSink* sink)
    : HomeController(sim, dataNet, node, map, timings, sink) {}

NodeId SnoopMemoryController::cacheOwnerOf(Addr blk) const {
  auto it = state_.find(blk);
  return it == state_.end() ? kInvalidNode : it->second.ownerCache;
}

void SnoopMemoryController::onSnoop(const Message& msg) {
  const Addr blk = blockAddr(msg.addr);
  if (map_.homeOf(blk) != node_) return;  // not our slice

  HomeState& h = state_[blk];
  switch (msg.type) {
    case MsgType::kSnpGetS:
    case MsgType::kSnpGetM: {
      if (homeObserver_ != nullptr) {
        homeObserver_->onHomeRequest(blk, readMemory(blk));
      }
      // Memory answers while no cache owns the block; a cache owner
      // (possibly mid-writeback) supplies otherwise.
      const bool fromMemory = h.ownerCache == kInvalidNode;
      if (!h.awaitingWb) {
        grant(blk, msg, fromMemory);
      } else if (fromMemory || homeObserver_ != nullptr) {
        // A writeback is pending: memory's answer waits for its data, and
        // every grant notification waits with it in snoop order, so the
        // home observer sees the writeback before any grant ordered after
        // it. A request a cache answers leaves a notify-only entry.
        h.waiting.push_back(msg);
        h.waiting.back().fromMemory = fromMemory;
        if (fromMemory) cHeldForWb_.inc();
      }
      // A GetM transfers ownership to the requester at this order point.
      if (msg.type == MsgType::kSnpGetM) h.ownerCache = msg.src;
      break;
    }
    case MsgType::kSnpPutM:
      if (h.ownerCache == msg.src) {
        h.ownerCache = kInvalidNode;
        h.awaitingWb = true;
        h.wbFrom = msg.src;
        cPutM_.inc();
      } else {
        cStalePutM_.inc();  // ownership raced away; data discarded
        if (homeObserver_ != nullptr) {
          homeObserver_->onHomeWriteback(blk, msg.src, 0,
                                         /*accepted=*/false);
        }
      }
      break;
    default:
      break;  // non-coherence broadcasts are ignored
  }
}

void SnoopMemoryController::grant(Addr blk, const Message& req,
                                  bool fromMemory) {
  if (fromMemory && req.src != kInvalidNode) supplyData(blk, req.src);
  if (homeObserver_ != nullptr) {
    homeObserver_->onHomeGrant(
        blk, req.src, /*readWrite=*/req.type == MsgType::kSnpGetM, fromMemory,
        fromMemory ? hashBlock(readMemory(blk)) : std::uint16_t{0});
  }
}

void SnoopMemoryController::onMessage(const Message& msg) {
  if (msg.type != MsgType::kSnpWbData) {
    cUnexpectedData_.inc();
    return;
  }
  const Addr blk = blockAddr(msg.addr);
  if (map_.homeOf(blk) != node_) {
    cMisrouted_.inc();
    return;
  }
  DVMC_ASSERT(msg.hasData, "WbData without payload");
  memory().write(blk, msg.data);
  HomeState& h = state_[blk];
  if (homeObserver_ != nullptr) {
    homeObserver_->onHomeWriteback(blk, h.wbFrom, hashBlock(msg.data),
                                   /*accepted=*/true);
  }
  h.awaitingWb = false;
  std::vector<Message> waiting;
  waiting.swap(h.waiting);
  for (const Message& w : waiting) grant(blk, w, w.fromMemory);
  // Note: snooping homes do NOT raise onBlockUncached — they cannot see
  // read-only sharers, and evicting the MET entry while RO epochs are
  // still open poisons the re-seeded entry's last-RW time (a false
  // positive when the open epoch's inform finally arrives). MET entry
  // eviction is a directory-protocol feature here, matching the paper's
  // directory-centric MET sizing discussion.
}

void SnoopMemoryController::supplyData(Addr blk, NodeId dest) {
  replyFromMemory(MsgType::kSnpData, dest, blk);
  cDataSupplied_.inc();
}

}  // namespace dvmc
