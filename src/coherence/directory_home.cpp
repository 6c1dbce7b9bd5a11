#include "coherence/directory_home.hpp"

#include "common/assert.hpp"
#include "common/crc16.hpp"

namespace dvmc {

DirectoryHome::DirectoryHome(Simulator& sim, TorusNetwork& net, NodeId node,
                             MemoryMap map, CoherenceTimings timings,
                             ErrorSink* sink)
    : HomeController(sim, net, node, map, timings, sink) {}

NodeId DirectoryHome::ownerOf(Addr blk) const {
  auto it = dir_.find(blk);
  return it == dir_.end() ? kInvalidNode : it->second.owner;
}

std::set<NodeId> DirectoryHome::sharersOf(Addr blk) const {
  auto it = dir_.find(blk);
  return it == dir_.end() ? std::set<NodeId>{} : it->second.sharers;
}

bool DirectoryHome::isBusy(Addr blk) const {
  auto it = dir_.find(blk);
  return it != dir_.end() && it->second.busy;
}

void DirectoryHome::onMessage(const Message& msg) {
  if (map_.homeOf(msg.addr) != node_) {
    // Misrouted (injected fault): a real controller's address decoder would
    // reject this; drop and count. DVMC detects the downstream consequence.
    cMisrouted_.inc();
    return;
  }
  const Addr blk = blockAddr(msg.addr);
  DirEntry& e = dir_[blk];

  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetM:
    case MsgType::kPutM:
      // All requests funnel through the per-block service queue; the busy
      // decision is made when the controller actually picks the request up
      // (deciding at arrival would let two near-simultaneous requests both
      // observe a non-busy block and race).
      e.pending.push_back(msg);
      sim_.schedule(timings_.ctrlLatency, [this, blk, g = gen_] {
        if (g != gen_) return;  // squashed by BER recovery
        serviceQueue(blk);
      });
      return;
    case MsgType::kUnblock:
      if (!e.busy) {
        cStrayUnblock_.inc();  // duplicated message fault
        return;
      }
      e.busy = false;
      serviceQueue(blk);
      return;
    default:
      DVMC_FATAL("unexpected message type at directory home");
  }
}

void DirectoryHome::serviceQueue(Addr blk) {
  DirEntry& e = dir_[blk];
  while (!e.busy && !e.pending.empty()) {
    const Message msg = e.pending.front();
    e.pending.pop_front();
    cServiced_.inc();
    process(msg, e);
    // GetS/GetM set busy (released by Unblock); PutM completes in place and
    // lets the loop keep draining.
  }
}

void DirectoryHome::process(const Message& msg, DirEntry& e) {
  switch (msg.type) {
    case MsgType::kGetS:
      handleGetS(msg, e);
      break;
    case MsgType::kGetM:
      handleGetM(msg, e);
      break;
    case MsgType::kPutM:
      handlePutM(msg, e);
      break;
    default:
      DVMC_FATAL("unexpected message in home process()");
  }
}

void DirectoryHome::handleGetS(const Message& msg, DirEntry& e) {
  const Addr blk = blockAddr(msg.addr);
  cGetS_.inc();
  if (homeObserver_ != nullptr) {
    homeObserver_->onHomeRequest(blk, readMemory(blk));
  }
  if (e.owner == msg.src) {
    // The registered owner re-requesting means its copy vanished without a
    // writeback — only possible under injected faults. Serve stale memory
    // data; the coherence checker's data-propagation rule flags it.
    e.owner = kInvalidNode;
    cOwnerReRequest_.inc();
  }
  if (e.owner != kInvalidNode) {
    Message fwd;
    fwd.type = MsgType::kFwdGetS;
    fwd.src = node_;
    fwd.dest = e.owner;
    fwd.addr = blk;
    fwd.requester = msg.src;
    send(fwd);
    cFwdGetS_.inc();
    if (homeObserver_ != nullptr) {
      homeObserver_->onHomeGrant(blk, msg.src, /*readWrite=*/false,
                                 /*fromMemory=*/false, 0);
    }
  } else {
    sendDataFromMemory(blk, msg.src, 0);
    if (homeObserver_ != nullptr) {
      homeObserver_->onHomeGrant(blk, msg.src, /*readWrite=*/false,
                                 /*fromMemory=*/true,
                                 hashBlock(readMemory(blk)));
    }
  }
  e.sharers.insert(msg.src);
  e.busy = true;
}

void DirectoryHome::handleGetM(const Message& msg, DirEntry& e) {
  const Addr blk = blockAddr(msg.addr);
  cGetM_.inc();
  if (homeObserver_ != nullptr) {
    homeObserver_->onHomeRequest(blk, readMemory(blk));
  }

  std::set<NodeId> invTargets = e.sharers;
  invTargets.erase(msg.src);
  if (e.owner != kInvalidNode) invTargets.erase(e.owner);
  const int ackCount = static_cast<int>(invTargets.size());

  if (e.owner != kInvalidNode && e.owner != msg.src) {
    Message fwd;
    fwd.type = MsgType::kFwdGetM;
    fwd.src = node_;
    fwd.dest = e.owner;
    fwd.addr = blk;
    fwd.requester = msg.src;
    fwd.ackCount = ackCount;
    send(fwd);
    cFwdGetM_.inc();
  } else if (e.owner == msg.src) {
    // O -> M upgrade: the requester already holds the latest data; send an
    // ack-count-only response.
    Message d;
    d.type = MsgType::kData;
    d.src = node_;
    d.dest = msg.src;
    d.addr = blk;
    d.ackCount = ackCount;
    d.hasData = false;
    send(d);
    cUpgradeAck_.inc();
  } else {
    sendDataFromMemory(blk, msg.src, ackCount);
  }

  for (NodeId t : invTargets) {
    Message inv;
    inv.type = MsgType::kInv;
    inv.src = node_;
    inv.dest = t;
    inv.addr = blk;
    inv.requester = msg.src;
    send(inv);
    cInv_.inc();
  }

  if (homeObserver_ != nullptr) {
    const bool fromMemory = e.owner == kInvalidNode;
    homeObserver_->onHomeGrant(
        blk, msg.src, /*readWrite=*/true, fromMemory,
        fromMemory ? hashBlock(readMemory(blk))
                   : static_cast<std::uint16_t>(0));
  }
  e.owner = msg.src;
  e.sharers.clear();
  e.busy = true;
}

void DirectoryHome::handlePutM(const Message& msg, DirEntry& e) {
  const Addr blk = blockAddr(msg.addr);
  Message reply;
  reply.src = node_;
  reply.dest = msg.src;
  reply.addr = blk;
  if (e.owner == msg.src) {
    DVMC_ASSERT(msg.hasData, "PutM without data");
    memory().write(blk, msg.data);
    e.owner = kInvalidNode;
    reply.type = MsgType::kPutAck;
    cPutM_.inc();
    if (homeObserver_ != nullptr) {
      homeObserver_->onHomeWriteback(blk, msg.src, hashBlock(msg.data),
                                     /*accepted=*/true);
    }
    if (e.sharers.empty() && homeObserver_ != nullptr) {
      // Note: silent S evictions make the sharer list conservative — the
      // home may believe sharers exist when they are gone, delaying MET
      // eviction, but never evicts an entry that is still live.
      homeObserver_->onBlockUncached(blk);
    }
  } else {
    // Ownership already transferred by a racing GetM; the writeback is
    // stale and the data must be discarded.
    reply.type = MsgType::kNackPutM;
    cNackPutM_.inc();
    if (homeObserver_ != nullptr) {
      homeObserver_->onHomeWriteback(blk, msg.src, hashBlock(msg.data),
                                     /*accepted=*/false);
    }
  }
  send(reply);
}

void DirectoryHome::sendDataFromMemory(Addr blk, NodeId dest, int ackCount) {
  replyFromMemory(MsgType::kData, dest, blk, ackCount);
  cMemData_.inc();
}

}  // namespace dvmc
