#include "ber/safety_net.hpp"

#include <algorithm>

#include "coherence/memory_storage.hpp"
#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace dvmc {

SafetyNet::SafetyNet(Simulator& sim, TorusNetwork& net, BerConfig cfg,
                     SnapshotCoresFn snapshotCores, RollbackFn rollback)
    : sim_(sim),
      net_(net),
      cfg_(cfg),
      snapshotCores_(std::move(snapshotCores)),
      rollback_(std::move(rollback)) {}

void SafetyNet::start() {
  if (running_) return;
  running_ = true;
  checkpointTick();
}

void SafetyNet::onStorePerformed(Addr addr, std::uint64_t value) {
  // Old-value logging: the first store to a block per interval logs the
  // block's prior image BEFORE the image changes.
  const Addr blk = blockAddr(addr);
  auto it = image_.find(blk);
  const bool absent = (it == image_.end());
  if (dirtySinceCkpt_.try_emplace(blk, true).second) {
    UndoRecord rec;
    rec.blk = blk;
    rec.wasAbsent = absent;
    if (!absent) rec.oldValue = it->second;
    liveUndo_.push_back(std::move(rec));
  }
  if (absent) {
    it = image_.emplace(blk, MemoryStorage::initialPattern(blk)).first;
  }
  it->second.write(blockOffset(addr), value);
  ++storesSinceCkpt_;
}

void SafetyNet::checkpointTick() {
  // Seal the live undo segment into the checkpoint: O(blocks dirtied since
  // the previous one), not O(image). The new interval starts with an empty
  // segment and dirty set.
  Checkpoint& c = checkpoints_.emplace_back();
  c.cycle = sim_.now();
  c.undo = std::move(liveUndo_);
  liveUndo_.clear();
  dirtySinceCkpt_.clear();
  c.cores = snapshotCores_();
  cCheckpoints_.inc();
  cUndoBlocks_.inc(c.undo.size());
  while (checkpoints_.size() > cfg_.maxCheckpoints) {
    checkpoints_.pop_front();  // oldest checkpoint validated & discarded
  }
  gLiveCheckpoints_.set(checkpoints_.size());
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kCheckpoint, "ber.checkpoint", 0, 0,
               cCheckpoints_.value());
  }
  sendCheckpointTraffic();
  sim_.schedule(cfg_.interval, [this] { checkpointTick(); });
}

void SafetyNet::sendCheckpointTraffic() {
  // Coordination: every node notifies every home slice (unicast control
  // messages); logging: ~one message per few performed stores, modeling
  // SafetyNet's old-value logging at the memory controllers.
  const std::size_t nodes = net_.numNodes();
  const std::uint64_t stores = storesSinceCkpt_;
  storesSinceCkpt_ = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    for (NodeId h = 0; h < nodes; ++h) {
      if (h == n) continue;
      Message m;
      m.type = MsgType::kCkptSync;
      m.src = n;
      m.dest = h;
      m.addr = 0;
      net_.send(m);
    }
  }
  const std::uint64_t logMsgs = std::min<std::uint64_t>(stores / 4, 64 * nodes);
  for (std::uint64_t i = 0; i < logMsgs; ++i) {
    Message m;
    m.type = MsgType::kCkptLog;
    m.src = static_cast<NodeId>(i % nodes);
    m.dest = static_cast<NodeId>((i * 7 + 3) % nodes);
    if (m.dest == m.src) m.dest = (m.dest + 1) % nodes;
    m.addr = 0;
    m.hasData = true;  // old-value log entries carry block data
    net_.send(m);
  }
}

void SafetyNet::applyUndo(const std::vector<UndoRecord>& undo) {
  // Within a segment every block appears exactly once, so the order inside
  // a segment is immaterial.
  for (const UndoRecord& rec : undo) {
    if (rec.wasAbsent) {
      image_.erase(rec.blk);
    } else {
      image_[rec.blk] = rec.oldValue;
    }
  }
}

bool SafetyNet::recoverBefore(Cycle errorCycle) {
  // Newest checkpoint strictly older than the error: anything taken at or
  // after the error may have captured corrupted state.
  std::size_t targetIdx = checkpoints_.size();
  for (std::size_t i = checkpoints_.size(); i-- > 0;) {
    if (checkpoints_[i].cycle < errorCycle) {
      targetIdx = i;
      break;
    }
  }
  if (targetIdx == checkpoints_.size()) {
    cWindowExpired_.inc();
    return false;
  }
  // Walk the image back to the target: the live segment undoes the stores
  // since the newest checkpoint, then each newer checkpoint's segment
  // undoes one more interval, newest first.
  applyUndo(liveUndo_);
  for (std::size_t i = checkpoints_.size(); i-- > targetIdx + 1;) {
    applyUndo(checkpoints_[i].undo);
  }
  liveUndo_.clear();
  dirtySinceCkpt_.clear();
  const Cycle target = checkpoints_[targetIdx].cycle;
  rollback_(image_, checkpoints_[targetIdx].cores);
  cRecoveries_.inc();
  hRollbackDistance_.add(sim_.now() - target);
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kRollback, "ber.rollback", 0, 0,
               sim_.now() - target);
  }
  // Checkpoints taken after the restored point describe a squashed future.
  while (checkpoints_.back().cycle > target) checkpoints_.pop_back();
  gLiveCheckpoints_.set(checkpoints_.size());
  return true;
}

}  // namespace dvmc
