#include "ber/safety_net.hpp"

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace dvmc {

SafetyNet::SafetyNet(Simulator& sim, BerConfig cfg, CaptureFn capture,
                     RestoreFn restore, TrafficFn traffic)
    : sim_(sim),
      cfg_(cfg),
      capture_(std::move(capture)),
      restore_(std::move(restore)),
      traffic_(std::move(traffic)) {}

void SafetyNet::start() {
  if (running_) return;
  running_ = true;
  checkpointTick();
}

void SafetyNet::checkpointTick() {
  if (!running_) return;
  checkpoints_.push_back(capture_());
  cCheckpoints_.inc();
  cUndoBlocks_.inc(checkpoints_.back().undo.size());
  while (checkpoints_.size() > cfg_.maxCheckpoints) {
    checkpoints_.pop_front();  // oldest checkpoint validated & discarded
  }
  gLiveCheckpoints_.set(checkpoints_.size());
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kCheckpoint, "ber.checkpoint", 0, 0,
               cCheckpoints_.value());
  }
  if (traffic_) traffic_();
  sim_.schedule(cfg_.interval, [this] { checkpointTick(); });
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
  const Snapshot* target = &checkpoints_[targetIdx];
  // Undo segments newer than the target, newest first: the restorer walks
  // the memory image back one checkpoint interval per segment.
  std::vector<const Snapshot*> newer;
  newer.reserve(checkpoints_.size() - targetIdx - 1);
  for (std::size_t i = checkpoints_.size(); i-- > targetIdx + 1;) {
    newer.push_back(&checkpoints_[i]);
  }
  restore_(*target, newer);
  ++recoveries_;
  cRecoveries_.inc();
  hRollbackDistance_.add(sim_.now() - target->cycle);
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kRollback, "ber.rollback", 0, 0,
               sim_.now() - target->cycle);
  }
  // Checkpoints taken after the restored point describe a squashed future.
  while (!checkpoints_.empty() && checkpoints_.back().cycle > target->cycle) {
    checkpoints_.pop_back();
  }
  gLiveCheckpoints_.set(checkpoints_.size());
  return true;
}

}  // namespace dvmc
