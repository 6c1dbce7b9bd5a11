// SafetyNet-style backward error recovery (Sorin et al.), as used by the
// paper's evaluation (any BER scheme, e.g. ReVive, would work).
//
// The system takes coordinated checkpoints every `interval` cycles and
// keeps the most recent `maxCheckpoints` of them; the recovery window is
// therefore interval * maxCheckpoints cycles (~100k cycles with the
// defaults, matching the paper's "SafetyNet recovery time frame"). A
// checkpoint captures the *architectural* state: the coherent memory image
// (a shadow updated at every performed store) plus each core's program
// state and in-flight instruction list. Recovery rolls every component
// back and restarts the cores after a drain delay that lets stale
// in-flight messages land harmlessly.
//
// Checkpoints are *undo logs*, exactly as in the original SafetyNet design
// (incremental old-value logging): the system records, per checkpoint
// interval, the prior value of each block the first time it is dirtied, so
// taking a checkpoint costs O(blocks dirtied since the last one) instead of
// a deep copy of the whole memory image. Recovery reconstructs the rollback
// image by replaying undo records newest-first back to the target.
//
// Checkpoint traffic (log + coordination messages) is modeled explicitly
// because Figure 7 attributes measurable interconnect load to SafetyNet.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/data_block.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "cpu/core.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

struct BerConfig {
  Cycle interval = 20'000;
  std::size_t maxCheckpoints = 6;
  Cycle restartDrainDelay = 2'000;  // message-drain gap before cores restart
};

class SafetyNet {
 public:
  /// One old-value log entry: the state of `blk` in the performed-store
  /// shadow at the *start* of the interval that first dirtied it
  /// (wasAbsent: the block was not materialized yet — restore erases it;
  /// an absent block re-materializes to the same deterministic pattern).
  struct UndoRecord {
    Addr blk = 0;
    bool wasAbsent = false;
    DataBlock oldValue;
  };

  struct Snapshot {
    Cycle cycle = 0;
    /// Undo segment for the interval ENDING at this checkpoint: old values
    /// (as of the previous checkpoint) of every block dirtied since then.
    /// Each block appears at most once.
    std::vector<UndoRecord> undo;
    std::vector<Core::ArchSnapshot> cores;
  };

  using CaptureFn = std::function<Snapshot()>;
  /// Restores to `target`. `newerNewestFirst` holds every checkpoint taken
  /// after `target` (newest first): the restorer replays its own live undo
  /// segment, then each of these checkpoints' segments in that order, to
  /// walk the shadow image back to `target.cycle`.
  using RestoreFn = std::function<void(
      const Snapshot& target, const std::vector<const Snapshot*>& newerNewestFirst)>;
  using TrafficFn = std::function<void()>;  // emit log/coordination traffic

  SafetyNet(Simulator& sim, BerConfig cfg, CaptureFn capture,
            RestoreFn restore, TrafficFn traffic);

  /// Begins periodic checkpointing (takes checkpoint 0 immediately).
  void start();
  void stop() { running_ = false; }

  /// Rolls back to the newest checkpoint strictly older than `errorCycle`.
  /// Returns false (no state change) when the error predates the window.
  bool recoverBefore(Cycle errorCycle);

  std::size_t checkpointCount() const { return checkpoints_.size(); }
  Cycle oldestCheckpoint() const {
    return checkpoints_.empty() ? 0 : checkpoints_.front().cycle;
  }
  Cycle newestCheckpoint() const {
    return checkpoints_.empty() ? 0 : checkpoints_.back().cycle;
  }
  Cycle recoveryWindow() const { return cfg_.interval * cfg_.maxCheckpoints; }
  std::uint64_t recoveries() const { return recoveries_; }
  const MetricSet& stats() const { return stats_; }

 private:
  void checkpointTick();

  Simulator& sim_;
  BerConfig cfg_;
  CaptureFn capture_;
  RestoreFn restore_;
  TrafficFn traffic_;
  std::deque<Snapshot> checkpoints_;
  bool running_ = false;
  std::uint64_t recoveries_ = 0;

  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cCheckpoints_ = stats_.counter("ber.checkpoints");
  Counter cUndoBlocks_ = stats_.counter("ber.undoBlocksLogged");
  Counter cRecoveries_ = stats_.counter("ber.recoveries");
  Counter cWindowExpired_ = stats_.counter("ber.windowExpired");
  Gauge gLiveCheckpoints_ = stats_.gauge("ber.liveCheckpoints");
  Histogram hRollbackDistance_ = stats_.histogram("ber.rollbackDistance");
};

}  // namespace dvmc
