// SafetyNet-style backward error recovery (Sorin et al.), as used by the
// paper's evaluation (any BER scheme, e.g. ReVive, would work).
//
// The system takes coordinated checkpoints every `interval` cycles and
// keeps the most recent `maxCheckpoints` of them; the recovery window is
// therefore interval * maxCheckpoints cycles (~100k cycles with the
// defaults, matching the paper's "SafetyNet recovery time frame"). A
// checkpoint captures the *architectural* state: the coherent memory image
// plus each core's program state and in-flight instruction list.
//
// SafetyNet owns the memory side of that state: the image (updated at every
// performed store), its undo log, and the checkpoint traffic. The system
// owns the rest and lends it through two callbacks: one snapshots the
// cores, one rolls every component back at once, the cores included, to an
// image plus core snapshots; network epochs and controller generations drop
// the stale in-flight messages and events.
//
// Checkpoints are *undo logs*, exactly as in the original SafetyNet design
// (incremental old-value logging): per checkpoint interval, SafetyNet logs
// the prior image of each block the first time a store dirties it, so
// taking a checkpoint costs O(blocks dirtied since the last one) instead of
// a deep copy of the whole image. Recovery walks the image back by applying
// undo records newest-first down to the target.
//
// Checkpoint traffic (log + coordination messages) is modeled explicitly
// because Figure 7 attributes measurable interconnect load to SafetyNet.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/data_block.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "cpu/core.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

struct BerConfig {
  Cycle interval = 20'000;
  std::size_t maxCheckpoints = 6;
};

class SafetyNet {
 public:
  /// Every block a performed store touched, by block address.
  using MemoryImage = FlatMap<Addr, DataBlock>;
  /// One snapshot per core, in node order.
  using CoreSnapshots = std::vector<Core::ArchSnapshot>;

  using SnapshotCoresFn = std::function<CoreSnapshots()>;
  /// Rolls the machine back: memory at every home to `image` (blocks it
  /// lacks return to their initial pattern), every core to its snapshot;
  /// caches, homes and checkers start over empty.
  using RollbackFn =
      std::function<void(const MemoryImage& image, const CoreSnapshots& cores)>;

  /// `net` carries the checkpoint traffic, among all of its nodes.
  SafetyNet(Simulator& sim, TorusNetwork& net, BerConfig cfg,
            SnapshotCoresFn snapshotCores, RollbackFn rollback);

  /// Begins periodic checkpointing (takes checkpoint 0 immediately).
  void start();

  /// A store or atomic performed (word address, value): the first store to
  /// a block since the last checkpoint logs the block's prior image, then
  /// the image takes the value.
  void onStorePerformed(Addr addr, std::uint64_t value);

  /// A checkpoint sync or log message reached its endpoint; it is counted
  /// and dropped.
  void onCheckpointMessage() { cMsgsReceived_.inc(); }

  /// Rolls back to the newest checkpoint strictly older than `errorCycle`.
  /// Returns false (no state change) when the error predates the window.
  bool recoverBefore(Cycle errorCycle);

  /// The architectural memory image: as of now, or after a recovery as of
  /// the restored checkpoint until stores perform again.
  const MemoryImage& image() const { return image_; }

  std::size_t checkpointCount() const { return checkpoints_.size(); }
  Cycle oldestCheckpoint() const {
    return checkpoints_.empty() ? 0 : checkpoints_.front().cycle;
  }
  Cycle newestCheckpoint() const {
    return checkpoints_.empty() ? 0 : checkpoints_.back().cycle;
  }
  Cycle recoveryWindow() const { return cfg_.interval * cfg_.maxCheckpoints; }
  std::uint64_t recoveries() const { return cRecoveries_.value(); }
  const MetricSet& stats() const { return stats_; }

 private:
  /// One old-value log entry: the image of `blk` at the *start* of the
  /// interval that first dirtied it (wasAbsent: no store had touched the
  /// block yet; undoing erases it, and the block reads as its initial
  /// pattern again).
  struct UndoRecord {
    Addr blk = 0;
    bool wasAbsent = false;
    DataBlock oldValue;
  };

  struct Checkpoint {
    Cycle cycle = 0;
    /// Undo segment for the interval ENDING at this checkpoint: old values
    /// (as of the previous checkpoint) of every block dirtied since then.
    /// Each block appears at most once.
    std::vector<UndoRecord> undo;
    CoreSnapshots cores;
  };

  void checkpointTick();
  /// Coordination and old-value log messages for the interval just sealed.
  void sendCheckpointTraffic();
  void applyUndo(const std::vector<UndoRecord>& undo);

  Simulator& sim_;
  TorusNetwork& net_;
  BerConfig cfg_;
  SnapshotCoresFn snapshotCores_;
  RollbackFn rollback_;
  std::deque<Checkpoint> checkpoints_;
  bool running_ = false;

  MemoryImage image_;
  // Undo log of the open (live) interval, and the blocks it already holds.
  std::vector<UndoRecord> liveUndo_;
  FlatMap<Addr, bool> dirtySinceCkpt_;
  std::uint64_t storesSinceCkpt_ = 0;

  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cCheckpoints_ = stats_.counter("ber.checkpoints");
  Counter cUndoBlocks_ = stats_.counter("ber.undoBlocksLogged");
  Counter cRecoveries_ = stats_.counter("ber.recoveries");
  Counter cWindowExpired_ = stats_.counter("ber.windowExpired");
  Counter cMsgsReceived_ = stats_.counter("ber.msgsReceived");
  Gauge gLiveCheckpoints_ = stats_.gauge("ber.liveCheckpoints");
  Histogram hRollbackDistance_ = stats_.histogram("ber.rollbackDistance");
};

}  // namespace dvmc
