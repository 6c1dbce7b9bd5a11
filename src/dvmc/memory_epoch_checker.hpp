// Memory-side half of the Cache Coherence checker (Section 4.3).
//
// Each home memory controller keeps a Memory Epoch Table (MET) with, per
// block: the latest end time of any Read-Only epoch, the latest end time of
// any Read-Write epoch, and the CRC-16 of the block at the end of the
// latest Read-Write epoch (48 bits per entry). Incoming Inform-Epochs are
// sorted by epoch begin time in a fixed-capacity priority queue. The
// earliest-begin entry is processed once it has rested `informSortDelay`
// cycles (one deadline timer per MET, armed at the top's deadline) or when
// the capacity bound pushes it out; when an entry is processed the
// checker verifies
//   (a) no illegal overlap — a Read-Only epoch must not begin before the
//       latest Read-Write end; a Read-Write epoch must not begin before
//       either latest end;
//   (b) data propagation — the epoch's begin hash must equal the hash at
//       the end of the latest Read-Write epoch.
// Open-epoch bookkeeping (wraparound scrubbing) tracks announced-but-open
// epochs in a sharers bitmask / owner id, exactly as described in the
// paper, including the storage-sharing trick with an OpenEpoch bit.
#pragma once

#include <cstdint>
#include <vector>

#include "coherence/interfaces.hpp"
#include "coherence/logical_clock.hpp"
#include "common/crc16.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/wrap16.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "dvmc/dvmc_config.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class MemoryEpochChecker final : public HomeObserver {
 public:
  MemoryEpochChecker(Simulator& sim, NodeId node, const DvmcConfig& cfg,
                     ErrorSink* sink, LogicalClock& clock);

  // --- HomeObserver ---
  void onHomeRequest(Addr blk, const DataBlock& memData) override;
  void onBlockUncached(Addr blk) override;

  /// Inform-Epoch / Inform-Open-Epoch / Inform-Closed-Epoch arrival.
  void onInform(const Message& msg);

  /// Processes everything still buffered in the priority queue.
  void drain();

  /// Clears all state (BER recovery).
  void reset();

  const MetricSet& stats() const { return stats_; }
  std::size_t metEntries() const { return met_.size(); }
  std::size_t peakMetEntries() const {
    return static_cast<std::size_t>(gEntries_.peak());
  }
  std::size_t queuedInforms() const { return queue_.size(); }

  /// Modeled MET storage (48 bits per entry, Section 6.3).
  static std::size_t modeledBitsPerEntry() { return 48; }

  /// Forensics dump: MET occupancy, inform-queue depth, and the focus
  /// block's epoch row (latest RO/RW end times, end-of-RW CRC-16 hash,
  /// open-epoch sharers/owner) — the state a DVCC violation is judged
  /// against.
  void dumpForensics(Json& out, Addr focus) const;

 private:
  struct MetEntry {
    LTime16 lastROEnd = 0;
    LTime16 lastRWEnd = 0;
    std::uint16_t lastRWEndHash = 0;
    bool hashValid = false;
    std::uint64_t openRO = 0;        // bitmask of nodes with open RO epochs
    NodeId openRW = kInvalidNode;    // node with an announced open RW epoch
    bool evictPending = false;       // home says uncached; informs buffered
  };

  struct QueuedInform {
    Message msg;
    std::uint64_t arrival;   // tie-break for equal begin times
    Cycle arrivalCycle = 0;  // enforces the minimum sorting residence
  };

  static bool beginsLater(const QueuedInform& a, const QueuedInform& b);
  bool topRested() const;
  void enqueue(const Message& msg);
  void popTick();
  void maybeEvict(Addr blk, MetEntry& e);
  void processOldest();
  void processInform(const Message& msg);
  void processClosed(const Message& msg);
  MetEntry* entryFor(Addr blk);
  void reportViolation(Addr blk, const char* what);

  Simulator& sim_;
  NodeId node_;
  DvmcConfig cfg_;
  ErrorSink* sink_;
  LogicalClock& clock_;
  FlatMap<Addr, MetEntry> met_;
  std::vector<QueuedInform> queue_;  // heap ordered by wrapping begin time
  std::uint64_t arrivalCounter_ = 0;
  bool timerArmed_ = false;  // one pending popTick at most

  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cEntryCreated_ = stats_.counter("met.entryCreated");
  Counter cEntryEvicted_ = stats_.counter("met.entryEvicted");
  Counter cEvictDeferred_ = stats_.counter("met.evictDeferred");
  Counter cInformsQueued_ = stats_.counter("met.informsQueued");
  Counter cInformsProcessed_ = stats_.counter("met.informsProcessed");
  // Informs the capacity bound pushed out before they rested.
  Counter cInformOverflow_ = stats_.counter("met.informOverflow");
  Counter cInformWithoutEntry_ = stats_.counter("met.informWithoutEntry");
  Counter cViolations_ = stats_.counter("met.violations");
  Counter cOpenEpochs_ = stats_.counter("met.openEpochs");
  Counter cClosedEpochs_ = stats_.counter("met.closedEpochs");
  Counter cClosedWithoutEntry_ = stats_.counter("met.closedWithoutEntry");
  Counter cClosedWithoutOpen_ = stats_.counter("met.closedWithoutOpen");
  Gauge gEntries_ = stats_.gauge("met.entries");
  Histogram hSortResidence_ = stats_.histogram("met.informSortResidence");
};

}  // namespace dvmc
