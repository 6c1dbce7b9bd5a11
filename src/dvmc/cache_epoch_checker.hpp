// Cache-side half of the Cache Coherence checker (Section 4.3).
//
// Maintains the Cache Epoch Table (CET): per cached block, the type of the
// current epoch (Read-Only / Read-Write), the 16-bit logical time and the
// CRC-16 data hash at the epoch's beginning. On every perform-time access
// it checks rule 1 (reads/writes happen only inside appropriate epochs);
// when an epoch ends it emits an Inform-Epoch message to the block's home
// memory controller.
//
// A 128-entry scrub FIFO guards against 16-bit timestamp wraparound: every
// epoch begin pushes a record; a periodic sweep inspects the head and, for
// epochs still open after `scrubAgeTicks` logical ticks, sends an
// Inform-Open-Epoch (the eventual end then sends a short
// Inform-Closed-Epoch that carries only the block address and end time).
#pragma once

#include <cstdint>
#include <functional>

#include "coherence/interfaces.hpp"
#include "coherence/logical_clock.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/ring_queue.hpp"
#include "common/wrap16.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "dvmc/dvmc_config.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

/// Scrub FIFO entries. Occupancy past this counts as cet.scrubFifoOverflow;
/// the simulated FIFO itself drops no record.
inline constexpr std::size_t kScrubFifoCapacity = 128;
/// Cycles between inspections of the scrub FIFO's head.
inline constexpr Cycle kScrubCheckPeriod = 4'096;

class CacheEpochChecker final : public EpochObserver {
 public:
  /// `sendInform` injects a message into the interconnect (the system layer
  /// binds it to the data network with dest = home node of the address).
  using SendFn = std::function<void(Message)>;

  CacheEpochChecker(Simulator& sim, NodeId node, const DvmcConfig& cfg,
                    ErrorSink* sink, SendFn sendInform);

  // --- EpochObserver ---
  void onEpochBegin(Addr blk, bool readWrite, const DataBlock& data,
                    std::uint64_t ltime) override;
  void onEpochEnd(Addr blk, const DataBlock& data,
                  std::uint64_t ltime) override;
  void onPerformAccess(Addr blk, bool isWrite) override;

  /// Closes every open epoch (drain at end of measurement) and stops the
  /// checker: the drain is terminal, so later epoch and perform events are
  /// ignored until reset().
  void flush(std::uint64_t ltime);

  /// Clears all state without sending informs (BER recovery).
  void reset();

  /// Fault injection into the checker itself: flips a bit in a resident
  /// CET entry's begin hash. The paper's claim under test: checker-hardware
  /// errors can cause false positives (an unnecessary recovery) but never
  /// compromise correctness. Returns false when the CET is empty.
  bool injectEntryCorruption(std::uint64_t rand);

  const MetricSet& stats() const { return stats_; }
  std::size_t openEpochs() const { return cet_.size(); }

  /// Forensics dump: CET occupancy, scrub-FIFO depth, and the focus
  /// block's epoch row (type, begin times, begin CRC-16 hash, epoch id).
  void dumpForensics(Json& out, Addr focus) const;

  /// Modeled CET storage (34 bits per cache line, Section 6.3).
  static std::size_t modeledBitsPerLine() { return 34; }

 private:
  struct CetEntry {
    bool readWrite = false;
    LTime16 begin16 = 0;
    std::uint64_t beginWide = 0;
    std::uint16_t beginHash = 0;
    bool openAnnounced = false;  // Inform-Open-Epoch already sent
    std::uint64_t epochId = 0;   // matches scrub FIFO records
    Cycle beginCycle = 0;        // wall-clock begin (event tracing)
  };

  struct ScrubRecord {
    Addr blk;
    std::uint64_t epochId;
    std::uint64_t beginWide;
  };

  void scrubSweep();
  void announceOpen(Addr blk, CetEntry& e);

  Simulator& sim_;
  NodeId node_;
  DvmcConfig cfg_;
  ErrorSink* sink_;
  SendFn send_;
  FlatMap<Addr, CetEntry> cet_;
  RingQueue<ScrubRecord> scrubFifo_;
  std::uint64_t nextEpochId_ = 1;
  std::uint64_t lastLtime_ = 0;  // latest logical time observed
  bool stopped_ = false;  // set by flush()

  // Metric registry: registered once here, plain slot increments on the
  // hot path (stats_ must precede the handles — initialization order).
  MetricSet stats_;
  Counter cBeginRO_ = stats_.counter("cet.beginRO");
  Counter cBeginRW_ = stats_.counter("cet.beginRW");
  Counter cDoubleBegin_ = stats_.counter("cet.doubleBegin");
  Counter cScrubOverflow_ = stats_.counter("cet.scrubFifoOverflow");
  Counter cInformOpen_ = stats_.counter("cet.informOpen");
  Counter cInformClosed_ = stats_.counter("cet.informClosed");
  Counter cInformEpoch_ = stats_.counter("cet.informEpoch");
  Counter cEndWithoutBegin_ = stats_.counter("cet.endWithoutBegin");
  Counter cAccessOutsideEpoch_ = stats_.counter("cet.accessOutsideEpoch");
  Counter cWriteInRO_ = stats_.counter("cet.writeInROEpoch");
  Counter cAccessChecks_ = stats_.counter("cet.accessChecks");
  Counter cInjectedCorruption_ = stats_.counter("cet.injectedCorruption");
  Gauge gOpenEpochs_ = stats_.gauge("cet.openEpochs");
};

}  // namespace dvmc
