// L2 cache + the protocol-independent core of its coherence controller.
//
// Both MOSI protocols share this core: the data/tag array, one MSHR per
// block with the CPU operations queued behind it, the writeback buffer,
// the hit path with the CET perform hook, fill completion (way stall and
// retry, upgrade in place, install with eviction), and BER invalidation.
// A protocol half (DirectoryCacheController, SnoopCacheController) adds
// its message handlers, its request and writeback messages, and the rule
// for when a transaction is complete. Callers outside the coherence layer
// see only this class.
//
// The controller drives the DVMC Cache Coherence checker through the
// EpochObserver interface: Read-Only epochs span S/O permission,
// Read-Write epochs span M permission, and every perform-time access is
// submitted for the CET rule-1 check.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "coherence/cache_array.hpp"
#include "coherence/interfaces.hpp"
#include "coherence/logical_clock.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "net/message.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class CacheHierarchy;

/// L2 access latency in cycles for loads, which pay the full array access.
inline constexpr Cycle kL2Latency = 12;
/// Store and atomic latency in cycles through the L2's write port (a hit in
/// M would hit an L1-class writeback structure in a real hierarchy).
inline constexpr Cycle kStoreLatency = 3;

class CoherentCache {
 public:
  virtual ~CoherentCache() = default;
  CoherentCache(const CoherentCache&) = delete;
  CoherentCache& operator=(const CoherentCache&) = delete;

  /// Issues a CPU operation; the client hears of it once it performed.
  void request(const CacheOp& op);

  void setClient(CacheClient* c) { client_ = c; }
  /// The hierarchy in front of this cache hears each loss of read
  /// permission.
  void setHierarchy(CacheHierarchy* h) { hierarchy_ = h; }
  void setEpochObserver(EpochObserver* o) { epochs_ = o; }
  EpochObserver* epochObserver() const { return epochs_; }
  LogicalClock& clock() { return clock_; }

  /// Observes every performed store/atomic (word address, value). The
  /// system layer installs one only while something listens: SafetyNet's
  /// architectural memory image, or a test's store audit hook.
  using StorePerformHook = std::function<void(Addr, std::uint64_t)>;
  void setStorePerformHook(StorePerformHook h) { storeHook_ = std::move(h); }

  /// Direct block lookup used by the L1 refill path and by tests; returns
  /// nullptr when the block has no read permission at L2.
  const DataBlock* peekReadable(Addr blk);

  /// True when the block is held with write permission (M): a store to it
  /// drains without a coherence transaction. Drives the relaxed write
  /// buffer's owned-blocks-first issue policy (Table 5).
  bool peekWritable(Addr blk);

  const MetricSet& stats() const { return stats_; }
  CacheArray& array() { return array_; }

  /// BER support: invalidate everything (epochs are closed; no informs are
  /// sent because the checker is reset around a recovery).
  void invalidateAll();

  /// Fault injection: CacheArray::injectStateFlip, telling the client when
  /// the flip grants write permission.
  std::optional<std::pair<Addr, MosiState>> injectStateFlip(
      std::uint64_t rand);

 protected:
  /// One outstanding transaction per block. The fields after `ops` belong
  /// to one protocol half each.
  struct Mshr {
    bool wantM = false;
    // `data` holds the block: a response carried it, or (directory) our own
    // copy was stashed when an Inv raced the upgrade.
    bool hasData = false;
    DataBlock data;
    std::vector<CacheOp> ops;  // CPU operations queued behind the miss
    // Directory.
    bool requestSent = false;   // false while stalled behind a writeback
    bool dataReceived = false;  // the Data response (maybe acks only) is in
    int acksExpected = -1;      // unknown until the Data message arrives
    int acksReceived = 0;
    // Snooping.
    bool ordered = false;
    std::uint64_t orderTime = 0;  // clock value at our request's snoop
    bool selfSupply = false;      // O -> M upgrade: our line has the data
    // Snoops ordered after our request, applied once it completes.
    std::vector<Message> deferredSnoops;
  };

  struct WbEntry {
    DataBlock data;
    bool stillOwner = true;  // snooping: no later GetM took ownership yet
  };

  CoherentCache(Simulator& sim, TorusNetwork& dataNet, NodeId node,
                MemoryMap map, CacheGeometry l2Geom, ErrorSink* sink,
                LogicalClock& clock);

  // --- the protocol half ---

  /// Sends (or holds back) the coherence request of the new MSHR `m`.
  virtual void issueRequest(Addr blk, Mshr& m) = 0;
  /// Logical time of the epochs a completing fill of `m` ends and begins.
  virtual std::uint64_t fillTime(const Mshr& m) = 0;
  /// A fill of an absent block has no data (reachable only under injected
  /// faults); the block installs zeroed.
  virtual void fillWithoutData(Addr blk) = 0;
  /// Runs after the fill installed: the protocol's completion messages
  /// around replayOps(m), in protocol order.
  virtual void finishFill(Addr blk, Mshr& m) = 0;
  /// An owned line moved into the writeback buffer: announce the writeback.
  virtual void sendWriteback(Addr blk, const DataBlock& d) = 0;

  /// Completes the transaction of `blk` once the protocol half saw its
  /// response in full: waits for a free way, then upgrades the line in
  /// place or installs it, and calls finishFill.
  void completeFill(Addr blk);
  /// Re-dispatches the CPU operations queued behind a completed MSHR; each
  /// either hits now or starts its own follow-up transaction.
  void replayOps(Mshr& m);
  /// Sends a data response carrying `d` on the data network.
  void supplyData(MsgType type, NodeId dest, Addr blk, const DataBlock& d,
                  int ackCount = 0);
  /// Tells the hierarchy that `blk` lost read permission; `hadCopy` says
  /// whether this cache held a readable copy just before.
  void notifyCpuLost(Addr blk, bool remoteWrite, bool hadCopy);

  Simulator& sim_;
  TorusNetwork& dataNet_;
  NodeId node_;
  MemoryMap map_;
  ErrorSink* sink_;
  CacheArray array_;
  EpochObserver* epochs_ = nullptr;
  FlatMap<Addr, Mshr> mshrs_;
  FlatMap<Addr, WbEntry> wbBuffer_;
  std::uint32_t gen_ = 0;  // bumped by invalidateAll (BER recovery)
  // Metric registry (stats_ must precede the handles). The protocol halves
  // register their own counters here too.
  MetricSet stats_;
  Counter cGetS_ = stats_.counter("l2.getS");
  Counter cGetM_ = stats_.counter("l2.getM");
  Counter cStrayData_ = stats_.counter("l2.strayData");

 private:
  void processOp(const CacheOp& op);
  void completeOp(const CacheOp& op, std::uint64_t value, bool performed);
  void startTransaction(Addr blk, bool wantM, const CacheOp& op);
  /// True when no transaction or writeback of `blk` is in flight, so its
  /// line may be evicted.
  bool evictable(Addr blk) const;
  void installWithEviction(Addr blk, MosiState st, const DataBlock& d,
                           std::uint64_t ltime);
  void evictLine(CacheLine& line);

  LogicalClock& clock_;
  CacheClient* client_ = nullptr;
  CacheHierarchy* hierarchy_ = nullptr;
  StorePerformHook storeHook_;
  Counter cHit_ = stats_.counter("l2.hit");
  Counter cMiss_ = stats_.counter("l2.miss");
  Counter cFillStall_ = stats_.counter("l2.fillStall");
  Counter cEvictClean_ = stats_.counter("l2.evictClean");
  Counter cEvictDirty_ = stats_.counter("l2.evictDirty");
  Counter cDataSupplied_ = stats_.counter("l2.dataSupplied");
};

}  // namespace dvmc
