// Full-system assembly: N nodes, each with a core, an L1+L2 hierarchy, a
// protocol controller (directory or snooping), a slice of memory, and —
// when enabled — the three DVMC checkers and SafetyNet BER. This is the
// simulated machine every experiment in the paper runs on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ber/safety_net.hpp"
#include "coherence/coherent_cache.hpp"
#include "coherence/directory_home.hpp"
#include "coherence/hierarchy.hpp"
#include "coherence/home_controller.hpp"
#include "coherence/snoop_memory.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "cpu/core.hpp"
#include "dvmc/cache_epoch_checker.hpp"
#include "dvmc/memory_epoch_checker.hpp"
#include "dvmc/reorder_checker.hpp"
#include "dvmc/shadow_checker.hpp"
#include "dvmc/verification_cache.hpp"
#include "net/broadcast_tree.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"
#include "system/config.hpp"
#include "verify/trace.hpp"
#include "workload/synthetic.hpp"

namespace dvmc {

class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs until the transaction target is reached (barnes: all cores
  /// finish) or maxCycles elapse; fills and returns the result. The stop
  /// condition is a flag the cores' progress keeps current, so the kernel
  /// tests one bool per event whatever the node count.
  RunResult run();

  /// Runs until `extraPred` becomes true as well (fault experiments); it
  /// is called after every event and tick. With an empty `extraPred` the
  /// kernel tests only run()'s flag.
  RunResult runUntil(const std::function<bool()>& extraPred);

  /// runUntil() bounded at cycle `until`: unless run()'s flag or
  /// `extraPred` ends it first, every event and tick up to and including
  /// `until` runs and now() is `until` on return, as after
  /// Simulator::run(until). Stop here to act at a cycle (inject a fault,
  /// sample): the first event at or past a cycle may come cycles later.
  RunResult runTo(Cycle until, const std::function<bool()>& extraPred = {});

  /// Closes the commit-trace capture: replays the finished capture once
  /// into cfg.trace.sink (begin, chunks, end). run() calls this; callers
  /// driving runUntil/collectResult by hand call it once the run is really
  /// over. Idempotent; a no-op when capture or the sink is off.
  void finishTraceCapture();

  /// End-of-run checker sweep: flushes every open epoch out of the CETs,
  /// lets the informs propagate, then drains the MET queues so epochs
  /// still open when the program ended get their data-propagation checks.
  /// Terminal: the flushed CETs stop checking, because cores that the
  /// transaction target stopped keep running while the informs propagate
  /// and their epoch events would hit emptied tables. Call only once,
  /// right before the final collectResult().
  void drainCheckers();

  // --- measurement control ---
  void resetNetStats();
  /// Sum of the cores' transactions(), and whether every core is done();
  /// both read counters the cores keep current.
  std::uint64_t totalTransactions() const;
  bool allCoresDone() const;

  // --- component access (tests, fault injection, benches) ---
  Simulator& sim() { return sim_; }
  ErrorSink& sink() { return sink_; }
  const SystemConfig& config() const { return cfg_; }
  TorusNetwork& dataNet() { return *torus_; }
  BroadcastTree* addrNet() { return tree_.get(); }
  Core& core(NodeId n) { return *nodes_[n].core; }
  CacheHierarchy& hierarchy(NodeId n) { return *nodes_[n].hierarchy; }
  CoherentCache& l2(NodeId n) { return *nodes_[n].l2; }
  HomeController& homeController(NodeId n) { return *nodes_[n].home; }
  /// The home as its protocol's type; nullptr under the other protocol.
  DirectoryHome* home(NodeId n) {
    return dynamic_cast<DirectoryHome*>(nodes_[n].home.get());
  }
  SnoopMemoryController* snoopMem(NodeId n) {
    return dynamic_cast<SnoopMemoryController*>(nodes_[n].home.get());
  }
  MemoryEpochChecker* met(NodeId n) { return nodes_[n].met.get(); }
  CacheEpochChecker* cet(NodeId n) { return nodes_[n].cet.get(); }
  ShadowCacheChecker* shadowCache(NodeId n) {
    return nodes_[n].shadowCache.get();
  }
  SafetyNet* ber() { return ber_.get(); }
  std::size_t numNodes() const { return cfg_.numNodes; }

  /// Test/tooling hook observing every performed store (runs in addition
  /// to the internal architectural-shadow bookkeeping).
  using StoreAuditHook =
      std::function<void(NodeId, Addr, std::size_t, std::uint64_t)>;
  void setStoreAuditHook(StoreAuditHook h) { auditHook_ = std::move(h); }

  /// SafetyNet plumbing (public for tests). captureSnapshot() seals the
  /// live undo segment into the returned checkpoint (O(blocks dirtied
  /// since the previous capture)); restoreSnapshot() rolls the shadow
  /// image back by replaying the live segment plus every newer
  /// checkpoint's segment, newest first.
  SafetyNet::Snapshot captureSnapshot();
  void restoreSnapshot(
      const SafetyNet::Snapshot& target,
      const std::vector<const SafetyNet::Snapshot*>& newerNewestFirst = {});

  /// The architectural memory image (performed-store shadow). Tests
  /// compare recovered state against independently reconstructed images.
  const FlatMap<Addr, DataBlock>& memoryImage() const { return shadow_; }

  /// Triggers BER recovery to the newest checkpoint before `errorCycle`.
  bool recover(Cycle errorCycle);

  /// Collects a RunResult from the current counters (run() calls this).
  RunResult collectResult(bool completed, Cycle cycles) const;

  /// Snapshot of every component's metric registry. Aggregated across
  /// nodes by default; with `perNode` each node's metrics additionally
  /// appear under a "nodeN/" prefix.
  MetricSnapshot metricsSnapshot(bool perNode = false) const;

 private:
  struct Node {
    std::unique_ptr<HomeController> home;
    std::unique_ptr<CoherentCache> l2;
    std::unique_ptr<CacheHierarchy> hierarchy;
    std::unique_ptr<CacheEpochChecker> cet;
    std::unique_ptr<MemoryEpochChecker> met;
    std::unique_ptr<ShadowCacheChecker> shadowCache;
    std::unique_ptr<ShadowHomeChecker> shadowHome;
    std::unique_ptr<VerificationCache> vc;
    std::unique_ptr<ReorderChecker> ar;
    std::unique_ptr<Core> core;
    std::unique_ptr<NetworkEndpoint> dataRouter;
    std::unique_ptr<NetworkEndpoint> addrRouter;
  };

  void buildNode(NodeId n);
  std::unique_ptr<ThreadProgram> makeProgram(NodeId n) const;
  void sendCheckpointTraffic();
  Json buildForensicsBundle(const Detection& d);

  // Interval sampler (--sample-every). Column names are resolved to raw
  // metric-slot pointers once at run start; each tick then sums a handful
  // of pointers instead of snapshotting every registry (net.* columns read
  // the torus accumulators directly).
  struct SampleColumn {
    enum class Net { kNone, kTotal, kCoherence, kInform, kCkpt };
    Net net = Net::kNone;
    std::vector<const std::uint64_t*> slots;
  };
  void buildSamplePlan();
  void scheduleSampleTick();

  SystemConfig cfg_;
  Simulator sim_;
  ErrorSink sink_;
  // Checkpoint messages are absorbed at the endpoint and only counted.
  // Per-system (not global): parallel runSeeds runs Systems concurrently.
  MetricSet ckptMsgStats_;
  Counter cCkptMsgsReceived_ = ckptMsgStats_.counter("ber.msgsReceived");
  MemoryMap map_;
  // Private tracer backing the forensics last-K window when the run has no
  // --trace tracer of its own (sized to the recorder's window).
  std::unique_ptr<EventTracer> ownedTracer_;
  // Interval sampler output (null unless cfg_.sampleEvery > 0).
  std::shared_ptr<TimeSeries> series_;
  // Commit-point recorder (null unless cfg_.trace.capture).
  std::unique_ptr<verify::TraceRecorder> traceRecorder_;
  bool traceSinkFed_ = false;  // finishTraceCapture() ran
  std::vector<SampleColumn> samplePlan_;
  std::unique_ptr<TorusNetwork> torus_;
  std::unique_ptr<BroadcastTree> tree_;
  std::vector<Node> nodes_;
  std::unique_ptr<SafetyNet> ber_;

  // Architectural memory shadow: updated at every performed store; the
  // basis for SafetyNet checkpoints.
  void armAutoRecovery();

  FlatMap<Addr, DataBlock> shadow_;
  // Undo log for the open (live) checkpoint interval: the first store to a
  // block since the last checkpoint records the block's prior state here
  // (maintained only when BER is enabled).
  std::vector<SafetyNet::UndoRecord> liveUndo_;
  FlatMap<Addr, bool> dirtySinceCkpt_;
  StoreAuditHook auditHook_;
  std::uint64_t storesSinceCkpt_ = 0;
  std::size_t handledDetections_ = 0;
  std::uint64_t unrecoverable_ = 0;
  bool recoveryPending_ = false;  // a burst-consuming check is scheduled
  bool started_ = false;

  // run()'s stop condition, summed from the cores' progress hooks.
  std::uint64_t transactions_ = 0;  // sum of Core::transactions()
  std::size_t coresDone_ = 0;       // cores whose done() holds
  bool targetStops_ = true;  // false for barrier workloads (barnes)
  bool stop_ = false;        // every core done, or the target reached
};

}  // namespace dvmc
