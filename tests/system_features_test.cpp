// Feature tests for the system layer: mid-run teardown, the run's stop
// condition, automatic recovery, write-buffer coalescing, MET entry
// eviction, traffic classification, logical clocks, L1 inclusion, and how
// a cache operation completes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "coherence/logical_clock.hpp"
#include "faults/injector.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

// A System destroyed mid-run still has pooled network and memory-reply
// messages in flight; the pending events holding them must die before the
// pools do (under ASan the old order was a heap-use-after-free).
TEST(Teardown, DestroysMidRunSystemOnBothProtocols) {
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    SystemConfig cfg = SystemConfig::withDvmc(p, ConsistencyModel::kTSO);
    cfg.numNodes = 8;
    cfg.workload = WorkloadKind::kOltp;
    cfg.seed = 3;
    auto sys = std::make_unique<System>(cfg);
    sys->runTo(5'000);
    EXPECT_FALSE(sys->sim().empty()) << protocolName(p);
    sys.reset();
  }
}

// ---------------------------------------------------------------------------
// Stop condition
// ---------------------------------------------------------------------------

// The predicate System::run() evaluated after every event before the cores
// kept counters: every core done, or, outside barrier workloads, the
// transaction target reached. Recomputed from every core on each call,
// which also counts the events after which System's counters disagreed.
struct ReferenceStop {
  System& sys;
  bool targetStops;
  std::uint64_t counterMismatches = 0;

  bool operator()() {
    std::uint64_t txns = 0;
    bool allDone = true;
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
      txns += sys.core(n).transactions();
      allDone = allDone && sys.core(n).done();
    }
    if (sys.totalTransactions() != txns || sys.allCoresDone() != allDone) {
      ++counterMismatches;
    }
    return allDone ||
           (targetStops && txns >= sys.config().targetTransactions);
  }
};

// Runs `sys`'s config twice: through System::run(), and through a
// reference loop that drives Simulator::runUntil with ReferenceStop. Both
// must stop on the same event, and the reference System's counters must
// agree with the cores after every event. With `injectAt` set, both first
// run to that cycle and take the same cache-state flip; transactions have
// completed by then, so a rollback to the cycle-0 checkpoint lowers the
// count. Returns the System::run() result.
RunResult expectSameStop(System& sys, bool targetStops, Cycle injectAt) {
  const SystemConfig& cfg = sys.config();
  System ref(cfg);
  ref.runUntil([] { return true; });  // starts the machine, runs no event
  ReferenceStop refStop{ref, targetStops};
  if (injectAt != 0) {
    sys.runTo(injectAt);
    ref.sim().runUntil(std::ref(refStop), injectAt);
    EXPECT_EQ(sys.sim().eventsExecuted(), ref.sim().eventsExecuted());
    EXPECT_GT(sys.totalTransactions(), 0u);
    FaultInjector inj(sys, 3);
    FaultInjector refInj(ref, 3);
    EXPECT_TRUE(inj.inject(FaultType::kCacheStateFlip));
    EXPECT_TRUE(refInj.inject(FaultType::kCacheStateFlip));
  }
  const RunResult r = sys.run();
  const bool refStopped =
      ref.sim().runUntil(std::ref(refStop), ref.sim().now() + cfg.maxCycles);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(refStopped);
  EXPECT_EQ(sys.sim().now(), ref.sim().now());
  EXPECT_EQ(sys.sim().eventsExecuted(), ref.sim().eventsExecuted());
  EXPECT_EQ(sys.totalTransactions(), ref.totalTransactions());
  EXPECT_EQ(sys.allCoresDone(), ref.allCoresDone());
  EXPECT_EQ(refStop.counterMismatches, 0u);
  return r;
}

SystemConfig stopConfig(Protocol p, WorkloadKind w) {
  SystemConfig cfg = SystemConfig::withDvmc(p, ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = w;
  cfg.seed = 5;
  cfg.maxCycles = 5'000'000;
  return cfg;
}

TEST(StopCondition, TargetStopsOnTheReferenceEvent) {
  SystemConfig cfg = stopConfig(Protocol::kDirectory, WorkloadKind::kOltp);
  cfg.targetTransactions = 60;
  System sys(cfg);
  expectSameStop(sys, /*targetStops=*/true, /*injectAt=*/0);
  EXPECT_GE(sys.totalTransactions(), 60u);
  EXPECT_FALSE(sys.allCoresDone());

  // The target still holds, so a second run() returns before any event.
  const std::uint64_t events = sys.sim().eventsExecuted();
  EXPECT_TRUE(sys.run().completed);
  EXPECT_EQ(sys.sim().eventsExecuted(), events);

  // The drain ignores run()'s stop condition: it runs its whole window
  // while the still-running cores tick every cycle.
  const Cycle before = sys.sim().now();
  sys.drainCheckers();
  EXPECT_EQ(sys.sim().now(), before + 5'000);
}

TEST(StopCondition, ZeroTargetStopsBeforeTheFirstEvent) {
  SystemConfig cfg = stopConfig(Protocol::kDirectory, WorkloadKind::kOltp);
  cfg.targetTransactions = 0;
  System sys(cfg);
  EXPECT_TRUE(sys.run().completed);
  EXPECT_EQ(sys.sim().eventsExecuted(), 0u);
}

TEST(StopCondition, FiniteProgramsStopWhenEveryCoreIsDone) {
  SystemConfig cfg = stopConfig(Protocol::kSnooping, WorkloadKind::kOltp);
  WorkloadParams p = workloadPreset(WorkloadKind::kOltp);
  p.maxTransactions = 6;
  cfg.workloadOverride = p;
  cfg.targetTransactions = 1'000'000;  // never reached
  System sys(cfg);
  expectSameStop(sys, /*targetStops=*/true, /*injectAt=*/0);
  EXPECT_TRUE(sys.allCoresDone());
  EXPECT_EQ(sys.totalTransactions(), 4u * 6u);
}

// A program ending in buffered stores becomes done in the write buffer's
// drain callback, not in a tick.
TEST(StopCondition, LastDrainedStoreStopsTheRun) {
  SystemConfig cfg = stopConfig(Protocol::kDirectory, WorkloadKind::kOltp);
  cfg.targetTransactions = 1'000'000;  // never reached
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    const Addr base = 0x400000 + Addr{n} * 0x10000;
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{
        Instr::compute(3), Instr::store(base, 1), Instr::store(base + 0x40, 2),
        Instr::store(base + 0x80, 3)});
  };
  System sys(cfg);
  expectSameStop(sys, /*targetStops=*/true, /*injectAt=*/0);
  EXPECT_TRUE(sys.allCoresDone());
}

TEST(StopCondition, BarnesStopsWhenEveryCoreIsDone) {
  SystemConfig cfg = stopConfig(Protocol::kDirectory, WorkloadKind::kBarnes);
  cfg.targetTransactions = 3;  // phases per thread
  System sys(cfg);
  expectSameStop(sys, /*targetStops=*/false, /*injectAt=*/0);
  EXPECT_TRUE(sys.allCoresDone());
}

TEST(StopCondition, RecoveryLowersTheCountsAndStillStopsOnTheReferenceEvent) {
  SystemConfig cfg = stopConfig(Protocol::kDirectory, WorkloadKind::kOltp);
  cfg.targetTransactions = 120;
  cfg.autoRecover = true;
  cfg.seed = 11;
  System sys(cfg);
  const RunResult r = expectSameStop(sys, /*targetStops=*/true, 4'000);
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_GT(r.metrics.value("cpu.restarts"), 0u);
}

// System::runTo stops at its cycle even when no event or tick falls on
// it: the only core computes for 500 cycles and sleeps meanwhile, while a
// predicate on now() overshoots to the compute's end.
TEST(StopCondition, RunToReachesACycleWithNoEvent) {
  SystemConfig cfg = SystemConfig::unprotected(Protocol::kDirectory,
                                               ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.programFactory = [](NodeId n) {
    return std::make_unique<ScriptedProgram>(
        n == 0 ? std::vector<Instr>{Instr::compute(500)}
               : std::vector<Instr>{});
  };
  System sys(cfg);
  const RunResult r = sys.runTo(300);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(sys.sim().now(), 300u);
  EXPECT_EQ(r.cycles, 300u);
  System ref(cfg);
  ref.runUntil([&] { return ref.sim().now() >= 300; });
  EXPECT_GT(ref.sim().now(), 300u);
  EXPECT_TRUE(sys.run().completed);
  EXPECT_EQ(sys.core(0).retired(), 1u);
}

// ---------------------------------------------------------------------------
// Automatic recovery
// ---------------------------------------------------------------------------

TEST(AutoRecovery, DetectionTriggersRollbackAndCompletion) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 200;
  cfg.autoRecover = true;
  cfg.dvmc.membarInjectionPeriod = 20'000;
  cfg.ber.interval = 10'000;
  cfg.maxCycles = 50'000'000;
  System sys(cfg);
  FaultInjector inj(sys, 7);
  sys.runTo(30'000);
  ASSERT_TRUE(inj.inject(FaultType::kMsgDrop));
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.detections, 1u);
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(r.unrecoverable, 0u);
}

TEST(AutoRecovery, SurvivesRepeatedFaults) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kApache;
  cfg.targetTransactions = 300;
  cfg.autoRecover = true;
  cfg.dvmc.membarInjectionPeriod = 20'000;
  cfg.ber.interval = 10'000;
  cfg.maxCycles = 100'000'000;
  System sys(cfg);
  FaultInjector inj(sys, 21);
  for (int i = 0; i < 3 && !sys.allCoresDone(); ++i) {
    sys.runTo(sys.sim().now() + 50'000);
    inj.inject(FaultType::kMsgDataCorrupt);
  }
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.unrecoverable, 0u);
}

// ---------------------------------------------------------------------------
// Write-buffer coalescing
// ---------------------------------------------------------------------------

TEST(WbCoalescing, RepeatedSameWordStoresCoalesceUnderPso) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kPSO);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 3'000'000;
  std::vector<Instr> prog;
  for (int i = 0; i < 30; ++i) prog.push_back(Instr::store(0x400000, i));
  prog.push_back(Instr::load(0x400000, 1));
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<ScriptedProgram>(prog);
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  EXPECT_GT(sys.core(0).stats().get("cpu.wbCoalesced"), 0u);
  auto& p = static_cast<ScriptedProgram&>(sys.core(0).program());
  EXPECT_EQ(p.results()[0].second, 29u);  // latest value survives
}

TEST(WbCoalescing, NeverAppliedToTsoOrderedStores) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 3'000'000;
  std::vector<Instr> prog;
  for (int i = 0; i < 30; ++i) prog.push_back(Instr::store(0x400000, i));
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<ScriptedProgram>(prog);
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  EXPECT_EQ(sys.core(0).stats().get("cpu.wbCoalesced"), 0u);
}

TEST(WbCoalescing, DisabledByConfig) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kPSO);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.cpu.wbCoalescing = false;
  cfg.maxCycles = 3'000'000;
  std::vector<Instr> prog;
  for (int i = 0; i < 20; ++i) prog.push_back(Instr::store(0x400000, i));
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<ScriptedProgram>(prog);
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  EXPECT_EQ(sys.core(0).stats().get("cpu.wbCoalesced"), 0u);
}

// ---------------------------------------------------------------------------
// MET entry eviction (paper: entries only for blocks present in some cache)
// ---------------------------------------------------------------------------

TEST(MetEviction, WritebackOfLastCopyEvictsEntry) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.l2 = {2, 2};
  cfg.l1 = {1, 1};
  cfg.maxCycles = 3'000'000;
  constexpr Addr kBlk = 0x400000;  // home: node 0
  std::vector<Instr> prog = {Instr::store(kBlk, 1)};
  for (int i = 1; i <= 8; ++i) {
    prog.push_back(Instr::load(kBlk + i * 2 * kBlockSizeBytes));
  }
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<ScriptedProgram>(prog);
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  // The eviction inform rests in the MET's sorting queue; let the queue
  // drain before checking that the entry went away.
  sys.sim().run(sys.sim().now() + 30'000);
  NodeId home = MemoryMap{2}.homeOf(kBlk);
  EXPECT_GT(sys.met(home)->stats().get("met.entryEvicted"), 0u);
  EXPECT_GT(sys.met(home)->peakMetEntries(), 0u);
}

TEST(MetEviction, ReaccessReseedsCleanly) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.l2 = {2, 2};
  cfg.l1 = {1, 1};
  cfg.maxCycles = 3'000'000;
  constexpr Addr kBlk = 0x400000;
  std::vector<Instr> prog = {Instr::store(kBlk, 5)};
  for (int i = 1; i <= 8; ++i) {
    prog.push_back(Instr::load(kBlk + i * 2 * kBlockSizeBytes));
  }
  prog.push_back(Instr::load(kBlk, 1));  // refetch after eviction
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<ScriptedProgram>(prog);
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  // The re-seeded entry must match the written-back data: no hash
  // violation on the fresh epoch.
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys.core(0).program());
  EXPECT_EQ(p.results()[0].second, 5u);
}

// ---------------------------------------------------------------------------
// Checker-hardware faults: false positives only, never incorrectness
// ---------------------------------------------------------------------------

TEST(CheckerFaults, CetCorruptionCausesFalsePositiveOnly) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 200;
  cfg.autoRecover = true;  // the false positive triggers a recovery
  cfg.ber.interval = 10'000;
  cfg.maxCycles = 50'000'000;
  System sys(cfg);
  FaultInjector inj(sys, 99);
  sys.runTo(30'000);
  ASSERT_TRUE(inj.inject(FaultType::kCheckerCetCorrupt));
  RunResult r = sys.runUntil([] { return false; });
  // The corrupted hash eventually reaches the MET inside an Inform-Epoch
  // and fails the data-propagation check: an unnecessary recovery, after
  // which the workload still completes correctly (the paper's claim).
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.detections, 1u) << "corruption never surfaced";
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(r.unrecoverable, 0u);
}

// ---------------------------------------------------------------------------
// Traffic classification
// ---------------------------------------------------------------------------

TEST(TrafficClasses, InformAndCkptBytesAccounted) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 100;
  RunResult r = runOnce(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.informBytes, 0u);
  EXPECT_GT(r.ckptBytes, 0u);
  EXPECT_GT(r.coherenceBytes, r.informBytes);
  EXPECT_EQ(r.totalNetBytes, r.coherenceBytes + r.informBytes + r.ckptBytes);
}

TEST(TrafficClasses, UnprotectedHasNoCheckerTraffic) {
  SystemConfig cfg = SystemConfig::unprotected(Protocol::kDirectory,
                                               ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 100;
  RunResult r = runOnce(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.informBytes, 0u);
  EXPECT_EQ(r.ckptBytes, 0u);
}

TEST(TrafficClasses, Classification) {
  EXPECT_EQ(trafficClassOf(MsgType::kGetS), TrafficClass::kCoherence);
  EXPECT_EQ(trafficClassOf(MsgType::kData), TrafficClass::kCoherence);
  EXPECT_EQ(trafficClassOf(MsgType::kSnpData), TrafficClass::kCoherence);
  EXPECT_EQ(trafficClassOf(MsgType::kInformEpoch), TrafficClass::kInform);
  EXPECT_EQ(trafficClassOf(MsgType::kInformOpenEpoch), TrafficClass::kInform);
  EXPECT_EQ(trafficClassOf(MsgType::kCkptLog), TrafficClass::kCkpt);
}

// ---------------------------------------------------------------------------
// Logical clocks
// ---------------------------------------------------------------------------

TEST(LogicalClocks, PhysicalClockDividesAndSkews) {
  Simulator sim;
  PhysicalLogicalClock a(sim, 16, 0);
  PhysicalLogicalClock b(sim, 16, 3);
  EXPECT_EQ(a.now(), 0u);
  sim.schedule(100, [] {});
  sim.run();
  EXPECT_EQ(a.now(), 100u / 16);
  EXPECT_EQ(b.now(), (100u + 3) / 16);
  // Causality bound: with skew < min network latency the reader can never
  // observe a smaller time than the writer did earlier.
  EXPECT_GE(b.now() + 1, a.now());
}

TEST(LogicalClocks, CountingClockTicks) {
  CountingClock c;
  EXPECT_EQ(c.now(), 0u);
  c.tick();
  c.tick();
  EXPECT_EQ(c.now(), 2u);
  c.tickTo(10);
  EXPECT_EQ(c.now(), 10u);
  c.tickTo(5);  // never goes backwards
  EXPECT_EQ(c.now(), 10u);
}

// ---------------------------------------------------------------------------
// L1 inclusion
// ---------------------------------------------------------------------------

TEST(L1Inclusion, InvalidationDropsL1Copy) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 3'000'000;
  constexpr Addr kBlk = 0x400000;
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) {
      // Load twice (second hits L1), then wait for the remote writer.
      return std::make_unique<ScriptedProgram>(std::vector<Instr>{
          Instr::load(kBlk), Instr::load(kBlk), Instr::compute(5000)});
    }
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{
        Instr::compute(1500), Instr::store(kBlk, 1)});
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  // After node 1's store, node 0's L1 must not hold the stale block.
  CacheLine* l1line = sys.hierarchy(0).l1().find(kBlk);
  EXPECT_TRUE(l1line == nullptr || !l1line->valid);
}

TEST(L1Inclusion, L1HitsReduceL2Pressure) {
  // A dependence-chained pointer-chase: each load is emitted only after
  // the previous one's value came back, so each sees the prior refill
  // (the OoO core would otherwise issue all fifty before the first lands).
  class LoadChain final : public ThreadProgram {
   public:
    std::optional<Instr> next() override {
      if (waiting_ || done_ >= 50) return std::nullopt;
      waiting_ = true;
      return Instr::load(0x400000, 1);
    }
    void onResult(std::uint64_t, std::uint64_t) override {
      waiting_ = false;
      ++done_;
    }
    bool finished() const override { return done_ >= 50; }
    std::uint64_t transactionsCompleted() const override { return done_; }
    std::unique_ptr<ThreadProgram> clone() const override {
      return std::make_unique<LoadChain>(*this);
    }

   private:
    bool waiting_ = false;
    int done_ = 0;
  };

  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 3'000'000;
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<LoadChain>();
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  const auto& st = sys.hierarchy(0).stats();
  EXPECT_GT(st.get("l1.hit"), 40u);
  EXPECT_LE(st.get("l1.miss"), 5u);
}

// ---------------------------------------------------------------------------
// Cache-op completion
// ---------------------------------------------------------------------------

// Records every completion the hierarchy hands to its client.
class RecordingClient final : public CacheClient {
 public:
  struct Done {
    CacheOp op;
    std::uint64_t value;
  };
  void onCacheOpDone(const CacheOp& op, std::uint64_t value) override {
    done.push_back(Done{op, value});
  }
  std::vector<Done> done;
};

constexpr Addr kOpAddr = 0x400008;

// Drives node 0's hierarchy directly, one op at a time, with the cores
// never started: each op must come back exactly once with its token, and
// the write-through L1 must serve the values the L2 holds.
void checkCompletions(Protocol protocol) {
  SystemConfig cfg =
      SystemConfig::unprotected(protocol, ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.programFactory = [](NodeId) -> std::unique_ptr<ThreadProgram> {
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  CacheHierarchy& mem = sys.hierarchy(0);
  RecordingClient client;
  mem.setClient(&client);

  std::uint64_t nextTag = 1;
  // Issues one op with a fresh token, runs the kernel dry, and returns the
  // op's value; a prefetch must not complete at all.
  auto issue = [&](CacheOp::Kind kind, std::uint64_t value = 0,
                   std::uint64_t compare = 0,
                   Addr addr = kOpAddr) -> std::uint64_t {
    CacheOp op;
    op.kind = kind;
    op.addr = addr;
    op.value = value;
    op.compare = compare;
    op.tag = nextTag++;
    op.gen = static_cast<std::uint32_t>(op.tag * 3);
    op.restartGen = static_cast<std::uint32_t>(op.tag * 7);
    const std::size_t before = client.done.size();
    mem.access(op);
    sys.sim().run();
    EXPECT_TRUE(sys.sim().empty());
    if (kind == CacheOp::Kind::kPrefetchM) {
      EXPECT_EQ(client.done.size(), before) << "a prefetch completed";
      return 0;
    }
    EXPECT_EQ(client.done.size(), before + 1) << "op " << op.tag;
    if (client.done.size() != before + 1) return ~std::uint64_t{0};
    const CacheOp& back = client.done.back().op;
    EXPECT_EQ(back.kind, op.kind);
    EXPECT_EQ(back.addr, op.addr);
    EXPECT_EQ(back.value, op.value);
    EXPECT_EQ(back.compare, op.compare);
    EXPECT_EQ(back.tag, op.tag);
    EXPECT_EQ(back.gen, op.gen);
    EXPECT_EQ(back.restartGen, op.restartGen);
    return client.done.back().value;
  };
  const MetricSet& st = mem.stats();
  using K = CacheOp::Kind;

  // A prefetch that misses in L2 completes silently.
  issue(K::kPrefetchM, 0, 0, kOpAddr + kBlockSizeBytes);

  // Stores write through; the first load misses in L1 and refills it.
  issue(K::kStore, 0x11);
  EXPECT_EQ(issue(K::kLoad), 0x11u);
  EXPECT_EQ(st.get("l1.miss"), 1u);
  EXPECT_EQ(issue(K::kLoad), 0x11u);
  EXPECT_EQ(st.get("l1.hit"), 1u);
  issue(K::kStore, 0x22);
  EXPECT_EQ(issue(K::kReplayLoad), 0x22u);
  EXPECT_EQ(st.get("l1.replayHit"), 1u);

  // A failing CAS returns the old value and leaves the L1 copy alone.
  EXPECT_EQ(issue(K::kAtomicCas, 0x33, /*compare=*/0x99), 0x22u);
  EXPECT_EQ(issue(K::kLoad), 0x22u);
  // A succeeding CAS and a swap update it.
  EXPECT_EQ(issue(K::kAtomicCas, 0x44, /*compare=*/0x22), 0x22u);
  EXPECT_EQ(issue(K::kLoad), 0x44u);
  EXPECT_EQ(issue(K::kAtomicSwap, 0x55), 0x44u);
  EXPECT_EQ(issue(K::kLoad), 0x55u);

  // A prefetch that hits in L2 completes silently too.
  issue(K::kPrefetchM);
  EXPECT_EQ(st.get("l1.miss"), 1u);
  EXPECT_EQ(st.get("l1.hit"), 4u);
  EXPECT_EQ(client.done.size(), 11u);
}

TEST(CacheOpCompletion, Directory) { checkCompletions(Protocol::kDirectory); }

TEST(CacheOpCompletion, Snooping) { checkCompletions(Protocol::kSnooping); }

}  // namespace
}  // namespace dvmc
