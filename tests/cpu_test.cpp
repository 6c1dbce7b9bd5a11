// Processor pipeline tests: write-buffer semantics per model, membar
// stalls, SC store serialization, load speculation + squash, verification
// stage behavior, model switching, and ROB bookkeeping — all driven by
// scripted programs through a real memory system.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

constexpr Addr kA = 0x400000;
constexpr Addr kB = 0x480000;  // different home/block

SystemConfig config(ConsistencyModel m, bool dvmcOn = true) {
  SystemConfig cfg = dvmcOn
                         ? SystemConfig::withDvmc(Protocol::kDirectory, m)
                         : SystemConfig::unprotected(Protocol::kDirectory, m);
  cfg.numNodes = 2;
  cfg.berEnabled = false;
  cfg.maxCycles = 3'000'000;
  return cfg;
}

RunResult runScript(SystemConfig cfg, std::vector<Instr> prog,
                    System** sysOut = nullptr) {
  static std::unique_ptr<System> keeper;
  cfg.programFactory = [prog](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) return std::make_unique<ScriptedProgram>(prog);
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  keeper = std::make_unique<System>(cfg);
  RunResult r = keeper->run();
  if (sysOut != nullptr) *sysOut = keeper.get();
  return r;
}

TEST(CpuPipeline, RetiresEveryInstruction) {
  std::vector<Instr> prog;
  for (int i = 0; i < 50; ++i) prog.push_back(Instr::compute(2));
  System* sys = nullptr;
  RunResult r = runScript(config(ConsistencyModel::kTSO), prog, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sys->core(0).retired(), 50u);
}

TEST(CpuPipeline, StoreThenLoadForwardsInPipeline) {
  System* sys = nullptr;
  RunResult r = runScript(config(ConsistencyModel::kTSO),
                          {Instr::store(kA, 321), Instr::load(kA, 1)}, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(p.results().size(), 1u);
  EXPECT_EQ(p.results()[0].second, 321u);
}

TEST(CpuPipeline, LoadAfterStoreDifferentWordReadsMemory) {
  System* sys = nullptr;
  RunResult r = runScript(config(ConsistencyModel::kTSO),
                          {Instr::store(kA, 1), Instr::load(kA + 8, 2)},
                          &sys);
  ASSERT_TRUE(r.completed);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  EXPECT_EQ(p.results()[0].second,
            MemoryStorage::initialPattern(kA).read(8));
}

TEST(CpuPipeline, TsoWriteBufferHidesStoreLatency) {
  // Store-heavy program: TSO (buffered) must be significantly faster than
  // SC (stall per store) — the paper's Figure 3 "Base" effect.
  std::vector<Instr> prog;
  for (int i = 0; i < 40; ++i) {
    prog.push_back(Instr::store(kA + (i % 16) * kBlockSizeBytes * 4, i));
    prog.push_back(Instr::compute(1));
  }
  RunResult tso = runScript(config(ConsistencyModel::kTSO, false), prog);
  RunResult sc = runScript(config(ConsistencyModel::kSC, false), prog);
  ASSERT_TRUE(tso.completed);
  ASSERT_TRUE(sc.completed);
  EXPECT_LT(tso.cycles, sc.cycles);
}

TEST(CpuPipeline, ScStoresStillProduceCorrectValues) {
  System* sys = nullptr;
  std::vector<Instr> prog;
  for (int i = 0; i < 8; ++i) prog.push_back(Instr::store(kA + i * 8, i));
  prog.push_back(Instr::load(kA + 7 * 8, 1));
  RunResult r = runScript(config(ConsistencyModel::kSC), prog, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  EXPECT_EQ(p.results()[0].second, 7u);
}

TEST(CpuPipeline, MembarStoreLoadDrainsWriteBuffer) {
  // TSO + Membar #StoreLoad: the membar cannot pass until the store
  // performed (a full GetM round-trip with prefetching disabled), so the
  // load is serialized behind the store instead of overlapping it.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.storePrefetch = false;
  const Addr remote = 0x400040;  // homed at node 1: slow store perform
  std::vector<Instr> tail;
  for (int i = 0; i < 600; ++i) tail.push_back(Instr::compute(4));
  std::vector<Instr> with = {Instr::store(remote, 1),
                             Instr::membar(membar::kStoreLoad)};
  with.insert(with.end(), tail.begin(), tail.end());
  std::vector<Instr> without = {Instr::store(remote, 1)};
  without.insert(without.end(), tail.begin(), tail.end());
  System* sys = nullptr;
  RunResult rw = runScript(cfg, with, &sys);
  const std::uint64_t stalls = sys->core(0).stats().get("cpu.membarStalls");
  RunResult ro = runScript(cfg, without);
  ASSERT_TRUE(rw.completed);
  ASSERT_TRUE(ro.completed);
  EXPECT_EQ(rw.detections, 0u);
  EXPECT_GT(stalls, 0u) << "the membar never waited for the store";
  // Without the membar the compute tail overlaps the store's round trip;
  // with it, the tail starts only after the store performs.
  EXPECT_GT(rw.cycles, ro.cycles + 100) << "membar failed to serialize";
}

TEST(CpuPipeline, PsoStbarOrdersStores) {
  System* sys = nullptr;
  RunResult r = runScript(
      config(ConsistencyModel::kPSO),
      {Instr::store(kA, 1), Instr::stbar(), Instr::store(kB, 2),
       Instr::load(kA, 1), Instr::load(kB, 2)},
      &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u) << "stbar path must satisfy the AR checker";
}

TEST(CpuPipeline, RmoMembarsEnforceAcquireRelease) {
  RunResult r = runScript(
      config(ConsistencyModel::kRMO),
      {Instr::load(kA, 1), Instr::membar(membar::kLoadLoad | membar::kLoadStore),
       Instr::store(kB, 1),
       Instr::membar(membar::kLoadStore | membar::kStoreStore),
       Instr::store(kA, 2)});
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, RmoRunsWithoutMembars) {
  std::vector<Instr> prog;
  for (int i = 0; i < 30; ++i) {
    prog.push_back(Instr::load(kA + (i % 8) * kBlockSizeBytes));
    prog.push_back(Instr::store(kB + (i % 8) * kBlockSizeBytes, i));
  }
  RunResult r = runScript(config(ConsistencyModel::kRMO), prog);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, ModeSwitch32BitRunsCleanUnderRmo) {
  // Alternating 64-bit RMO and 32-bit (TSO) regions must drain cleanly and
  // satisfy the per-instruction AR tables.
  std::vector<Instr> prog;
  for (int region = 0; region < 4; ++region) {
    const bool is32 = region % 2 == 1;
    for (int i = 0; i < 6; ++i) {
      Instr s = Instr::store(kA + i * 8, region * 10 + i);
      s.is32Bit = is32;
      prog.push_back(s);
      Instr l = Instr::load(kA + i * 8);
      l.is32Bit = is32;
      prog.push_back(l);
    }
  }
  RunResult r = runScript(config(ConsistencyModel::kRMO), prog);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, AtomicSwapIsSerializing) {
  System* sys = nullptr;
  RunResult r = runScript(
      config(ConsistencyModel::kTSO),
      {Instr::store(kA, 5), Instr::swap(kA, 9, 1), Instr::load(kA, 2)},
      &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(p.results().size(), 2u);
  EXPECT_EQ(p.results()[0].second, 5u);  // swap saw the buffered store
  EXPECT_EQ(p.results()[1].second, 9u);  // load saw the swap
}

TEST(CpuPipeline, SpeculativeLoadSquashedByRemoteWrite) {
  // Node 1 loads a block (token-gated loop keeps it unverified briefly)
  // while node 0 overwrites it; the run must stay detection-free, proving
  // the squash-and-replay path reconciles the values.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) {
      std::vector<Instr> p;
      for (int i = 0; i < 20; ++i) {
        p.push_back(Instr::store(kA, 100 + i));
        p.push_back(Instr::compute(30));
      }
      return std::make_unique<ScriptedProgram>(p);
    }
    std::vector<Instr> p;
    for (int i = 0; i < 60; ++i) {
      p.push_back(Instr::load(kA));
      p.push_back(Instr::compute(5));
    }
    return std::make_unique<ScriptedProgram>(p);
  };
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, VerificationStageCostsTime) {
  // The same program with DVUO on is slower (or equal) but never faster.
  std::vector<Instr> prog;
  for (int i = 0; i < 60; ++i) {
    prog.push_back(Instr::load(kA + (i % 32) * kBlockSizeBytes));
    prog.push_back(Instr::compute(2));
  }
  RunResult base = runScript(config(ConsistencyModel::kTSO, false), prog);
  RunResult dvmc = runScript(config(ConsistencyModel::kTSO, true), prog);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(dvmc.completed);
  EXPECT_GE(dvmc.cycles, base.cycles);
}

TEST(CpuPipeline, TokensDeliverFinalValues) {
  System* sys = nullptr;
  std::vector<Instr> prog = {Instr::store(kA, 1), Instr::load(kA, 10),
                             Instr::store(kA, 2), Instr::load(kA, 11)};
  RunResult r = runScript(config(ConsistencyModel::kTSO), prog, &sys);
  ASSERT_TRUE(r.completed);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  ASSERT_EQ(p.results().size(), 2u);
  EXPECT_EQ(p.results()[0], (std::pair<std::uint64_t, std::uint64_t>{10, 1}));
  EXPECT_EQ(p.results()[1], (std::pair<std::uint64_t, std::uint64_t>{11, 2}));
}

TEST(CpuPipeline, WriteBufferCapacityStallsRetireNotCorrectness) {
  SystemConfig cfg = config(ConsistencyModel::kPSO);
  cfg.cpu.wbCapacity = 2;  // tiny write buffer
  std::vector<Instr> prog;
  for (int i = 0; i < 30; ++i) {
    prog.push_back(Instr::store(kA + i * kBlockSizeBytes, i));
  }
  prog.push_back(Instr::load(kA + 29 * kBlockSizeBytes, 1));
  System* sys = nullptr;
  RunResult r = runScript(cfg, prog, &sys);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
  auto& p = static_cast<ScriptedProgram&>(sys->core(0).program());
  EXPECT_EQ(p.results()[0].second, 29u);
}

TEST(CpuPipeline, TinyRobStillCorrect) {
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.robSize = 4;
  std::vector<Instr> prog;
  for (int i = 0; i < 40; ++i) {
    prog.push_back(Instr::store(kA + (i % 4) * 8, i));
    prog.push_back(Instr::load(kA + (i % 4) * 8));
  }
  RunResult r = runScript(cfg, prog);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u);
}

TEST(CpuPipeline, HangWatchdogFiresOnStuckPipeline) {
  // A program whose load can never complete (we drop every message) should
  // be flagged by the lost-operation machinery within ~2 injection periods.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.dvmc.membarInjectionPeriod = 10'000;
  cfg.maxCycles = 500'000;
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    if (n == 0) {
      return std::make_unique<ScriptedProgram>(
          std::vector<Instr>{Instr::load(kA, 1)});
    }
    return std::make_unique<ScriptedProgram>(std::vector<Instr>{});
  };
  System sys(cfg);
  sys.dataNet().setFaultFilter(
      [](Message&) { return NetFaultAction::kDrop; });
  RunResult r = sys.runUntil([&sys] { return sys.sink().any(); });
  ASSERT_TRUE(sys.sink().any());
  EXPECT_EQ(sys.sink().first().kind, CheckerKind::kLostOperation);
  EXPECT_LE(sys.sink().first().cycle, 50'000u);
  (void)r;
}

// ---------------------------------------------------------------------------
// Stall counters count stalled cycles
// ---------------------------------------------------------------------------

TEST(CpuStalls, RobFullStallCountsCyclesNotTicks) {
  // A 4-entry ROB behind a long compute stays full for the compute's
  // latency plus a fixed pipeline overhead. The core sleeps through most
  // of it, so a per-tick count would barely grow with the latency.
  auto stalls = [](std::uint16_t latency) {
    SystemConfig cfg = config(ConsistencyModel::kTSO, /*dvmcOn=*/false);
    cfg.cpu.robSize = 4;
    std::vector<Instr> prog = {Instr::compute(latency)};
    for (int i = 0; i < 7; ++i) prog.push_back(Instr::compute(1));
    System* sys = nullptr;
    EXPECT_TRUE(runScript(cfg, prog, &sys).completed);
    return sys->core(0).stats().get("cpu.robFullStalls");
  };
  const std::uint64_t at100 = stalls(100);
  EXPECT_GE(at100, 100u);
  EXPECT_EQ(stalls(300), at100 + 200);
}

// ---------------------------------------------------------------------------
// A sleeping core wakes for each of its inputs
// ---------------------------------------------------------------------------

// A System that will run `prog` on node 0 and `other` on the rest.
System& twoCoreSystem(SystemConfig cfg, std::vector<Instr> prog,
                      std::vector<Instr> other = {}) {
  static std::unique_ptr<System> keeper;
  cfg.programFactory = [prog, other](NodeId n) {
    return std::make_unique<ScriptedProgram>(n == 0 ? prog : other);
  };
  keeper = std::make_unique<System>(cfg);
  return *keeper;
}

TEST(CoreWakes, CacheOpCompletion) {
  // Nothing but the load's completion can wake the core once it issued.
  System& sys = twoCoreSystem(config(ConsistencyModel::kTSO),
                              {Instr::load(kA, 1)});
  ASSERT_TRUE(sys.run().completed);
  EXPECT_EQ(sys.core(0).retired(), 1u);
}

TEST(CoreWakes, WriteBufferDrain) {
  // With a one-entry write buffer the second store cannot retire until the
  // first drained, and the drain is the only input that says so.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.wbCapacity = 1;
  cfg.cpu.storePrefetch = false;
  System& sys = twoCoreSystem(cfg, {Instr::store(kA, 1), Instr::store(kB, 2)});
  ASSERT_TRUE(sys.run().completed);
  EXPECT_EQ(sys.core(0).retired(), 2u);
  EXPECT_GT(sys.core(0).stats().get("cpu.wbFullStalls"), 0u);
}

TEST(CoreWakes, ExecuteLatency) {
  // Near (below the kernel's 64-cycle window) and far latencies alike.
  for (std::uint16_t latency : {50, 500}) {
    System& sys = twoCoreSystem(config(ConsistencyModel::kTSO),
                                {Instr::compute(latency)});
    const RunResult r = sys.run();
    ASSERT_TRUE(r.completed) << latency;
    EXPECT_GE(r.cycles, latency);
    EXPECT_LT(r.cycles, latency + 20u);
  }
}

TEST(CoreWakes, RemoteWriteThatSquashes) {
  // Node 0's second load of kA executes early and waits behind a
  // Membar #StoreLoad, which waits for a slow remote store; node 0 sleeps.
  // Node 1's store to kA then squashes the waiting load, and the squash
  // alone must wake node 0 to re-execute it in the same cycle.
  SystemConfig cfg = config(ConsistencyModel::kTSO);
  cfg.cpu.storePrefetch = false;
  const Addr remote = 0x400040;  // homed at node 1
  System& sys = twoCoreSystem(
      cfg,
      {Instr::load(kA, 1), Instr::store(remote, 1),
       Instr::membar(membar::kStoreLoad), Instr::load(kA, 2)},
      {Instr::compute(250), Instr::store(kA, 7)});
  auto stat = [&](const char* name) { return sys.core(0).stats().get(name); };
  sys.runUntil([&] { return stat("cpu.squashes") > 0; });
  ASSERT_EQ(stat("cpu.squashes"), 1u);
  const std::uint64_t issued = stat("cpu.loadIssued");
  sys.runTo(sys.sim().now());  // the rest of this cycle, its ticks included
  EXPECT_EQ(stat("cpu.loadIssued"), issued + 1)
      << "the squashed load waited for another input";
  ASSERT_TRUE(sys.run().completed);
  auto& p = static_cast<ScriptedProgram&>(sys.core(0).program());
  ASSERT_EQ(p.results().size(), 2u);
  EXPECT_EQ(p.results()[1].second, 7u);
}

TEST(CoreWakes, BerRestore) {
  // Recovery restores every core inside the rollback; each restored core
  // must tick and dispatch in the first cycle after it.
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 150;
  cfg.ber.interval = 10'000;
  System sys(cfg);
  sys.runTo(25'000);
  ASSERT_FALSE(sys.allCoresDone());
  ASSERT_TRUE(sys.recover(sys.sim().now()));
  auto stat = [&](NodeId n, const char* name) {
    return sys.core(n).stats().get(name);
  };
  std::vector<std::uint64_t> dispatched;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    ASSERT_EQ(stat(n, "cpu.restarts"), 1u) << "node " << n;
    dispatched.push_back(stat(n, "cpu.dispatched"));
  }
  sys.runTo(sys.sim().now() + 1);  // the first cycle after the rollback
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    EXPECT_GT(stat(n, "cpu.dispatched"), dispatched[n])
        << "node " << n << " did not resume after its restore";
  }
  EXPECT_TRUE(sys.run().completed);
}

TEST(CoreWakes, WritePermissionForAnOwnedBlockStore) {
  // PSO, one drain at a time. Node 0's stores to kB (slow: from memory) and
  // kC (fast: node 1 owns it) prefetch write permission together; the kB
  // store takes the one drain slot. kC's fill completes no op of node 0,
  // yet it makes the kC store an owned-block store, which issues past the
  // limit: the grant alone must wake node 0, so kC performs long before kB.
  // The 32-bit compute switches models, which holds the stores back until
  // node 1 owns kC.
  constexpr Addr kC = 0x500000;
  SystemConfig cfg = config(ConsistencyModel::kPSO);
  cfg.cpu.wbConcurrency = 1;
  Instr sw = Instr::compute(1);
  sw.is32Bit = true;
  System& sys = twoCoreSystem(
      cfg, {Instr::compute(400), sw, Instr::store(kB, 1), Instr::store(kC, 2)},
      {Instr::store(kC, 9)});
  std::vector<Addr> performed;  // node 0's stores, in perform order
  sys.setStoreAuditHook([&](NodeId n, Addr a, std::uint64_t) {
    if (n == 0) performed.push_back(a);
  });
  ASSERT_TRUE(sys.run().completed);
  EXPECT_EQ(performed, (std::vector<Addr>{kC, kB}));
}

}  // namespace
}  // namespace dvmc
