// SafetyNet backward-error-recovery tests: checkpoint cadence, rollback
// with full state restoration, post-recovery forward progress, and the
// recovery-window bound.
#include <gtest/gtest.h>

#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

SystemConfig berConfig(Protocol p = Protocol::kDirectory) {
  SystemConfig cfg = SystemConfig::withDvmc(p, ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kMicroMix;
  cfg.targetTransactions = 120;
  cfg.ber.interval = 5'000;
  cfg.ber.maxCheckpoints = 4;
  cfg.maxCycles = 30'000'000;
  return cfg;
}

TEST(SafetyNet, CheckpointsAccumulateAndTrim) {
  SystemConfig cfg = berConfig();
  System sys(cfg);
  sys.runTo(40'000);
  ASSERT_NE(sys.ber(), nullptr);
  EXPECT_EQ(sys.ber()->checkpointCount(), cfg.ber.maxCheckpoints);
  EXPECT_GT(sys.ber()->newestCheckpoint(), sys.ber()->oldestCheckpoint());
  EXPECT_EQ(sys.ber()->recoveryWindow(),
            cfg.ber.interval * cfg.ber.maxCheckpoints);
}

TEST(SafetyNet, RecoveryRewindsAndCompletes) {
  SystemConfig cfg = berConfig();
  System sys(cfg);
  sys.runTo(25'000);
  const std::uint64_t txnsBefore = sys.totalTransactions();
  ASSERT_TRUE(sys.recover(sys.sim().now()));
  EXPECT_EQ(sys.ber()->recoveries(), 1u);
  // The rolled-back system must make forward progress to the target with
  // no checker detections (a consistent restore).
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed) << "post-recovery deadlock";
  EXPECT_EQ(sys.sink().count(), 0u) << sys.sink().first().what;
  EXPECT_GE(sys.totalTransactions(), txnsBefore);
}

TEST(SafetyNet, RecoveryBeforeWindowFails) {
  SystemConfig cfg = berConfig();
  System sys(cfg);
  sys.runTo(100'000);
  // An "error" that happened before the oldest retained checkpoint cannot
  // be recovered.
  EXPECT_FALSE(sys.recover(sys.ber()->oldestCheckpoint()));
  EXPECT_TRUE(sys.recover(sys.sim().now()));
}

TEST(SafetyNet, RepeatedRecoveriesStayConsistent) {
  SystemConfig cfg = berConfig();
  cfg.targetTransactions = 150;
  System sys(cfg);
  for (int i = 1; i <= 3; ++i) {
    sys.runTo(i * 30'000u);
    if (sys.allCoresDone()) break;
    ASSERT_TRUE(sys.recover(sys.sim().now())) << "recovery " << i;
    // Drain the restart gap so cores resume before the next deadline.
    sys.runUntil([&] { return false; });
    if (sys.allCoresDone() ||
        sys.totalTransactions() >= cfg.targetTransactions) {
      break;
    }
  }
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sys.sink().count(), 0u) << sys.sink().first().what;
}

TEST(SafetyNet, SnoopingRecoveryWorksToo) {
  SystemConfig cfg = berConfig(Protocol::kSnooping);
  System sys(cfg);
  sys.runTo(25'000);
  ASSERT_TRUE(sys.recover(sys.sim().now()));
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sys.sink().count(), 0u) << sys.sink().first().what;
}

TEST(SafetyNet, SnapshotRestoreRoundTripPreservesMemory) {
  // Write values, checkpoint, corrupt, restore: the memory image must
  // match the checkpoint point exactly. captureSnapshot() seals the live
  // undo segment, so restoring the returned checkpoint (with no newer
  // segments) reproduces the image at the capture instant.
  SystemConfig cfg = berConfig();
  cfg.berEnabled = true;
  cfg.programFactory = [](NodeId n) -> std::unique_ptr<ThreadProgram> {
    std::vector<Instr> p;
    if (n == 0) {
      for (int i = 0; i < 10; ++i) {
        p.push_back(Instr::store(0x400000 + i * kBlockSizeBytes, 1000 + i));
      }
    }
    return std::make_unique<ScriptedProgram>(p);
  };
  System sys(cfg);
  RunResult r = sys.run();  // run to completion: all stores performed
  ASSERT_TRUE(r.completed);
  SafetyNet::Snapshot snap = sys.captureSnapshot();
  const FlatMap<Addr, DataBlock> imageAtCapture = sys.memoryImage();
  for (int i = 0; i < 10; ++i) {
    const Addr blk = 0x400000 + i * kBlockSizeBytes;
    ASSERT_TRUE(imageAtCapture.count(blk)) << i;
    EXPECT_EQ(imageAtCapture.at(blk).read(0, 8), 1000u + i);
  }
  // Corrupt the live memory, restore, verify.
  MemoryMap map{4};
  sys.home(map.homeOf(0x400000))->memory().injectBitFlip(0x400000, 3);
  sys.restoreSnapshot(snap);
  EXPECT_EQ(sys.memoryImage(), imageAtCapture);
  ErrorSink scratch;
  EXPECT_EQ(sys.home(map.homeOf(0x400000))
                ->memory()
                .read(0x400000, &scratch, 0, 0)
                .read(0, 8),
            1000u);
  EXPECT_FALSE(scratch.any());
}

TEST(SafetyNet, UndoLogRestoreMatchesFullImageAcrossCheckpoints) {
  // The differential proof that undo-log (delta) restore is bit-identical
  // to the old full-snapshot restore: independently reconstruct the full
  // memory image a deep-copy snapshot would have captured at each
  // checkpoint instant by replaying the audited store stream, then roll
  // back through the production SafetyNet path and compare images.
  SystemConfig cfg = berConfig();
  cfg.targetTransactions = 400;
  System sys(cfg);

  // Full-image reference: every performed store, in perform order, with
  // its cycle — exactly the input the old captureSnapshot() folded into
  // its deep copy.
  struct AuditedStore {
    Cycle cycle;
    Addr addr;
    std::size_t size;
    std::uint64_t value;
  };
  std::vector<AuditedStore> log;
  sys.setStoreAuditHook(
      [&](NodeId, Addr addr, std::size_t size, std::uint64_t value) {
        log.push_back({sys.sim().now(), addr, size, value});
      });

  sys.runTo(23'000);
  ASSERT_GE(sys.ber()->checkpointCount(), 3u);
  ASSERT_FALSE(log.empty());
  ASSERT_TRUE(sys.recover(sys.sim().now()));
  const Cycle target = sys.ber()->newestCheckpoint();

  // Replay the store stream up to the restored checkpoint into a fresh
  // image (the old full-snapshot semantics). A store in the same cycle as
  // the checkpoint event may sit on either side of the capture within that
  // cycle, so accept any split of the equal-cycle stores.
  auto replayUpTo = [&](std::size_t count) {
    FlatMap<Addr, DataBlock> image;
    for (std::size_t i = 0; i < count; ++i) {
      const AuditedStore& s = log[i];
      const Addr blk = blockAddr(s.addr);
      auto [it, fresh] =
          image.try_emplace(blk, MemoryStorage::initialPattern(blk));
      it->second.write(blockOffset(s.addr), s.size, s.value);
    }
    return image;
  };
  std::size_t firstAtOrAfter = 0;
  while (firstAtOrAfter < log.size() && log[firstAtOrAfter].cycle < target) {
    ++firstAtOrAfter;
  }
  std::size_t lastEqual = firstAtOrAfter;
  while (lastEqual < log.size() && log[lastEqual].cycle == target) {
    ++lastEqual;
  }
  bool matched = false;
  for (std::size_t split = firstAtOrAfter; split <= lastEqual; ++split) {
    if (sys.memoryImage() == replayUpTo(split)) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched)
      << "undo-log restore diverged from full-image reconstruction at "
      << target;

  // And the restored system still runs to completion with clean verdicts.
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sys.sink().count(), 0u)
      << (sys.sink().any() ? sys.sink().first().what : "");
}

TEST(SafetyNet, UndoLogMultiIntervalRollbackIsExact) {
  // Roll back across several checkpoint intervals in one recovery (the
  // error is planted just after an old checkpoint), forcing the restorer
  // to replay multiple undo segments newest-first.
  SystemConfig cfg = berConfig();
  cfg.targetTransactions = 400;
  System sys(cfg);
  struct AuditedStore {
    Cycle cycle;
    Addr addr;
    std::size_t size;
    std::uint64_t value;
  };
  std::vector<AuditedStore> log;
  sys.setStoreAuditHook(
      [&](NodeId, Addr addr, std::size_t size, std::uint64_t value) {
        log.push_back({sys.sim().now(), addr, size, value});
      });
  sys.runTo(23'000);
  ASSERT_GE(sys.ber()->checkpointCount(), 4u);
  // Target the oldest retained checkpoint: every newer segment replays.
  ASSERT_TRUE(sys.recover(sys.ber()->oldestCheckpoint() + 1));
  const Cycle target = sys.ber()->newestCheckpoint();
  EXPECT_EQ(target, sys.ber()->oldestCheckpoint());  // all newer trimmed

  FlatMap<Addr, DataBlock> expected;
  std::size_t replayed = 0;
  for (const AuditedStore& s : log) {
    if (s.cycle >= target) break;  // (no stores landed exactly at target)
    const Addr blk = blockAddr(s.addr);
    auto [it, fresh] =
        expected.try_emplace(blk, MemoryStorage::initialPattern(blk));
    it->second.write(blockOffset(s.addr), s.size, s.value);
    ++replayed;
  }
  const bool splitAmbiguous =
      replayed < log.size() && log[replayed].cycle == target;
  if (!splitAmbiguous) {
    EXPECT_EQ(sys.memoryImage(), expected);
  }
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sys.sink().count(), 0u)
      << (sys.sink().any() ? sys.sink().first().what : "");
}

TEST(SafetyNet, CheckpointTrafficIsVisible) {
  SystemConfig cfg = berConfig();
  cfg.dvmc = DvmcConfig{};  // isolate BER traffic (all checkers off)
  System sysWith(cfg);
  sysWith.runTo(30'000);
  const std::uint64_t with = sysWith.dataNet().totalBytes();

  cfg.berEnabled = false;
  cfg.seed = 1;
  System sysWithout(cfg);
  sysWithout.runTo(30'000);
  const std::uint64_t without = sysWithout.dataNet().totalBytes();
  EXPECT_GT(with, without);
}


TEST(SafetyNet, RecoveryMidBarrierWorkloadCompletes) {
  // Barnes-style barrier phases: recovery in the middle of a barrier is
  // the nastiest state (a lock may be held, the phase counter mid-update,
  // some threads spinning). The restored run must still reach completion
  // with no detections.
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kBarnes;
  cfg.targetTransactions = 4;  // phases per thread
  cfg.ber.interval = 4'000;
  cfg.ber.maxCheckpoints = 5;
  cfg.maxCycles = 60'000'000;
  System sys(cfg);
  // Let it run into the middle of the phase structure, then roll back.
  sys.runUntil([&] { return sys.totalTransactions() >= 6; });
  ASSERT_FALSE(sys.allCoresDone());
  ASSERT_TRUE(sys.recover(sys.sim().now()));
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed) << "barrier deadlock after recovery";
  EXPECT_EQ(sys.sink().count(), 0u)
      << (sys.sink().any() ? sys.sink().first().what : "");
  // All four threads ran all four phases.
  EXPECT_EQ(sys.totalTransactions(), 16u);
}

TEST(SafetyNet, RecoveryDuringCriticalSectionPreservesMutualExclusion) {
  // Roll back while locks are (likely) held mid-critical-section on a
  // contended workload; the owner-id CAS re-acquisition must not break
  // mutual exclusion (no checker noise, run completes).
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kSlash;  // lockFraction 0.9, 2 locks
  cfg.targetTransactions = 150;
  cfg.ber.interval = 3'000;
  cfg.maxCycles = 60'000'000;
  System sys(cfg);
  for (int i = 1; i <= 4; ++i) {
    sys.runTo(10'000u * i);
    if (sys.allCoresDone()) break;
    ASSERT_TRUE(sys.recover(sys.sim().now())) << i;
  }
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sys.sink().count(), 0u)
      << (sys.sink().any() ? sys.sink().first().what : "");
}

}  // namespace
}  // namespace dvmc
