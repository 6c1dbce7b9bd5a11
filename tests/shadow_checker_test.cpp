// Tests for the alternative (Cantin-style shadow-replay) coherence checker
// and the framework's modularity claim: either checker plugs into the same
// system, stays silent on fault-free runs, and catches coherence faults.
#include <gtest/gtest.h>

#include "dvmc/shadow_checker.hpp"
#include "faults/trial.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

SystemConfig shadowConfig(Protocol p, ConsistencyModel m) {
  SystemConfig cfg = SystemConfig::withDvmc(p, m);
  cfg.coherenceChecker = SystemConfig::CoherenceCheckerKind::kShadow;
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 100;
  cfg.maxCycles = 50'000'000;
  return cfg;
}

// ---------------------------------------------------------------------------
// Unit level
// ---------------------------------------------------------------------------

TEST(ShadowCacheChecker, Rule1Checks) {
  Simulator sim;
  ErrorSink sink;
  ShadowCacheChecker sc(sim, 0, &sink);
  DataBlock d;
  sc.onEpochBegin(0x1000, /*rw=*/false, d, 0);
  sc.onPerformAccess(0x1000, /*isWrite=*/false);
  EXPECT_FALSE(sink.any());
  sc.onPerformAccess(0x1000, /*isWrite=*/true);
  EXPECT_TRUE(sink.any());  // store under RO permission
  sink.clear();
  sc.onEpochEnd(0x1000, d, 1);
  sc.onPerformAccess(0x1000, false);
  EXPECT_TRUE(sink.any());  // access with no permission at all
}

TEST(ShadowCacheChecker, DoubleGrantAndOrphanRevoke) {
  Simulator sim;
  ErrorSink sink;
  ShadowCacheChecker sc(sim, 0, &sink);
  DataBlock d;
  sc.onEpochBegin(0x1000, true, d, 0);
  sc.onEpochBegin(0x1000, true, d, 1);
  EXPECT_TRUE(sink.any());
  sink.clear();
  sc.onEpochEnd(0x1000, d, 2);
  sc.onEpochEnd(0x1000, d, 3);
  EXPECT_TRUE(sink.any());
}

TEST(ShadowHomeChecker, StaleMemoryServeDetected) {
  Simulator sim;
  ErrorSink sink;
  ShadowHomeChecker sh(sim, 0, &sink);
  DataBlock d;
  sh.onHomeRequest(0x1000, d);
  sh.onHomeGrant(0x1000, 1, /*rw=*/true, /*fromMemory=*/true, hashBlock(d));
  EXPECT_FALSE(sink.any());
  // Node 1 may have dirtied the block; serving memory again without a
  // writeback propagates stale data.
  sh.onHomeGrant(0x1000, 2, /*rw=*/false, /*fromMemory=*/true, hashBlock(d));
  EXPECT_TRUE(sink.any());
}

TEST(ShadowHomeChecker, WritebackOwnershipChecks) {
  Simulator sim;
  ErrorSink sink;
  ShadowHomeChecker sh(sim, 0, &sink);
  DataBlock d;
  sh.onHomeRequest(0x1000, d);
  sh.onHomeGrant(0x1000, 1, true, true, hashBlock(d));
  sh.onHomeWriteback(0x1000, 2, 0x1234, /*accepted=*/true);
  EXPECT_TRUE(sink.any());  // accepted from a non-owner
  sink.clear();
  sh.onHomeWriteback(0x1000, 1, 0x1234, /*accepted=*/false);
  // Owner 1's writeback rejected after 2's was accepted: by then the
  // shadow owner is cleared, so this is the "rejected from non-owner"
  // legal case — no report.
  EXPECT_FALSE(sink.any());
}

TEST(ShadowHomeChecker, MemoryImageChangeWithoutWritebackDetected) {
  Simulator sim;
  ErrorSink sink;
  ShadowHomeChecker sh(sim, 0, &sink);
  DataBlock d;
  sh.onHomeRequest(0x1000, d);
  sh.onHomeGrant(0x1000, 1, false, true, hashBlock(d));
  DataBlock corrupted = d;
  corrupted.flipBit(17);
  sh.onHomeGrant(0x1000, 2, false, true, hashBlock(corrupted));
  EXPECT_TRUE(sink.any());
}

// ---------------------------------------------------------------------------
// System level: drop-in replacement
// ---------------------------------------------------------------------------

struct ShadowCase {
  Protocol protocol;
  ConsistencyModel model;
};

class ShadowSystem : public ::testing::TestWithParam<ShadowCase> {};

TEST_P(ShadowSystem, FaultFreeRunIsClean) {
  SystemConfig cfg = shadowConfig(GetParam().protocol, GetParam().model);
  System sys(cfg);
  RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u)
      << (sys.sink().any() ? sys.sink().first().what : "");
  // The shadow checker generates no interconnect traffic at all.
  EXPECT_EQ(r.informBytes, 0u);
  EXPECT_EQ(sys.cet(0), nullptr);
  ASSERT_NE(sys.shadowCache(0), nullptr);
  EXPECT_GT(sys.shadowCache(0)->stats().get("shadow.accessChecks"), 0u);
}

std::string shadowName(const ::testing::TestParamInfo<ShadowCase>& info) {
  return std::string(protocolName(info.param.protocol)) + "_" +
         modelName(info.param.model);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ShadowSystem,
    ::testing::Values(ShadowCase{Protocol::kDirectory, ConsistencyModel::kTSO},
                      ShadowCase{Protocol::kDirectory, ConsistencyModel::kSC},
                      ShadowCase{Protocol::kDirectory, ConsistencyModel::kRMO},
                      ShadowCase{Protocol::kSnooping, ConsistencyModel::kTSO},
                      ShadowCase{Protocol::kSnooping, ConsistencyModel::kPSO}),
    shadowName);

TEST(ShadowSystem, DetectsCacheStateFlip) {
  SystemConfig cfg = shadowConfig(Protocol::kDirectory,
                                  ConsistencyModel::kTSO);
  cfg.targetTransactions = 1'000'000;
  System sys(cfg);
  sys.runTo(30'000);
  ASSERT_EQ(sys.sink().count(), 0u);
  FaultTrial trial(sys, FaultType::kCacheStateFlip, 5);
  trial.run(20'000, 40);
  ASSERT_GT(trial.injections(), 0);
  ASSERT_TRUE(trial.noticed()) << "shadow checker missed the state flip";
  EXPECT_EQ(sys.sink().first().kind, CheckerKind::kCacheCoherence);
}

TEST(ShadowSystem, RecoversLikeTheEpochChecker) {
  SystemConfig cfg = shadowConfig(Protocol::kDirectory,
                                  ConsistencyModel::kTSO);
  cfg.autoRecover = true;
  cfg.ber.interval = 10'000;
  cfg.targetTransactions = 150;
  System sys(cfg);
  FaultInjector inj(sys, 13);
  sys.runTo(30'000);
  inj.inject(FaultType::kCacheStateFlip);
  RunResult r = sys.runUntil([] { return false; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.unrecoverable, 0u);
}

}  // namespace
}  // namespace dvmc
