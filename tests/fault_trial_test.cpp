// FaultTrial: the one inject-until-noticed loop of every fault experiment.
// What counts as noticed, and when a trial stops injecting.
#include <gtest/gtest.h>

#include "faults/trial.hpp"
#include "system/system.hpp"
#include "workload/fuzz_config.hpp"

namespace dvmc {
namespace {

std::uint64_t uoFlushes(System& sys) {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    total += sys.core(n).stats().get("cpu.uoFlushes");
  }
  return total;
}

TEST(FaultTrial, FlushDoesNotEndATrialOfAnotherFault) {
  // Fuzz config 661 (directory PSO micromix) flushes its pipeline from
  // ordinary speculation, and these state flips stay masked: only the
  // one fault the pipeline repairs in place may count a flush as noticed.
  System sys(makeFuzzConfig(661));
  sys.runTo(3'000);
  const std::uint64_t flushesBefore = uoFlushes(sys);
  FaultTrial trial(sys, FaultType::kCacheStateFlip, 2);
  trial.run(20'000, 40);
  ASSERT_GT(trial.injections(), 0);
  ASSERT_GT(uoFlushes(sys), flushesBefore)
      << "premise: the pipeline flushed during the trial";
  EXPECT_FALSE(trial.noticed());
  EXPECT_EQ(trial.notice(), FaultTrial::Notice::kNone);
  EXPECT_FALSE(sys.sink().any());
  EXPECT_EQ(trial.noticedAt(), 0u);
}

TEST(FaultTrial, StopsInjectingOnceTheRunHasEnded) {
  // 40 transactions end the run within the trial's first seven windows; a
  // duplicated message finds a target every round and stays masked here.
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 40;
  System sys(cfg);
  sys.runTo(3'000);
  FaultTrial trial(sys, FaultType::kMsgDuplicate, 1);
  trial.run(5'000, 40);
  ASSERT_TRUE(sys.runEnded()) << "premise: the target ends the run";
  ASSERT_FALSE(trial.noticed());
  const Cycle end = sys.sim().now();
  // One round per window, the last one begun before the end and none at
  // or after it.
  ASSERT_GT(trial.injections(), 0);
  EXPECT_EQ(trial.lastInjection(),
            3'000u + static_cast<Cycle>(trial.injections() - 1) * 5'000);
  EXPECT_LT(trial.lastInjection(), end);
  EXPECT_GT(trial.lastInjection() + 5'000, end);
  EXPECT_LT(trial.injections(), 40);
}

}  // namespace
}  // namespace dvmc
