// The Section 6.1 experiment as a test: inject faults of a given type into
// a running benchmark and require DVMC (or ECC) to detect the error within
// the SafetyNet recovery window, with a valid checkpoint still available.
//
// Methodology note: a single injection can be architecturally masked (a
// corrupted line that is evicted before reuse, a duplicated message the
// protocol absorbs). Masked faults are not errors — the end-to-end
// argument says nothing incorrect happened. Like the paper's campaign,
// which ran until the injected error was detected, the harness re-injects
// (with fresh random targets) until an injection manifests, then bounds
// the detection latency from the most recent injection.
#include <gtest/gtest.h>

#include <string>

#include "faults/injector.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

struct FaultCase {
  Protocol protocol;
  ConsistencyModel model;
  FaultType fault;
};

std::string caseName(const ::testing::TestParamInfo<FaultCase>& info) {
  std::string n = std::string(protocolName(info.param.protocol)) + "_" +
                  modelName(info.param.model) + "_" +
                  faultTypeName(info.param.fault);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class FaultDetection : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultDetection, DetectedWithinRecoveryWindow) {
  const FaultCase& fc = GetParam();
  ASSERT_TRUE(faultApplicable(fc.fault, fc.model, fc.protocol));

  SystemConfig cfg = SystemConfig::withDvmc(fc.protocol, fc.model);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 1'000'000;  // effectively unbounded
  cfg.maxCycles = 20'000'000;
  cfg.dvmc.membarInjectionPeriod = 20'000;  // tighter watchdog for tests
  cfg.ber.interval = 20'000;
  cfg.ber.maxCheckpoints = 10;  // window = 200k cycles
  System sys(cfg);
  FaultInjector inj(sys, 0xFA017 + static_cast<int>(fc.fault));

  // Warm up error-free.
  sys.runTo(30'000);
  ASSERT_EQ(sys.sink().count(), 0u)
      << "fault-free phase dirty: " << sys.sink().first().what;

  // Flush counters double as the detection signal for speculative-path
  // faults, which the verification stage repairs in place (§4.1).
  auto flushes = [&] {
    std::uint64_t total = 0;
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
      total += sys.core(n).stats().get("cpu.uoFlushes");
      total += sys.core(n).stats().get("cpu.rmoReplayFlushes");
    }
    return total;
  };
  const bool lsqFault = fc.fault == FaultType::kLsqWrongForward;
  const std::uint64_t flushesBefore = flushes();

  auto detected = [&] {
    return sys.sink().any() || (lsqFault && flushes() > flushesBefore);
  };

  // Inject; if the fault is masked (no manifestation within a grace
  // period), re-inject at a fresh random location — mirroring a campaign
  // that draws injection sites until the error manifests.
  Cycle lastInjection = 0;
  int injections = 0;
  for (int round = 0; round < 60 && !detected(); ++round) {
    if (inj.inject(fc.fault)) {
      lastInjection = sys.sim().now();
      ++injections;
    }
    sys.runTo(sys.sim().now() + 25'000, detected);
  }
  ASSERT_GT(injections, 0) << "fault never found a target";
  ASSERT_TRUE(detected()) << "undetected after " << injections
                          << " injections of " << faultTypeName(fc.fault);

  const bool bySink = sys.sink().any();
  const Cycle detectedAt = bySink ? sys.sink().first().cycle : sys.sim().now();
  if (detectedAt > lastInjection) {
    EXPECT_LE(detectedAt - lastInjection, 200'000u)
        << "detection latency exceeds the recovery window";
  }

  // A valid checkpoint predating the (manifesting) injection must still
  // exist, and recovery from it must succeed.
  if (bySink) {
    EXPECT_LT(sys.ber()->oldestCheckpoint(), lastInjection)
        << "recovery window expired before detection";
    EXPECT_TRUE(sys.recover(lastInjection));
  }
}

std::vector<FaultCase> allCases() {
  std::vector<FaultCase> v;
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    for (ConsistencyModel m :
         {ConsistencyModel::kSC, ConsistencyModel::kTSO,
          ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
      for (FaultType f : allFaultTypes()) {
        if (!faultApplicable(f, m, p)) continue;
        v.push_back({p, m, f});
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Campaign, FaultDetection,
                         ::testing::ValuesIn(allCases()), caseName);

}  // namespace
}  // namespace dvmc
