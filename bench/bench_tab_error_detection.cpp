// Section 6.1: the error-detection campaign. For every fault type (and
// every applicable protocol x model combination) inject errors into a
// running benchmark, record whether and how fast DVMC detects them, and
// whether a valid SafetyNet checkpoint remained available at detection.
//
// Expected result (paper): every injected error is detected well within
// the ~100k-cycle recovery window. Injections that are architecturally
// masked (e.g., a corrupted line evicted before reuse) are re-drawn, as
// in the paper's run-until-detected methodology.
#include "bench_common.hpp"
#include "faults/injector.hpp"

namespace dvmc {
namespace {

struct CampaignRow {
  int trials = 0;
  int detected = 0;
  int recoveryValid = 0;
  RunningStat latency;
  std::uint64_t reinjections = 0;
};

int run() {
  bench::header("Table 6.1", "error-detection campaign");
  const int trialsPerCase = std::max(1, benchSeedCount() - 1);

  std::printf("%-22s | %-6s | %-9s | %-10s | %-12s | %s\n", "fault", "det",
              "recovery", "mean lat", "max lat", "reinject");

  for (FaultType f : allFaultTypes()) {
    CampaignRow row;
    for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
      for (ConsistencyModel m : bench::allModels()) {
        if (!faultApplicable(f, m, p)) continue;
        for (int trial = 0; trial < trialsPerCase; ++trial) {
          SystemConfig cfg = SystemConfig::withDvmc(p, m);
          cfg.numNodes = 4;
          cfg.workload = WorkloadKind::kOltp;
          cfg.targetTransactions = 1'000'000;
          cfg.maxCycles = 20'000'000;
          cfg.seed = 100 + trial;
          cfg.dvmc.membarInjectionPeriod = 50'000;
          cfg.ber.interval = 20'000;
          cfg.ber.maxCheckpoints = 10;
          System sys(cfg);
          FaultInjector inj(sys, 0xC0FFEE + trial);
          sys.runTo(30'000);

          auto flushes = [&] {
            std::uint64_t t = 0;
            for (NodeId n = 0; n < sys.numNodes(); ++n) {
              t += sys.core(n).stats().get("cpu.uoFlushes") +
                   sys.core(n).stats().get("cpu.rmoReplayFlushes");
            }
            return t;
          };
          const std::uint64_t f0 = flushes();
          const bool viaFlush = f == FaultType::kLsqWrongForward;
          auto detected = [&] {
            return sys.sink().any() || (viaFlush && flushes() > f0);
          };

          Cycle lastInjection = 0;
          int injections = 0;
          for (int round = 0; round < 60 && !detected(); ++round) {
            if (inj.inject(f)) {
              lastInjection = sys.sim().now();
              ++injections;
            }
            sys.runTo(sys.sim().now() + 25'000, detected);
          }
          ++row.trials;
          row.reinjections += injections > 0 ? injections - 1 : 0;
          if (!detected()) continue;
          ++row.detected;
          const Cycle at =
              sys.sink().any() ? sys.sink().first().cycle : sys.sim().now();
          if (at >= lastInjection) {
            row.latency.addTracked(static_cast<double>(at - lastInjection));
          }
          if (!sys.sink().any() ||
              (sys.ber()->oldestCheckpoint() < lastInjection &&
               sys.recover(lastInjection))) {
            ++row.recoveryValid;
          }
        }
      }
    }
    std::printf("%-22s | %3d/%-3d| %4d/%-4d | %8.0f   | %10.0f  | %llu\n",
                faultTypeName(f), row.detected, row.trials,
                row.recoveryValid, row.detected, row.latency.mean(),
                row.latency.max(),
                static_cast<unsigned long long>(row.reinjections));
  }
  std::printf(
      "\n(det: detected/trials; recovery: valid checkpoint at detection;\n"
      " latency in cycles from the manifesting injection; reinject: masked\n"
      " injections re-drawn, as in the paper's run-until-detected design)\n");
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_tab_error_detection",
      "Section 6.1: the error-detection campaign");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_tab_error_detection");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
