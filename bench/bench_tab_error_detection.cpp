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
#include "faults/trial.hpp"

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
        for (int rep = 0; rep < trialsPerCase; ++rep) {
          SystemConfig cfg = SystemConfig::withDvmc(p, m);
          cfg.numNodes = 4;
          cfg.workload = WorkloadKind::kOltp;
          cfg.targetTransactions = 1'000'000;
          cfg.maxCycles = 20'000'000;
          cfg.seed = 100 + rep;
          cfg.dvmc.membarInjectionPeriod = 50'000;
          cfg.ber.interval = 20'000;
          cfg.ber.maxCheckpoints = 10;
          System sys(cfg);
          sys.runTo(30'000);
          FaultTrial trial(sys, f, 0xC0FFEE + rep);
          trial.run(25'000, 60);
          ++row.trials;
          row.reinjections +=
              trial.injections() > 0 ? trial.injections() - 1 : 0;
          if (!trial.noticed()) continue;
          ++row.detected;
          const Cycle at = trial.noticedAt();
          if (at >= trial.lastInjection()) {
            row.latency.addTracked(
                static_cast<double>(at - trial.lastInjection()));
          }
          if (trial.notice() == FaultTrial::Notice::kFlush ||
              (sys.ber()->oldestCheckpoint() < trial.lastInjection() &&
               sys.recover(trial.lastInjection()))) {
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
