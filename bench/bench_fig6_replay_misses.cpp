// Figure 6: L1 cache misses during verification-stage replay, normalized
// to the number of L1 misses during regular execution (directory, TSO,
// full DVMC).
//
// Expected shape (paper): replay misses are rare — the window between a
// load's execution and its verification is small — so the ratio is far
// below 1, with lock-heavy workloads (slash) on the high side because
// failed lock acquires return to the spin loop.
#include "bench_common.hpp"

namespace dvmc {
namespace {

int run() {
  bench::header("Figure 6", "replay L1 misses / execution L1 misses");
  const int seeds = benchSeedCount();
  std::printf("%-8s | %-18s | %-12s | %-12s\n", "workload",
              "replay/regular", "replay misses", "regular misses");
  for (WorkloadKind wl : bench::paperWorkloads()) {
    SystemConfig cfg = bench::benchConfig(Protocol::kDirectory,
                                          ConsistencyModel::kTSO, wl,
                                          /*dvmcOn=*/true, /*berOn=*/true);
    const MultiRunResult r = runSeeds(cfg, seeds);
    const unsigned long long replay = r.metrics.value("l1.replayMiss");
    const unsigned long long regular = r.metrics.value("l1.miss");
    std::printf("%-8s |   %6.4f +-%6.4f  | %12llu | %12llu\n",
                workloadName(wl), r.replayMissRatio.mean(),
                r.replayMissRatio.stddev(), replay, regular);
  }
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_fig6_replay_misses",
      "Figure 6: L1 misses during verification-stage replay");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_fig6_replay_misses");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
