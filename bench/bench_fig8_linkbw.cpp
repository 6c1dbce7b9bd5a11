// Figure 8: sensitivity of the DVMC overhead to interconnect link
// bandwidth (1 to 3 GB/s), average over the workloads, TSO, both
// protocols. Reported as DVTSO runtime normalized to the unprotected
// system at the same bandwidth.
//
// Expected shape (paper): no statistically significant correlation — DVMC
// traffic rides in the idle gaps between bursts.
#include "bench_common.hpp"

namespace dvmc {
namespace {

int run() {
  bench::header("Figure 8", "DVTSO/Base runtime vs link bandwidth, TSO");
  const int seeds = benchSeedCount();
  const double kCoreGhz = 2.0;  // bytes/cycle = GB/s / core GHz
  const double bandwidthsGBs[] = {1.0, 1.5, 2.0, 2.5, 3.0};

  std::printf("%-10s | %-22s | %-22s\n", "link GB/s", "directory",
              "snooping");
  for (double gbs : bandwidthsGBs) {
    std::printf("%-10.1f", gbs);
    for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
      RunningStat ratio;
      for (WorkloadKind wl : bench::paperWorkloads()) {
        SystemConfig base = bench::benchConfig(p, ConsistencyModel::kTSO, wl,
                                               false, false);
        base.torus.bytesPerCycle = gbs / kCoreGhz;
        SystemConfig dvmc = bench::benchConfig(p, ConsistencyModel::kTSO, wl,
                                               true, true);
        dvmc.torus.bytesPerCycle = gbs / kCoreGhz;
        const std::vector<double> rb = bench::runCyclesPerSeed(base, seeds);
        const std::vector<double> rd = bench::runCyclesPerSeed(dvmc, seeds);
        for (std::size_t i = 0; i < rb.size(); ++i) {
          if (rb[i] > 0) ratio.addTracked(rd[i] / rb[i]);
        }
      }
      std::printf(" |    %5.3f +-%5.3f    ", ratio.mean(), ratio.stddev());
    }
    std::printf("\n");
  }
  std::printf("(mean over workloads of per-workload DVTSO/Base ratios)\n");
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_fig8_linkbw",
      "Figure 8: DVMC overhead vs interconnect link bandwidth");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_fig8_linkbw");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
