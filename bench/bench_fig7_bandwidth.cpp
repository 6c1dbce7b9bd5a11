// Figure 7: mean bandwidth on the most heavily loaded link (directory,
// TSO) for Base, SN, SN+DVCC, and full DVTSO.
//
// Expected shape (paper): the coherence checker's Inform-Epoch traffic
// adds a consistent ~20-30% on the hottest link; SafetyNet adds a smaller
// amount; load replay has no measurable bandwidth impact.
#include "bench_common.hpp"

namespace dvmc {
namespace {

struct ComponentCfg {
  const char* name;
  bool ber, dvcc, dvuo, dvar;
};

int run() {
  bench::header("Figure 7", "peak-link bandwidth (bytes/cycle), directory, TSO");
  const int seeds = benchSeedCount();
  const ComponentCfg configs[] = {
      {"Base", false, false, false, false},
      {"SN", true, false, false, false},
      {"SN+DVCC", true, true, false, false},
      {"DVTSO", true, true, true, true},
  };

  std::printf("%-8s", "workload");
  for (const auto& c : configs) std::printf(" | %-14s", c.name);
  std::printf(" | DVCC ovh | inform%% | ckpt%%\n");

  for (WorkloadKind wl : bench::paperWorkloads()) {
    std::printf("%-8s", workloadName(wl));
    double snMean = 0.0;
    double dvccMean = 0.0;
    for (const auto& c : configs) {
      SystemConfig cfg = bench::benchConfig(
          Protocol::kDirectory, ConsistencyModel::kTSO, wl, false, c.ber);
      cfg.dvmc.cacheCoherence = c.dvcc;
      cfg.dvmc.uniprocOrdering = c.dvuo;
      cfg.dvmc.allowableReordering = c.dvar;
      const MultiRunResult r = runSeeds(cfg, seeds);
      const RunningStat& bw = r.peakLinkBytesPerCycle;
      const std::uint64_t informB = r.metrics.value("net.informBytes");
      const std::uint64_t ckptB = r.metrics.value("net.ckptBytes");
      const std::uint64_t totalB = r.metrics.value("net.totalBytes");
      std::printf(" | %5.3f +-%5.3f", bw.mean(), bw.stddev());
      if (std::string(c.name) == "SN") snMean = bw.mean();
      if (std::string(c.name) == "SN+DVCC") dvccMean = bw.mean();
      if (std::string(c.name) == "DVTSO" && totalB > 0) {
        std::printf(" | %+5.1f%%  |  %4.1f%%  | %4.1f%%",
                    snMean > 0 ? (dvccMean / snMean - 1.0) * 100.0 : 0.0,
                    100.0 * informB / totalB, 100.0 * ckptB / totalB);
      }
    }
    std::printf("\n");
  }
  std::printf("(DVCC ovh: SN+DVCC peak-link traffic vs SN; inform%%/ckpt%%:\n"
              " share of total DVTSO torus bytes)\n");
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_fig7_bandwidth",
      "Figure 7: mean bandwidth on the most heavily loaded link");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_fig7_bandwidth");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
