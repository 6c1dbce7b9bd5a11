// Table 8: workload characteristics — measured fraction of 32-bit (SPARC
// v8, TSO-forced) memory operations per workload, compared with the
// paper's reported values.
#include "bench_common.hpp"

namespace dvmc {
namespace {

int run() {
  bench::header("Table 8", "workloads and 32-bit operation fractions");
  const int seeds = benchSeedCount();

  struct PaperRef {
    WorkloadKind wl;
    double frac;
  };
  const PaperRef refs[] = {
      {WorkloadKind::kApache, 0.27}, {WorkloadKind::kOltp, 0.26},
      {WorkloadKind::kJbb, 0.15},    {WorkloadKind::kSlash, 0.27},
      {WorkloadKind::kBarnes, 0.02},
  };

  std::printf("%-8s | %-10s | %-16s | %-10s\n", "workload", "paper",
              "measured", "txns/run");
  for (const PaperRef& ref : refs) {
    SystemConfig cfg = bench::benchConfig(Protocol::kDirectory,
                                          ConsistencyModel::kPSO, ref.wl,
                                          true, true);
    const MultiRunResult r = runSeeds(cfg, seeds);
    // txns/run: the last seed's transaction count.
    std::printf("%-8s |   %4.2f     |  %5.3f +-%5.3f  | %llu\n",
                workloadName(ref.wl), ref.frac, r.frac32.mean(),
                r.frac32.stddev(),
                static_cast<unsigned long long>(r.runs.back().transactions));
  }
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_tab8_workloads",
      "Table 8: measured workload characteristics");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_tab8_workloads");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
