// Ablation studies for the design choices called out in DESIGN.md:
//  (1) membar-injection period vs lost-operation detection latency;
//  (2) MET inform-sorting residence vs false positives (checker-hardware
//      imprecision -> unnecessary recoveries, never incorrectness);
//  (3) write-buffer drain concurrency under PSO (the Table 5 optimization);
//  (4) store prefetching (the baseline optimization both systems rely on).
#include "bench_common.hpp"
#include "faults/trial.hpp"

namespace dvmc {
namespace {

void ablateMembarPeriod() {
  std::printf("\n-- (1) membar injection period vs detection latency "
              "(msg-drop faults, directory TSO) --\n");
  std::printf("%-12s | %-14s | %-10s\n", "period", "mean latency",
              "detected");
  for (Cycle period : {Cycle{10'000}, Cycle{50'000}, Cycle{100'000}}) {
    RunningStat lat;
    int detected = 0;
    int trials = 0;
    for (int rep = 0; rep < 3; ++rep) {
      SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                                ConsistencyModel::kTSO);
      cfg.numNodes = 4;
      cfg.workload = WorkloadKind::kOltp;
      cfg.targetTransactions = 1'000'000;
      cfg.maxCycles = 10'000'000;
      cfg.seed = 7 + rep;
      cfg.dvmc.membarInjectionPeriod = period;
      System sys(cfg);
      sys.runTo(20'000);
      FaultTrial trial(sys, FaultType::kMsgDrop, 0xAB1 + rep);
      trial.run(period, 40);
      ++trials;
      if (trial.noticed() && trial.noticedAt() >= trial.lastInjection()) {
        ++detected;
        lat.addTracked(
            static_cast<double>(trial.noticedAt() - trial.lastInjection()));
      }
    }
    std::printf("%-12llu | %10.0f    | %d/%d\n",
                static_cast<unsigned long long>(period), lat.mean(),
                detected, trials);
  }
}

void ablateSortResidence() {
  std::printf("\n-- (2) MET inform-sort residence vs false positives "
              "(fault-free slash, snooping SC) --\n");
  std::printf("%-12s | %-16s\n", "residence", "false positives");
  for (Cycle residence : {Cycle{200}, Cycle{1'000}, Cycle{6'000}}) {
    SystemConfig cfg = SystemConfig::withDvmc(Protocol::kSnooping,
                                              ConsistencyModel::kSC);
    cfg.numNodes = 4;
    cfg.workload = WorkloadKind::kSlash;
    cfg.targetTransactions = 60;
    cfg.maxCycles = 10'000'000;
    cfg.dvmc.informSortDelay = residence;
    const std::uint64_t falsePositives = runSeeds(cfg, 3).detections;
    std::printf("%-12llu | %llu\n",
                static_cast<unsigned long long>(residence),
                static_cast<unsigned long long>(falsePositives));
  }
  std::printf("(checker imprecision only triggers unnecessary recoveries;\n"
              " it never compromises correctness — Section 3)\n");
}

void ablateWbConcurrency() {
  std::printf("\n-- (3) PSO write-buffer drain concurrency (Table 5) --\n");
  std::printf("%-12s | %-16s\n", "concurrency", "oltp runtime");
  double base = 0.0;
  for (std::size_t conc : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{8}}) {
    SystemConfig cfg = bench::benchConfig(Protocol::kDirectory,
                                          ConsistencyModel::kPSO,
                                          WorkloadKind::kOltp, false, false);
    cfg.cpu.wbConcurrency = conc;
    MultiRunResult r = runSeeds(cfg, benchSeedCount());
    if (base == 0.0) base = r.cycles.mean();
    std::printf("%-12zu | %5.3f (+-%5.3f)\n", conc, r.cycles.mean() / base,
                r.cycles.stddev() / base);
  }
}

void ablateWbCoalescing() {
  std::printf("\n-- (5) PSO write-buffer coalescing (Table 5 'optimized "
              "store issue policy') --\n");
  std::printf("%-12s | %-14s | %-16s\n", "coalescing", "oltp runtime",
              "coherence bytes");
  double base = 0.0;
  double baseBytes = 0.0;
  for (bool on : {true, false}) {
    SystemConfig cfg = bench::benchConfig(Protocol::kDirectory,
                                          ConsistencyModel::kPSO,
                                          WorkloadKind::kOltp, false, false);
    cfg.cpu.wbCoalescing = on;
    const MultiRunResult r = runSeeds(cfg, benchSeedCount());
    const double bytes =
        static_cast<double>(r.metrics.value("net.coherenceBytes"));
    if (base == 0.0) {
      base = r.cycles.mean();
      baseBytes = bytes;
    }
    std::printf("%-12s | %5.3f          | %5.3f\n", on ? "on" : "off",
                r.cycles.mean() / base, bytes / baseBytes);
  }
}

void ablateStorePrefetch() {
  std::printf("\n-- (4) store prefetching (baseline optimization) --\n");
  std::printf("%-12s | %-14s | %-14s\n", "prefetch", "SC runtime",
              "TSO runtime");
  double scBase = 0.0;
  double tsoBase = 0.0;
  for (bool pf : {true, false}) {
    SystemConfig sc = bench::benchConfig(Protocol::kDirectory,
                                         ConsistencyModel::kSC,
                                         WorkloadKind::kOltp, false, false);
    sc.cpu.storePrefetch = pf;
    SystemConfig tso = sc;
    tso.model = ConsistencyModel::kTSO;
    MultiRunResult rsc = runSeeds(sc, benchSeedCount());
    MultiRunResult rtso = runSeeds(tso, benchSeedCount());
    if (pf) {
      scBase = rsc.cycles.mean();
      tsoBase = rtso.cycles.mean();
    }
    std::printf("%-12s | %5.3f          | %5.3f\n", pf ? "on" : "off",
                rsc.cycles.mean() / scBase, rtso.cycles.mean() / tsoBase);
  }
}

void ablateCheckerKind() {
  std::printf("\n-- (6) coherence-checker modularity: epoch/MET vs "
              "Cantin-style shadow replay (directory TSO, full DVMC) --\n");
  std::printf("%-8s | %-14s | %-14s | %-12s\n", "workload", "epoch",
              "shadow", "inform bytes");
  for (WorkloadKind wl :
       {WorkloadKind::kApache, WorkloadKind::kOltp, WorkloadKind::kSlash}) {
    SystemConfig base = bench::benchConfig(Protocol::kDirectory,
                                           ConsistencyModel::kTSO, wl,
                                           false, false);
    const std::vector<double> vb =
        bench::runCyclesPerSeed(base, benchSeedCount());

    double cells[2];
    std::uint64_t informs[2];
    int idx = 0;
    for (auto kind : {SystemConfig::CoherenceCheckerKind::kEpoch,
                      SystemConfig::CoherenceCheckerKind::kShadow}) {
      SystemConfig cfg = bench::benchConfig(Protocol::kDirectory,
                                            ConsistencyModel::kTSO, wl,
                                            true, true);
      cfg.coherenceChecker = kind;
      const MultiRunResult r = runSeeds(cfg, benchSeedCount());
      // Paired with the base run of the same seed.
      RunningStat cyc;
      for (std::size_t s = 0; s < r.runs.size(); ++s) {
        cyc.addTracked(static_cast<double>(r.runs[s].cycles) / vb[s]);
      }
      cells[idx] = cyc.mean();
      informs[idx] = r.metrics.value("net.informBytes");
      ++idx;
    }
    std::printf("%-8s | %5.3f          | %5.3f          | %llu vs %llu\n",
                workloadName(wl), cells[0], cells[1],
                static_cast<unsigned long long>(informs[0]),
                static_cast<unsigned long long>(informs[1]));
  }
  std::printf("(runtime normalized to the unprotected base; the shadow\n"
              " checker sends zero inform traffic at the cost of weaker\n"
              " cache-to-cache data coverage — Section 8 modularity)\n");
}

void ablateInformYield() {
  std::printf("\n-- (7) checker-traffic yielding (Section 6.2.3: delay "
              "transmissions until bursts are over) --\n");
  std::printf("%-8s | %-22s | %-22s\n", "yield",
              "slash runtime (DVTSO)", "peak link bytes/cyc");
  double base = 0.0;
  for (bool yield : {false, true}) {
    SystemConfig cfg = bench::benchConfig(Protocol::kDirectory,
                                          ConsistencyModel::kTSO,
                                          WorkloadKind::kSlash, true, true);
    cfg.torus.yieldCheckerTraffic = yield;
    const MultiRunResult r = runSeeds(cfg, benchSeedCount());
    const RunningStat& cyc = r.cycles;
    const RunningStat& bw = r.peakLinkBytesPerCycle;
    if (base == 0.0) base = cyc.mean();
    std::printf("%-8s |   %5.3f (+-%5.3f)    |   %5.3f (+-%5.3f)\n",
                yield ? "on" : "off", cyc.mean() / base,
                cyc.stddev() / base, bw.mean(), bw.stddev());
  }
}

int run() {
  bench::header("Ablations", "design-choice sensitivity studies");
  ablateMembarPeriod();
  ablateSortResidence();
  ablateWbConcurrency();
  ablateStorePrefetch();
  ablateWbCoalescing();
  ablateCheckerKind();
  ablateInformYield();
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_ablation",
      "ablation studies for the design choices in DESIGN.md");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_ablation");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
