// Availability demo — the paper's motivation, end to end.
//
// A DVMC + SafetyNet system runs a database-style workload while hardware
// faults strike every few tens of thousands of cycles. Every error is
// detected by a checker and automatically rolled back; the workload keeps
// making forward progress and finishes correctly. An unprotected machine
// given the same fault stream silently corrupts state or wedges.
//
//   ./availability_demo [faults-to-survive]
#include <cstdio>
#include <cstdlib>

#include "faults/injector.hpp"
#include "system/system.hpp"
#include "obs/run_report.hpp"

using namespace dvmc;

int runDemo(int argc, char** argv) {
  const int faultBudget = argc > 1 ? std::atoi(argv[1]) : 8;

  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 800;
  cfg.autoRecover = true;  // detection -> rollback, hands-free
  cfg.dvmc.membarInjectionPeriod = 20'000;
  cfg.ber.interval = 10'000;
  cfg.ber.maxCheckpoints = 10;
  cfg.maxCycles = 100'000'000;
  cfg.tracer = obs::activeTracer();
  cfg.forensics = obs::activeForensics();
  cfg.sampleEvery = obs::options().sampleEvery;
  cfg.sampleCapacity = obs::options().sampleCapacity;

  System sys(cfg);
  FaultInjector injector(sys, 0xBEEF);

  // A rotating storm of distinctly detected fault types.
  const FaultType storm[] = {
      FaultType::kMsgDrop,          FaultType::kMsgDataCorrupt,
      FaultType::kCacheStateFlip,   FaultType::kWbValueCorrupt,
      FaultType::kMsgMisroute,      FaultType::kMemoryDataMultiBit,
  };

  std::printf("availability demo: oltp on 4 nodes, auto-recovery on,\n");
  std::printf("one injected hardware fault every ~60k cycles\n\n");

  int injected = 0;
  std::size_t storm_i = 0;
  while (injected < faultBudget && !sys.allCoresDone()) {
    const Cycle next = sys.sim().now() + 60'000;
    sys.runTo(next);
    if (sys.allCoresDone()) break;
    FaultType f = storm[storm_i++ % (sizeof(storm) / sizeof(storm[0]))];
    if (!faultApplicable(f, cfg.model, cfg.protocol)) continue;
    if (injector.inject(f)) {
      ++injected;
      std::printf("  cycle %-9llu injected %-22s (txns so far: %llu)\n",
                  static_cast<unsigned long long>(sys.sim().now()),
                  faultTypeName(f),
                  static_cast<unsigned long long>(sys.totalTransactions()));
    }
  }

  std::printf("\nletting the system finish...\n");
  RunResult r = sys.runUntil([] { return false; });

  std::printf("\n====================== outcome ======================\n");
  std::printf("faults injected        : %d\n", injected);
  std::printf("errors detected        : %llu\n",
              static_cast<unsigned long long>(r.detections));
  std::printf("automatic recoveries   : %llu\n",
              static_cast<unsigned long long>(r.recoveries));
  std::printf("unrecoverable          : %llu\n",
              static_cast<unsigned long long>(r.unrecoverable));
  std::printf("transactions completed : %llu / %llu\n",
              static_cast<unsigned long long>(sys.totalTransactions()),
              static_cast<unsigned long long>(cfg.targetTransactions));
  std::printf("workload finished      : %s\n", r.completed ? "yes" : "NO");
  std::printf("=====================================================\n");
  std::printf("\n(Some injections are architecturally masked and need no\n"
              " recovery; every *error* that manifested was detected and\n"
              " rolled back while the work kept flowing.)\n");
  return r.completed && r.unrecoverable == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  dvmc::CliParser cli("availability_demo",
                      "fault-injected run that stays available under "
                      "DVMC + SafetyNet rollback");
  cli.usageLine("availability_demo [fault_budget]");
  dvmc::obs::addObsFlags(cli);
  argc = cli.parse(argc, argv);
  const int rc = runDemo(argc, argv);
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
