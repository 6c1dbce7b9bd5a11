// Error-detection demo (the paper's Section 6.1 story, narrated):
//
//   1. run a workload on a DVMC-protected system;
//   2. inject a hardware fault mid-run (default: a dropped coherence
//      message — pick another with argv[1]);
//   3. watch a DVMC checker detect the resulting error (a fault that stays
//      masked is drawn again);
//   4. roll the machine back with SafetyNet to a pre-error checkpoint;
//   5. continue to completion, error-free.
//
//   ./error_detection_demo [fault]
//   faults: cache-data-multibit cache-state-flip memory-data-multibit
//           msg-drop msg-duplicate msg-misroute msg-data-corrupt
//           lsq-wrong-forward wb-value-corrupt wb-reorder
#include <cstdio>
#include <cstring>
#include <string>

#include "faults/injector.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
#include "obs/run_report.hpp"

using namespace dvmc;

int runDemo(int argc, char** argv) {
  FaultType fault = FaultType::kMsgDrop;
  if (argc > 1) {
    bool found = false;
    for (FaultType f : allFaultTypes()) {
      if (std::strcmp(argv[1], faultTypeName(f)) == 0) {
        fault = f;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown fault '%s'\n", argv[1]);
      return 2;
    }
  }

  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 600;
  cfg.dvmc.membarInjectionPeriod = 20'000;
  cfg.ber.interval = 10'000;
  cfg.ber.maxCheckpoints = 10;
  wireObsFlags(cfg);
  if (!faultApplicable(fault, cfg.model, cfg.protocol)) {
    std::fprintf(stderr, "fault %s is not an error under %s/%s\n",
                 faultTypeName(fault), protocolName(cfg.protocol),
                 modelName(cfg.model));
    return 2;
  }

  System sys(cfg);
  FaultInjector injector(sys, /*seed=*/42);

  std::printf("[phase 1] running oltp on a 4-node DVMC-protected system\n");
  sys.runTo(40'000);
  std::printf("          cycle %-8llu txns=%llu  checkpoints=%zu  "
              "detections=%llu\n",
              static_cast<unsigned long long>(sys.sim().now()),
              static_cast<unsigned long long>(sys.totalTransactions()),
              sys.ber()->checkpointCount(),
              static_cast<unsigned long long>(sys.sink().count()));

  // A fault can be masked: the flipped line is never written, the dropped
  // message is never needed. As in the paper's run-until-detected design
  // (bench_tab_error_detection), a fault no checker notices within
  // kDetectWindow cycles is drawn again; the window leaves the SafetyNet
  // checkpoints before the injection in reach.
  constexpr Cycle kDetectWindow = 60'000;
  constexpr int kMaxInjections = 10;
  auto flushes = [&] {
    std::uint64_t t = 0;
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
      t += sys.core(n).stats().get("cpu.uoFlushes");
    }
    return t;
  };
  const bool viaFlush = fault == FaultType::kLsqWrongForward;
  Cycle injectedAt = 0;
  std::uint64_t f0 = 0;
  auto noticed = [&] {
    return sys.sink().any() || (viaFlush && flushes() > f0);
  };
  for (int round = 0; round < kMaxInjections; ++round) {
    std::printf("[phase 2] injecting fault: %s\n", faultTypeName(fault));
    injectedAt = 0;
    for (int attempt = 0; attempt < 50 && injectedAt == 0; ++attempt) {
      if (injector.inject(fault)) {
        injectedAt = sys.sim().now();
      } else {
        sys.runTo(sys.sim().now() + 1000);
      }
    }
    if (injectedAt == 0) {
      std::fprintf(stderr, "could not inject\n");
      return 1;
    }
    std::printf("          injected at cycle %llu\n",
                static_cast<unsigned long long>(injectedAt));

    std::printf("[phase 3] waiting for a DVMC checker to notice...\n");
    f0 = flushes();
    const RunResult r = sys.runTo(injectedAt + kDetectWindow, noticed);
    if (noticed() || r.completed) break;
    std::printf("          nothing within %llu cycles: the fault was "
                "masked; drawing another\n",
                static_cast<unsigned long long>(kDetectWindow));
  }

  if (viaFlush && !sys.sink().any() && flushes() > f0) {
    std::printf("          the verification stage caught a wrong load value "
                "and repaired it with a pipeline flush\n");
    std::printf("          (speculative-path faults never reach committed "
                "state; no rollback needed)\n");
    sys.runUntil([] { return false; });
    std::printf("[phase 5] run completed, %llu transactions\n",
                static_cast<unsigned long long>(sys.totalTransactions()));
    return 0;
  }
  if (!sys.sink().any()) {
    std::printf("          nothing detected (every injection was masked); "
                "try another fault\n");
    return 1;
  }
  const Detection& d = sys.sink().first();
  std::printf("          DETECTED by %s at cycle %llu (latency %llu):\n",
              checkerKindName(d.kind),
              static_cast<unsigned long long>(d.cycle),
              static_cast<unsigned long long>(d.cycle - injectedAt));
  std::printf("          node %u, addr 0x%llx: %s\n", d.node,
              static_cast<unsigned long long>(d.addr), d.what.c_str());

  std::printf("[phase 4] SafetyNet rollback to a pre-error checkpoint "
              "(oldest kept: cycle %llu)\n",
              static_cast<unsigned long long>(sys.ber()->oldestCheckpoint()));
  if (!sys.recover(injectedAt)) {
    std::printf("          recovery window expired!\n");
    return 1;
  }
  std::printf("          restored; caches invalidated, memory rolled back, "
              "cores replaying\n");

  std::printf("[phase 5] continuing to completion...\n");
  sys.sink().clear();
  RunResult r = sys.runUntil([] { return false; });
  if (obs::reportingActive()) {
    Json run = Json::object();
    run.set("kind", Json::str("error_detection_demo"));
    run.set("config", configJson(cfg));
    run.set("result", toJson(r));
    obs::addReportRun(std::move(run));
  }
  std::printf("          %s: %llu transactions in %llu cycles, "
              "%llu post-recovery detections\n",
              r.completed ? "done" : "INCOMPLETE",
              static_cast<unsigned long long>(sys.totalTransactions()),
              static_cast<unsigned long long>(sys.sim().now()),
              static_cast<unsigned long long>(sys.sink().count()));
  return r.completed && sys.sink().count() == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  dvmc::CliParser cli("error_detection_demo",
                      "inject one hardware fault, watch a DVMC checker "
                      "detect it and SafetyNet roll it back");
  cli.usageLine("error_detection_demo [fault_type]");
  dvmc::obs::addObsFlags(
      cli,
      "the SafetyNet rollback re-executes committed instructions, so this "
      "run has no linear commit trace");
  argc = cli.parse(argc, argv);
  const int rc = runDemo(argc, argv);
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
