// Developer tool: run one {protocol, model, workload} configuration on a
// small DVMC-protected system and print completion/detection details plus
// core dumps on hangs. For one block's history, record an event trace and
// list the block with `dvmc_inspect timeline`; for committed values, record
// the commit trace:
//
//   ./dvmc_debug [dir|snoop] [sc|tso|pso|rmo] [workload]
//   ./dvmc_debug dir sc oltp --trace t.json
//   ./dvmc_inspect timeline --addr=0x200180 t.json
//   ./dvmc_debug dir sc oltp --capture-trace run.trace
#include <cstdio>

#include "obs/run_report.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"

using namespace dvmc;

int main(int argc, char** argv) {
  CliParser cli("dvmc_debug",
                "run one {protocol, model, workload} configuration and "
                "print completion/detection details");
  cli.usageLine("dvmc_debug [dir|snoop] [sc|tso|pso|rmo] [workload]");
  obs::addObsFlags(cli);
  argc = cli.parse(argc, argv);
  Protocol proto = (argc > 1 && std::string(argv[1]) == "snoop")
                       ? Protocol::kSnooping : Protocol::kDirectory;
  ConsistencyModel model = ConsistencyModel::kSC;
  if (argc > 2) {
    std::string m = argv[2];
    model = m == "tso" ? ConsistencyModel::kTSO
          : m == "pso" ? ConsistencyModel::kPSO
          : m == "rmo" ? ConsistencyModel::kRMO : ConsistencyModel::kSC;
  }
  WorkloadKind wl = argc > 3 ? workloadFromName(argv[3]) : WorkloadKind::kApache;
  SystemConfig cfg = SystemConfig::withDvmc(proto, model);
  cfg.numNodes = 4;
  cfg.workload = wl;
  cfg.targetTransactions = 60;
  cfg.maxCycles = 30'000'000;
  wireObsFlags(cfg);
  System sys(cfg);
  RunResult r = sys.run();
  writeCaptureFileOnce(r.trace);
  printf("completed=%d cycles=%llu txns=%llu detections=%llu\n",
         r.completed, (unsigned long long)r.cycles,
         (unsigned long long)r.transactions, (unsigned long long)r.detections);
  if (!r.completed) {
    for (NodeId n = 0; n < sys.numNodes(); ++n) sys.core(n).debugDump();
  }
  int i = 0;
  for (const auto& d : sys.sink().detections()) {
    printf("  [%d] %s @%llu node=%u addr=0x%llx : %s\n", i++,
           checkerKindName(d.kind), (unsigned long long)d.cycle, d.node,
           (unsigned long long)d.addr, d.what.c_str());
    if (i > 10) break;
  }
  return obs::finalizeObs();
}
