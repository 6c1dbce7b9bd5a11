#include <cstdio>
#include "common/cli.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
using namespace dvmc;
int main(int argc, char** argv) {
  CliParser cli("matrix_check",
                "run the full {protocol, model, workload} matrix and "
                "report any incomplete or detecting configuration");
  cli.noPositionals();
  addRunnerFlags(cli);
  cli.parse(argc, argv);
  int bad = 0;
  for (int p = 0; p < 2; ++p) {
    for (auto m : {ConsistencyModel::kSC, ConsistencyModel::kTSO,
                   ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
      for (auto wl : {WorkloadKind::kApache, WorkloadKind::kOltp,
                      WorkloadKind::kJbb, WorkloadKind::kSlash,
                      WorkloadKind::kBarnes}) {
        SystemConfig cfg = SystemConfig::withDvmc(
            p ? Protocol::kSnooping : Protocol::kDirectory, m);
        cfg.numNodes = 8;
        cfg.workload = wl;
        cfg.targetTransactions = wl == WorkloadKind::kBarnes ? 4 : 300;
        const MultiRunResult result = runSeeds(cfg, 2);
        for (int seed = 1; seed <= 2; ++seed) {
          const RunResult& r = result.runs[seed - 1];
          if (!r.completed || r.detections) {
            printf("BAD %s %s %s seed=%d completed=%d det=%llu\n",
                   p ? "snoop" : "dir", modelName(m), workloadName(wl), seed,
                   r.completed, (unsigned long long)r.detections);
            ++bad;
          }
        }
      }
    }
  }
  printf(bad ? "MATRIX BAD=%d\n" : "MATRIX CLEAN\n", bad);
  return bad != 0;
}
