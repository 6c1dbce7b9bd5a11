// Section 6.3: hardware cost of the DVMC checkers, computed for (a) the
// paper's full-scale configuration and (b) the simulated configuration
// used by the other benches.
#include <cstdio>

#include "bench_common.hpp"
#include "dvmc/hw_cost.hpp"
#include "dvmc/verification_cache.hpp"

namespace dvmc {
namespace {

int run() {
  bench::header("Table 6.3", "DVMC hardware cost");

  HwCostInputs paper;
  paper.numNodes = 8;
  paper.l1 = {128, 4};   // 32 KB I+D class
  paper.l2 = {4096, 4};  // 1 MB
  paper.vcWords = 32;    // 256 B VC (paper: 32-256 B structures)
  paper.lsqEntries = 64;
  paper.writeBufferEntries = 64;
  std::printf("Paper-scale configuration (1 MB L2 per node):\n%s\n",
              computeHwCost(paper).toString().c_str());

  HwCostInputs sim;
  sim.numNodes = 8;
  sim.l1 = {64, 2};
  sim.l2 = {256, 4};
  sim.vcWords = kVcWordCapacity;
  std::printf("Simulated configuration (64 KB L2 per node):\n%s\n",
              computeHwCost(sim).toString().c_str());

  std::printf(
      "Paper reference points: CET ~70 KB/node, MET ~102 KB/controller\n"
      "(even-spread occupancy; our MET figure is the worst case with every\n"
      "cached block homed at one controller — divide by the node count for\n"
      "the even-spread estimate).\n");
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_tab_hw_cost",
      "Section 6.3: hardware cost of the DVMC checkers");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_tab_hw_cost");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
