// Property/fuzz sweep: randomized workload parameterizations across random
// system configurations. The invariant under test is the project's core
// claim — fault-free runs complete with zero checker detections — pushed
// across a much wider parameter space than the curated presets, plus the
// differential half of the story: the offline oracle, given the run's
// commit trace, must agree that the execution was consistent. A checker
// detection without an oracle violation would be a false alarm; an oracle
// violation without a detection would be a checker escape. Like the
// campaign, each run ends with the checker drain, which must stay silent
// too.
#include <gtest/gtest.h>

#include <string>

#include "system/runner.hpp"
#include "system/system.hpp"
#include "verify/oracle.hpp"
#include "workload/fuzz_config.hpp"

namespace dvmc {
namespace {

class RandomizedConfig : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedConfig, FaultFreeRunIsClean) {
  SystemConfig cfg = makeFuzzConfig(GetParam());
  cfg.trace.capture = true;

  System sys(cfg);
  RunResult r = sys.run();
  EXPECT_TRUE(r.completed)
      << "hang: nodes=" << cfg.numNodes << " l2sets=" << cfg.l2.sets
      << " model=" << modelName(cfg.model)
      << " proto=" << protocolName(cfg.protocol);
  sys.drainCheckers();
  r = sys.collectResult(r.completed, r.cycles);
  EXPECT_EQ(r.detections, 0u)
      << (sys.sink().any() ? sys.sink().first().what : "") << " nodes="
      << cfg.numNodes << " l2sets=" << cfg.l2.sets << " ways=" << cfg.l2.ways
      << " model=" << modelName(cfg.model)
      << " proto=" << protocolName(cfg.protocol)
      << " checker=" << (cfg.coherenceChecker ==
                                 SystemConfig::CoherenceCheckerKind::kShadow
                             ? "shadow"
                             : "epoch");

  // Differential check: the offline oracle must independently agree.
  ASSERT_NE(r.trace, nullptr);
  const verify::OracleResult o = verify::checkTrace(*r.trace);
  EXPECT_TRUE(o.clean)
      << "oracle disagrees with clean checkers (false positive): "
      << (o.violations.empty() ? "?" : o.violations[0].message)
      << " model=" << modelName(cfg.model)
      << " proto=" << protocolName(cfg.protocol)
      << " nodes=" << cfg.numNodes;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomizedConfig, ::testing::Range(0, 24));

// Campaign configs that once raised a false alarm: snooping with the shadow
// checker, where a grant ordered after a pending writeback reached the
// home observer before the writeback did.
INSTANTIATE_TEST_SUITE_P(
    Campaign, RandomizedConfig, ::testing::Values(190, 410),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::to_string(info.param);
    });

}  // namespace
}  // namespace dvmc
