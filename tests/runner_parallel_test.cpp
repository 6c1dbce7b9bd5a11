// Tests for the parallel experiment runner: parallelFor itself, and the
// determinism contract that a parallel runSeeds merges bit-identically to a
// sequential one. Also the TSan smoke target in CI (see ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel_for.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

TEST(ParallelFor, EachIndexExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 4u, 9u}) {
    std::vector<std::atomic<int>> hits(37);
    parallelFor(hits.size(), jobs, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelFor, MoreJobsThanWork) {
  std::atomic<int> sum{0};
  parallelFor(3, 16, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelFor, ZeroCountIsANoop) {
  parallelFor(0, 4, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(JobsConfig, DefaultJobsOverridable) {
  const int saved = defaultJobs();
  setDefaultJobs(3);
  EXPECT_EQ(defaultJobs(), 3);
  SystemConfig cfg;
  EXPECT_EQ(resolveJobs(cfg), 3);
  cfg.jobs = 7;
  EXPECT_EQ(resolveJobs(cfg), 7);
  setDefaultJobs(saved);
}

TEST(JobsConfig, ParseJobsFlagStripsArgs) {
  const int saved = defaultJobs();
  const auto parseJobs = [](int argc, char** argv) {
    CliParser cli("bin", "runner flags");
    cli.exitOnError(false);
    addRunnerFlags(cli);
    return cli.parse(argc, argv);
  };
  char a0[] = "bin", a1[] = "--jobs", a2[] = "5", a3[] = "oltp";
  char* argv[] = {a0, a1, a2, a3, nullptr};
  const int argc = parseJobs(4, argv);
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bin");
  EXPECT_STREQ(argv[1], "oltp");
  EXPECT_EQ(defaultJobs(), 5);

  char b0[] = "bin", b1[] = "--jobs=2";
  char* argv2[] = {b0, b1, nullptr};
  EXPECT_EQ(parseJobs(2, argv2), 1);
  EXPECT_EQ(defaultJobs(), 2);
  setDefaultJobs(saved);
}

// --- the determinism contract ---------------------------------------------

SystemConfig smallConfig() {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 40;
  cfg.maxCycles = 5'000'000;
  return cfg;
}

void expectBitIdentical(const RunningStat& a, const RunningStat& b,
                        const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(RunningStat)), 0) << what;
}

TEST(RunSeedsParallel, MatchesSequentialBitForBit) {
  SystemConfig cfg = smallConfig();
  cfg.jobs = 1;
  const MultiRunResult seq = runSeeds(cfg, 4);
  cfg.jobs = 4;
  const MultiRunResult par = runSeeds(cfg, 4);

  expectBitIdentical(seq.cycles, par.cycles, "cycles");
  expectBitIdentical(seq.peakLinkBytesPerCycle, par.peakLinkBytesPerCycle,
                     "peakLinkBytesPerCycle");
  expectBitIdentical(seq.replayMissRatio, par.replayMissRatio,
                     "replayMissRatio");
  expectBitIdentical(seq.frac32, par.frac32, "frac32");
  EXPECT_EQ(seq.detections, par.detections);
  EXPECT_EQ(seq.allCompleted, par.allCompleted);
  EXPECT_TRUE(seq.allCompleted);

  // The merged metric snapshot (typed registry) obeys the same contract:
  // seed-order merging makes the parallel fan-out bit-identical.
  EXPECT_FALSE(seq.metrics.counters.empty());
  EXPECT_GT(seq.metrics.value("cpu.retired"), 0u);
  EXPECT_GT(seq.metrics.value("cet.accessChecks"), 0u);
  EXPECT_TRUE(seq.metrics == par.metrics);
}

// runs[s] is seed seedBase + s at any worker count: each equals a System of
// that seed driven directly. The figure benches pair these runs seed by
// seed.
TEST(RunSeedsParallel, RunsHoldEachSeedInSeedOrder) {
  constexpr std::uint64_t kBase = 5;
  constexpr int kSeeds = 3;
  std::vector<RunResult> direct;
  for (int s = 0; s < kSeeds; ++s) {
    SystemConfig cfg = smallConfig();
    cfg.seed = kBase + static_cast<std::uint64_t>(s);
    System sys(cfg);
    direct.push_back(sys.run());
  }
  // Distinct seeds give distinct runs, so a reordering cannot pass.
  EXPECT_FALSE(direct[0].metrics == direct[1].metrics);
  for (int jobs : {1, 4}) {
    SystemConfig cfg = smallConfig();
    cfg.jobs = jobs;
    const MultiRunResult r = runSeeds(cfg, kSeeds, kBase);
    ASSERT_EQ(r.runs.size(), direct.size()) << "jobs " << jobs;
    for (std::size_t s = 0; s < direct.size(); ++s) {
      const RunResult& got = r.runs[s];
      EXPECT_EQ(got.cycles, direct[s].cycles) << "jobs " << jobs << " seed "
                                              << s;
      EXPECT_EQ(got.transactions, direct[s].transactions)
          << "jobs " << jobs << " seed " << s;
      EXPECT_EQ(got.memOps, direct[s].memOps)
          << "jobs " << jobs << " seed " << s;
      EXPECT_TRUE(got.metrics == direct[s].metrics)
          << "jobs " << jobs << " seed " << s;
    }
  }
}

TEST(RunSeedsParallel, OversubscribedJobsStillDeterministic) {
  SystemConfig cfg = smallConfig();
  cfg.workload = WorkloadKind::kSlash;
  cfg.jobs = 1;
  const MultiRunResult seq = runSeeds(cfg, 3, /*seedBase=*/11);
  cfg.jobs = 8;  // more workers than seeds
  const MultiRunResult par = runSeeds(cfg, 3, /*seedBase=*/11);
  expectBitIdentical(seq.cycles, par.cycles, "cycles");
  EXPECT_TRUE(seq.metrics == par.metrics);
}

TEST(RunSeedsParallel, SnoopingProtocolToo) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kSnooping,
                                            ConsistencyModel::kSC);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kJbb;
  cfg.targetTransactions = 30;
  cfg.maxCycles = 5'000'000;
  cfg.jobs = 1;
  const MultiRunResult seq = runSeeds(cfg, 3);
  cfg.jobs = 3;
  const MultiRunResult par = runSeeds(cfg, 3);
  expectBitIdentical(seq.cycles, par.cycles, "cycles");
  expectBitIdentical(seq.frac32, par.frac32, "frac32");
  EXPECT_EQ(seq.detections, par.detections);
}

// Commit-trace capture obeys the same determinism contract: the serialized
// bytes of every per-seed trace are identical whether the seeds ran on one
// worker or many (the nightly campaign's repro guarantee).
TEST(RunSeedsParallel, CapturedTracesBitIdenticalAcrossJobs) {
  SystemConfig cfg = smallConfig();
  cfg.trace.capture = true;
  cfg.jobs = 1;
  const MultiRunResult seq = runSeeds(cfg, 3);
  cfg.jobs = 4;
  const MultiRunResult par = runSeeds(cfg, 3);

  ASSERT_EQ(seq.runs.size(), 3u);
  ASSERT_EQ(par.runs.size(), 3u);
  for (std::size_t s = 0; s < seq.runs.size(); ++s) {
    const auto& a = seq.runs[s].trace;
    const auto& b = par.runs[s].trace;
    ASSERT_NE(a, nullptr) << "seed " << s;
    ASSERT_NE(b, nullptr) << "seed " << s;
    EXPECT_GT(a->records.size(), 0u) << "seed " << s;
    EXPECT_EQ(a->serialize(), b->serialize()) << "seed " << s;
  }
}

// Capture off: every run's trace stays null.
TEST(RunSeedsParallel, NoTracesUnlessCaptureArmed) {
  SystemConfig cfg = smallConfig();
  const MultiRunResult r = runSeeds(cfg, 2);
  ASSERT_EQ(r.runs.size(), 2u);
  for (const RunResult& run : r.runs) EXPECT_EQ(run.trace, nullptr);
}

}  // namespace
}  // namespace dvmc
