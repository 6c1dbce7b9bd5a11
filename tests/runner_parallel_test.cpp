// Tests for the parallel experiment runner: the thread pool itself, and the
// determinism contract that a parallel runSeeds merges bit-identically to a
// sequential one. Also the TSan smoke target in CI (see ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "system/runner.hpp"

namespace dvmc {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workerCount(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
  pool.submit([&] { ++ran; });
  pool.submit([&] { ++ran; });
  pool.wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

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
  EXPECT_EQ(seq.squashes, par.squashes);
  EXPECT_EQ(seq.allCompleted, par.allCompleted);
  EXPECT_TRUE(seq.allCompleted);

  // Each seed's cycles, in seed order: the pairs the figure benches divide.
  ASSERT_EQ(seq.seedCycles.size(), 4u);
  EXPECT_EQ(seq.seedCycles, par.seedCycles);
  SystemConfig second = smallConfig();
  second.seed = 2;
  EXPECT_EQ(par.seedCycles[1], runOnce(second).cycles);

  // The merged metric snapshot (typed registry) obeys the same contract:
  // seed-order merging makes the parallel fan-out bit-identical.
  EXPECT_FALSE(seq.metrics.counters.empty());
  EXPECT_GT(seq.metrics.value("cpu.retired"), 0u);
  EXPECT_GT(seq.metrics.value("cet.accessChecks"), 0u);
  EXPECT_TRUE(seq.metrics == par.metrics);
}

TEST(RunSeedsParallel, OversubscribedJobsStillDeterministic) {
  SystemConfig cfg = smallConfig();
  cfg.workload = WorkloadKind::kSlash;
  cfg.jobs = 1;
  const MultiRunResult seq = runSeeds(cfg, 3, /*seedBase=*/11);
  cfg.jobs = 8;  // more workers than seeds
  const MultiRunResult par = runSeeds(cfg, 3, /*seedBase=*/11);
  expectBitIdentical(seq.cycles, par.cycles, "cycles");
  EXPECT_EQ(seq.squashes, par.squashes);
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

  ASSERT_EQ(seq.traces.size(), 3u);
  ASSERT_EQ(par.traces.size(), 3u);
  for (std::size_t s = 0; s < seq.traces.size(); ++s) {
    ASSERT_NE(seq.traces[s], nullptr) << "seed " << s;
    ASSERT_NE(par.traces[s], nullptr) << "seed " << s;
    EXPECT_GT(seq.traces[s]->records.size(), 0u) << "seed " << s;
    EXPECT_EQ(seq.traces[s]->serialize(), par.traces[s]->serialize())
        << "seed " << s;
  }
}

// Capture off: the traces vector stays empty and RunResult::trace null.
TEST(RunSeedsParallel, NoTracesUnlessCaptureArmed) {
  SystemConfig cfg = smallConfig();
  const MultiRunResult r = runSeeds(cfg, 2);
  EXPECT_TRUE(r.traces.empty());
}

}  // namespace
}  // namespace dvmc
