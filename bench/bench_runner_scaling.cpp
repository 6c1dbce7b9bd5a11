// Scaling harness for the experiment pipeline itself (not a paper figure):
//
//  (1) Simulator kernel throughput — events/sec through the calendar-queue
//      fast path (delays < 64 cycles), the far-future heap path, and a
//      70/30 mix approximating the machine's real delay distribution.
//  (2) runSeeds wall-clock scaling — a fixed 10-seed experiment (the
//      paper's perturbation count) at increasing --jobs, verifying the
//      merged statistics are bit-identical to the sequential run at every
//      thread count and reporting seeds/sec and speedup.
//
// Knobs: DVMC_BENCH_TXNS (per-run length), DVMC_SCALING_SEEDS (default 10),
// DVMC_SCALING_EVENTS (kernel events per measurement, default 2e6).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return fallback;
}

// --- (1) kernel throughput -------------------------------------------------

// Self-rescheduling chains: `width` concurrently live events, each executing
// and rescheduling itself `delay(i)` cycles out — the kernel steady state.
template <typename DelayFn>
double kernelEventsPerSec(std::uint64_t totalEvents, DelayFn delay) {
  Simulator sim;
  constexpr int kWidth = 64;
  std::uint64_t remaining = totalEvents;
  std::function<void(int)> tick = [&](int lane) {
    if (remaining == 0) return;
    --remaining;
    sim.schedule(delay(lane), [&tick, lane] { tick(lane); });
  };
  const auto t0 = Clock::now();
  for (int lane = 0; lane < kWidth; ++lane) {
    sim.schedule(delay(lane), [&tick, lane] { tick(lane); });
  }
  sim.run();
  const double dt = seconds(t0, Clock::now());
  return static_cast<double>(sim.eventsExecuted()) / dt;
}

void benchKernel() {
  const std::uint64_t events = envU64("DVMC_SCALING_EVENTS", 2'000'000);
  std::printf("\n-- simulator kernel throughput (%llu events/case) --\n",
              static_cast<unsigned long long>(events));
  std::printf("%-28s | %12s\n", "case", "events/sec");

  const double nearRate = kernelEventsPerSec(
      events, [](int lane) { return static_cast<Cycle>(1 + lane % 48); });
  std::printf("%-28s | %12.0f\n", "near (delay 1..48)", nearRate);

  const double farRate = kernelEventsPerSec(
      events, [](int lane) { return static_cast<Cycle>(80 + lane * 7); });
  std::printf("%-28s | %12.0f\n", "far  (delay 80..521)", farRate);

  const double mixRate = kernelEventsPerSec(events, [](int lane) {
    return lane % 10 < 7 ? static_cast<Cycle>(1 + lane % 48)
                         : static_cast<Cycle>(100 + lane * 11);
  });
  std::printf("%-28s | %12.0f\n", "mixed (70/30 near/far)", mixRate);
}

// --- (2) runSeeds scaling --------------------------------------------------

bool bitIdentical(const RunningStat& a, const RunningStat& b) {
  return a.count() == b.count() &&
         std::memcmp(&a, &b, sizeof(RunningStat)) == 0;
}

bool bitIdentical(const MultiRunResult& a, const MultiRunResult& b) {
  return bitIdentical(a.cycles, b.cycles) &&
         bitIdentical(a.peakLinkBytesPerCycle, b.peakLinkBytesPerCycle) &&
         bitIdentical(a.replayMissRatio, b.replayMissRatio) &&
         bitIdentical(a.frac32, b.frac32) && a.detections == b.detections &&
         a.metrics == b.metrics && a.allCompleted == b.allCompleted;
}

int benchRunSeeds() {
  const int seeds = static_cast<int>(envU64("DVMC_SCALING_SEEDS", 10));
  SystemConfig cfg = bench::benchConfig(Protocol::kDirectory,
                                        ConsistencyModel::kTSO,
                                        WorkloadKind::kOltp,
                                        /*dvmcOn=*/true, /*berOn=*/true);
  const unsigned hw = hardwareWorkers();
  std::printf(
      "\n-- runSeeds scaling (%d seeds, oltp/directory/TSO+DVMC, hw=%u) --\n",
      seeds, hw);
  std::printf("%-6s | %10s | %10s | %8s | %s\n", "jobs", "seconds",
              "seeds/sec", "speedup", "stats vs jobs=1");

  std::vector<unsigned> jobList = {1, 2, 4};
  if (hw > 4) jobList.push_back(hw);

  MultiRunResult reference;
  double baseSec = 0.0;
  int rc = 0;
  for (unsigned jobs : jobList) {
    cfg.jobs = static_cast<int>(jobs);
    const auto t0 = Clock::now();
    const MultiRunResult r = runSeeds(cfg, seeds);
    const double dt = seconds(t0, Clock::now());
    const char* verdict = "reference";
    if (jobs == 1) {
      reference = r;
      baseSec = dt;
    } else if (bitIdentical(r, reference)) {
      verdict = "IDENTICAL";
    } else {
      verdict = "MISMATCH";
      rc = 1;
    }
    std::printf("%-6u | %10.2f | %10.2f | %7.2fx | %s\n", jobs, dt,
                static_cast<double>(seeds) / dt, baseSec / dt, verdict);
  }
  if (rc != 0) std::printf("ERROR: parallel statistics diverged\n");
  return rc;
}

int run() {
  bench::header("Runner scaling", "experiment-pipeline throughput");
  benchKernel();
  return benchRunSeeds();
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_runner_scaling",
      "scaling harness for the experiment pipeline (--jobs sweep)");
  const int rc = dvmc::run();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_runner_scaling");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
