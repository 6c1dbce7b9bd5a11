// Experiment runner: the paper runs every configuration ten times with
// small pseudo-random perturbations and reports mean +/- one standard
// deviation. Here each "perturbation" is a different workload seed.
//
// Perturbation runs share nothing — each builds its own System + Simulator
// — so runSeeds fans them out across a thread pool (SystemConfig::jobs,
// default hardware concurrency) and merges per-seed results in seed order.
// The merged statistics are bit-identical to a sequential run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "obs/json.hpp"
#include "system/config.hpp"

namespace dvmc {

struct MultiRunResult {
  RunningStat cycles;
  std::vector<std::uint64_t> seedCycles;  // each seed's cycles, seed order
  RunningStat peakLinkBytesPerCycle;
  RunningStat replayMissRatio;   // replay L1 misses / regular L1 misses
  RunningStat frac32;            // measured 32-bit op fraction (Table 8)
  std::uint64_t detections = 0;  // summed across runs (0 in error-free runs)
  std::uint64_t squashes = 0;
  bool allCompleted = true;

  /// Per-seed metric snapshots merged in seed order (bit-identical to a
  /// sequential run regardless of the worker count).
  MetricSnapshot metrics;

  /// Per-seed commit traces in seed order (each null unless
  /// SystemConfig::trace.capture; the whole vector is empty when capture
  /// was off). Feed to verify::checkTrace for offline oracle runs.
  std::vector<std::shared_ptr<const verify::CapturedTrace>> traces;

  std::string summary() const;
};

/// Builds a System from `cfg`, runs it once, returns the result.
RunResult runOnce(const SystemConfig& cfg);

// --- observability flags (obs::addObsFlags) ---

/// Wires the observability flags into `cfg`: the --trace tracer, the
/// --forensics recorder, --sample-every and --sample-capacity, and commit
/// capture when --capture-trace was given. Capture stays off under
/// autoRecover: recovery rewinds architectural state but not the
/// append-only trace. runOnce and runSeeds arm capture themselves; a main
/// that drives a System directly writes it with writeCaptureFileOnce.
void wireObsFlags(SystemConfig& cfg);

/// Writes the --capture-trace file from the first non-null trace offered
/// process-wide; later calls are no-ops.
void writeCaptureFileOnce(
    const std::shared_ptr<const verify::CapturedTrace>& trace);

/// Runs `seedCount` perturbations (seeds seedBase..seedBase+seedCount-1),
/// in parallel on resolveJobs(cfg) workers. When cfg.programFactory is set
/// and jobs > 1 it is invoked concurrently and must be thread-safe.
MultiRunResult runSeeds(SystemConfig cfg, int seedCount,
                        std::uint64_t seedBase = 1);

/// Process-wide default worker count used when cfg.jobs == 0.
/// Initialized from DVMC_JOBS if set, else hardware concurrency.
/// The bench/example binaries set this from their --jobs flag.
int defaultJobs();
void setDefaultJobs(int jobs);

/// cfg.jobs if > 0, else defaultJobs().
int resolveJobs(const SystemConfig& cfg);

/// Registers the runner flag group (--jobs/-j) on a CliParser; the value
/// feeds setDefaultJobs. Paired with obs::addObsFlags and
/// bench::addBenchFlags so every binary shares one flag surface.
void addRunnerFlags(CliParser& cli);

// --- run-report serialization (the --report-json machinery) ---
// runOnce/runSeeds feed these into the obs collector automatically while a
// report file is armed; they are public so tools can build custom reports.

/// Scalar run measurements plus the merged metric snapshot.
Json toJson(const RunResult& r);
Json toJson(const MultiRunResult& r);
/// Every SystemConfig knob that can change a run's results, nested as in
/// SystemConfig; the wiring pointers and `jobs` are left out.
Json configJson(const SystemConfig& cfg);

/// Number of perturbation runs for benches: DVMC_BENCH_SEEDS env override,
/// default 3 (the paper uses 10; 3 keeps the full harness fast).
int benchSeedCount();

/// Global transaction target for benches: DVMC_BENCH_TXNS env override.
std::uint64_t benchTransactionTarget();

}  // namespace dvmc
