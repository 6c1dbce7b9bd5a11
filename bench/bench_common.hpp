// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's evaluation
// (Section 6). Output convention: a header describing the experiment, then
// one whitespace-aligned row per series point with mean and stddev over
// DVMC_BENCH_SEEDS perturbation runs (paper: ten runs; default here: 3).
// Environment knobs: DVMC_BENCH_SEEDS, DVMC_BENCH_TXNS.
//
// Machine-readable output: every bench accepts `--json <path>` (parsed by
// parseStandardFlags) and writes a "dvmc-bench" document — one row per
// measured configuration with its throughput (events/sec) and host wall
// time — which the CI perf gate diffs against a checked-in baseline. See
// docs/performance.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "common/version.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "obs/spans.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"

namespace dvmc::bench {

// --- dvmc-bench JSON output (--json <path>) --------------------------------

inline constexpr int kBenchSchemaVersion = 1;
inline constexpr const char* kBenchSchemaName = "dvmc-bench";

/// One measured row: a configuration (or microbenchmark) name, its event
/// throughput, and the host wall time spent measuring it. Rows from
/// binaries built with the allocation hook (see DVMC_BENCH_ALLOC_HOOK)
/// additionally carry counted heap allocations per executed event;
/// negative means "not measured" and the key is omitted from the JSON.
struct BenchJsonRow {
  std::string name;
  double eventsPerSec = 0;
  double wallMs = 0;
  double allocsPerEvent = -1;
};

inline std::string& benchJsonPath() {
  static std::string path;
  return path;
}

inline std::vector<BenchJsonRow>& benchJsonRows() {
  static std::vector<BenchJsonRow> rows;
  return rows;
}

/// Records one result row for the --json report. Called from the bench
/// main thread (runCyclesPerSeed records automatically; google-benchmark
/// mains record from their reporter). No-op cost when --json is off is a
/// branch — callers may record unconditionally.
inline void recordBenchResult(std::string name, double eventsPerSec,
                              double wallMs, double allocsPerEvent = -1) {
  if (benchJsonPath().empty()) return;
  benchJsonRows().push_back(
      BenchJsonRow{std::move(name), eventsPerSec, wallMs, allocsPerEvent});
}

/// Writes the dvmc-bench document if --json was given. Call once at the
/// end of main, after every configuration has been measured.
inline void writeBenchJson(const char* benchId) {
  if (benchJsonPath().empty()) return;
  Json root = Json::object();
  root.set("schema", Json::str(kBenchSchemaName))
      .set("version", Json::num(kBenchSchemaVersion))
      .set("generator", Json::str(versionString()))
      .set("bench", Json::str(benchId));
  Json cfg = Json::object();
  cfg.set("seeds", Json::num(benchSeedCount()))
      .set("transactions", Json::num(benchTransactionTarget()))
      .set("jobs", Json::num(defaultJobs()));
  root.set("config", std::move(cfg));
  Json results = Json::array();
  for (const BenchJsonRow& r : benchJsonRows()) {
    Json row = Json::object();
    row.set("name", Json::str(r.name))
        .set("eventsPerSec", Json::num(r.eventsPerSec))
        .set("wallMs", Json::num(r.wallMs));
    if (r.allocsPerEvent >= 0) {
      row.set("allocsPerEvent", Json::num(r.allocsPerEvent));
    }
    results.push(std::move(row));
  }
  root.set("results", std::move(results));
  std::ofstream out(benchJsonPath(), std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write --json file '%s'\n",
                 benchJsonPath().c_str());
    std::exit(2);
  }
  out << root.dump(2) << "\n";
  std::printf("\n[json] wrote %zu result rows to %s\n", benchJsonRows().size(),
              benchJsonPath().c_str());
}

/// Registers the bench flag group (--json) on a CliParser: the dvmc-bench
/// machine-readable output the CI perf gate diffs against its baseline.
inline void addBenchFlags(CliParser& cli) {
  cli.path("--json", &benchJsonPath(), "FILE",
           "write a dvmc-bench JSON document with one row per measured "
           "configuration");
}

inline std::uint64_t targetFor(WorkloadKind wl) {
  // Barnes runs to completion: the target counts per-thread phases.
  if (wl == WorkloadKind::kBarnes) return 4;
  return benchTransactionTarget();
}

inline const std::vector<WorkloadKind>& paperWorkloads() {
  static const std::vector<WorkloadKind> kAll = {
      WorkloadKind::kApache, WorkloadKind::kOltp, WorkloadKind::kJbb,
      WorkloadKind::kSlash, WorkloadKind::kBarnes};
  return kAll;
}

inline const std::vector<ConsistencyModel>& allModels() {
  static const std::vector<ConsistencyModel> kAll = {
      ConsistencyModel::kSC, ConsistencyModel::kTSO, ConsistencyModel::kPSO,
      ConsistencyModel::kRMO};
  return kAll;
}

inline SystemConfig benchConfig(Protocol p, ConsistencyModel m,
                                WorkloadKind wl, bool dvmcOn, bool berOn) {
  SystemConfig cfg = dvmcOn ? SystemConfig::withDvmc(p, m)
                            : SystemConfig::unprotected(p, m);
  cfg.berEnabled = berOn;
  cfg.numNodes = 8;
  cfg.workload = wl;
  cfg.targetTransactions = targetFor(wl);
  cfg.maxCycles = 200'000'000;
  // --trace=FILE arms a process-global tracer; runSeeds (and so
  // runCyclesPerSeed) hands it to the first seed's run only. The forensics
  // recorder is mutex-guarded, so every seed shares it.
  cfg.tracer = obs::activeTracer();
  cfg.forensics = obs::activeForensics();
  cfg.sampleEvery = obs::options().sampleEvery;
  cfg.sampleCapacity = obs::options().sampleCapacity;
  return cfg;
}

/// Standard flag handling for every bench main: one strict CliParser
/// carrying the runner (--jobs), bench (--json), and observability flag
/// groups, with auto --help and unknown-flag exit(2). Pass
/// `gbenchPassthrough` for google-benchmark binaries so their
/// --benchmark_* flags survive for benchmark::Initialize.
inline int parseStandardFlags(int argc, char** argv, const char* name,
                              const char* what,
                              bool gbenchPassthrough = false) {
  CliParser cli(name, what);
  addRunnerFlags(cli);
  addBenchFlags(cli);
  obs::addObsFlags(cli);
  if (gbenchPassthrough) cli.passthroughPrefix("--benchmark_");
  return cli.parse(argc, argv);
}

/// Short config label for dvmc-bench rows, e.g. "directory/TSO/apache/dvmc+ber".
inline std::string configLabel(const SystemConfig& cfg) {
  std::string s = protocolName(cfg.protocol);
  s += '/';
  s += modelName(cfg.model);
  s += '/';
  s += workloadName(cfg.workload);
  s += cfg.dvmc.anyChecker() ? "/dvmc" : "/unprot";
  if (cfg.berEnabled) s += "+ber";
  return s;
}

inline void header(const char* id, const char* what) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("  nodes=8, seeds=%d, transactions=%llu (barnes: 4 phases), "
              "jobs=%d\n",
              benchSeedCount(),
              static_cast<unsigned long long>(benchTransactionTarget()),
              defaultJobs());
  std::printf("==========================================================\n");
}

/// Prints one normalized-runtime cell: mean (+/- std), both normalized.
inline std::string normCell(const RunningStat& s, double baseMean) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%5.2f +-%4.2f", s.mean() / baseMean,
                s.stddev() / baseMean);
  return buf;
}

/// Per-seed runtimes for paired comparisons: runtime noise between seeds is
/// much larger than between configurations, so ratios are taken seed by
/// seed (the paper's perturbation pairs) before aggregating. The seeds run
/// through runSeeds (in parallel, --jobs), so the tracer, the trace sink and
/// the --capture-trace file belong to seed 1, and the cycles come back in
/// seed order.
inline std::vector<double> runCyclesPerSeed(SystemConfig cfg, int seeds,
                                            std::uint64_t* detections = nullptr) {
  obs::ScopedSpan span("bench-config");
  const auto wallStart = std::chrono::steady_clock::now();
  const MultiRunResult r = runSeeds(cfg, seeds);
  if (detections != nullptr) *detections += r.detections;
  if (!benchJsonPath().empty()) {
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wallStart)
            .count();
    // "events" for a full-system sweep = simulated cycles across all
    // seeds; eventsPerSec is thus host simulation throughput.
    const std::uint64_t simCycles = std::accumulate(
        r.seedCycles.begin(), r.seedCycles.end(), std::uint64_t{0});
    const double eps =
        wallMs > 0 ? static_cast<double>(simCycles) * 1e3 / wallMs : 0;
    recordBenchResult(configLabel(cfg), eps, wallMs);
  }
  return std::vector<double>(r.seedCycles.begin(), r.seedCycles.end());
}

inline RunningStat pairedRatio(const std::vector<double>& variant,
                               const std::vector<double>& base) {
  RunningStat s;
  for (std::size_t i = 0; i < variant.size() && i < base.size(); ++i) {
    if (base[i] > 0) s.addTracked(variant[i] / base[i]);
  }
  return s;
}

inline std::string ratioCell(const RunningStat& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%5.2f +-%4.2f", s.mean(), s.stddev());
  return buf;
}

// --- allocation-counting operator-new hook (DVMC_BENCH_ALLOC_HOOK) ---------
//
// bench_micro_sim proves the event kernel's zero-allocation claim by
// *counting*, not assuming: the binary defines DVMC_BENCH_ALLOC_HOOK before
// including this header, which replaces the global allocation functions
// with counting wrappers. Each bench binary is a single translation unit,
// so the replacement is well-defined and program-wide (it counts the
// harness too — which is the point: resetAllocCount() right before the
// measured region, and any stray heap traffic shows up in the quotient).
// Counting is a relaxed atomic increment, cheap enough to leave always-on
// in hooked binaries.

inline std::atomic<std::uint64_t>& allocHookCounter() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Heap allocations observed since the last resetAllocCount(). Always 0 in
/// binaries built without DVMC_BENCH_ALLOC_HOOK.
inline std::uint64_t allocCount() {
  return allocHookCounter().load(std::memory_order_relaxed);
}

inline void resetAllocCount() {
  allocHookCounter().store(0, std::memory_order_relaxed);
}

}  // namespace dvmc::bench

#if defined(DVMC_BENCH_ALLOC_HOOK)

void* operator new(std::size_t size) {
  dvmc::bench::allocHookCounter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  dvmc::bench::allocHookCounter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void* operator new(std::size_t size, std::align_val_t align) {
  dvmc::bench::allocHookCounter().fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // DVMC_BENCH_ALLOC_HOOK
