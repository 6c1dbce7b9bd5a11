#include "system/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"
#include "obs/spans.hpp"
#include "system/system.hpp"
#include "verify/trace.hpp"

namespace dvmc {

namespace {

std::uint64_t steadyMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// --capture-trace support: the first completed capture of the process
/// wins the file (mirrors the tracer's first-run-only semantics). Written
/// eagerly — unlike the report, a crash later in the harness should not
/// lose the trace that explains it.
std::atomic<bool> g_captureTraceWritten{false};

Json statJson(const RunningStat& s) {
  return Json::object()
      .set("mean", Json::num(s.mean()))
      .set("stddev", Json::num(s.stddev()))
      .set("min", Json::num(s.min()))
      .set("max", Json::num(s.max()))
      .set("count", Json::num(s.count()));
}

Json snapshotJson(const MetricSnapshot& m) {
  Json counters = Json::object();
  for (const auto& [name, v] : m.counters) counters.set(name, Json::num(v));
  Json histos = Json::object();
  for (const auto& [name, h] : m.histograms) {
    Json buckets = Json::array();
    for (std::uint64_t b : h.buckets()) buckets.push(Json::num(b));
    histos.set(name, Json::object()
                         .set("count", Json::num(h.count()))
                         .set("sum", Json::num(h.sum()))
                         .set("max", Json::num(h.maxValue()))
                         .set("p50", Json::num(h.p50()))
                         .set("p90", Json::num(h.p90()))
                         .set("p99", Json::num(h.p99()))
                         .set("buckets", std::move(buckets)));
  }
  return Json::object()
      .set("counters", std::move(counters))
      .set("histograms", std::move(histos));
}

/// One entry of the report's "runs" array.
void recordReport(const char* kind, const SystemConfig& cfg, Json result) {
  Json run = Json::object();
  run.set("kind", Json::str(kind));
  run.set("config", configJson(cfg));
  run.set("result", std::move(result));
  obs::addReportRun(std::move(run));
}

}  // namespace

Json toJson(const RunResult& r) {
  Json j = Json::object()
      .set("completed", Json::boolean(r.completed))
      .set("cycles", Json::num(r.cycles))
      .set("transactions", Json::num(r.transactions))
      .set("retiredInstructions", Json::num(r.retiredInstructions))
      .set("memOps", Json::num(r.memOps))
      .set("memOps32", Json::num(r.memOps32))
      .set("peakLinkBytesPerCycle", Json::num(r.peakLinkBytesPerCycle))
      .set("totalNetBytes", Json::num(r.totalNetBytes))
      .set("coherenceBytes", Json::num(r.coherenceBytes))
      .set("informBytes", Json::num(r.informBytes))
      .set("ckptBytes", Json::num(r.ckptBytes))
      .set("regularL1Misses", Json::num(r.regularL1Misses))
      .set("replayL1Misses", Json::num(r.replayL1Misses))
      .set("detections", Json::num(r.detections))
      .set("recoveries", Json::num(r.recoveries))
      .set("unrecoverable", Json::num(r.unrecoverable))
      .set("squashes", Json::num(r.squashes))
      .set("uoFlushes", Json::num(r.uoFlushes))
      .set("metrics", snapshotJson(r.metrics));
  if (r.series) j.set("series", r.series->toJson());
  return j;
}

Json toJson(const MultiRunResult& r) {
  return Json::object()
      .set("allCompleted", Json::boolean(r.allCompleted))
      .set("cycles", statJson(r.cycles))
      .set("peakLinkBytesPerCycle", statJson(r.peakLinkBytesPerCycle))
      .set("replayMissRatio", statJson(r.replayMissRatio))
      .set("frac32", statJson(r.frac32))
      .set("detections", Json::num(r.detections))
      .set("squashes", Json::num(r.squashes))
      .set("metrics", snapshotJson(r.metrics));
}

Json configJson(const SystemConfig& cfg) {
  return Json::object()
      .set("numNodes", Json::num(static_cast<std::uint64_t>(cfg.numNodes)))
      .set("protocol", Json::str(protocolName(cfg.protocol)))
      .set("model", Json::str(modelName(cfg.model)))
      .set("dvmc",
           Json::object()
               .set("uniprocOrdering",
                    Json::boolean(cfg.dvmc.uniprocOrdering))
               .set("allowableReordering",
                    Json::boolean(cfg.dvmc.allowableReordering))
               .set("cacheCoherence", Json::boolean(cfg.dvmc.cacheCoherence)))
      .set("coherenceChecker",
           Json::str(cfg.coherenceChecker ==
                             SystemConfig::CoherenceCheckerKind::kEpoch
                         ? "epoch"
                         : "shadow"))
      .set("berEnabled", Json::boolean(cfg.berEnabled))
      .set("autoRecover", Json::boolean(cfg.autoRecover))
      .set("workload", Json::str(workloadName(cfg.workload)))
      .set("seed", Json::num(cfg.seed))
      .set("targetTransactions", Json::num(cfg.targetTransactions));
}

void armCaptureFromObs(SystemConfig& cfg) {
  const obs::ObsOptions& opts = obs::options();
  if (opts.captureTraceFile.empty()) return;
  // autoRecover re-executes instructions after rollback, which would
  // duplicate trace history; leave capture off rather than abort the run.
  if (cfg.autoRecover) return;
  cfg.trace.capture = true;
  cfg.trace.captureLimit = opts.captureTraceLimit;
}

void writeCaptureFileOnce(
    const std::shared_ptr<const verify::CapturedTrace>& trace) {
  if (!trace) return;
  const obs::ObsOptions& opts = obs::options();
  if (opts.captureTraceFile.empty()) return;
  if (g_captureTraceWritten.exchange(true)) return;
  std::string err;
  if (!verify::writeTraceFile(opts.captureTraceFile, *trace, &err)) {
    obs::logError("runner", "cannot write capture-trace file",
                  Json::object().set("error", Json::str(err)));
  } else {
    obs::logInfo(
        "runner", "wrote capture trace",
        Json::object()
            .set("records", Json::num(std::uint64_t{trace->records.size()}))
            .set("file", Json::str(opts.captureTraceFile)));
  }
}

RunResult runOnce(const SystemConfig& cfg) {
  SystemConfig c = cfg;
  armCaptureFromObs(c);
  std::optional<System> sys;
  {
    obs::ScopedSpan span("build");
    sys.emplace(c);
  }
  RunResult r;
  {
    obs::ScopedSpan span("run");
    r = sys->run();
  }
  {
    obs::ScopedSpan span("capture");
    writeCaptureFileOnce(r.trace);
  }
  if (obs::reportingActive()) {
    obs::ScopedSpan span("report");
    recordReport("runOnce", c, toJson(r));
  }
  return r;
}

namespace {

std::atomic<int> g_defaultJobs{0};  // 0 = not yet initialized

int initialDefaultJobs() {
  if (const char* env = std::getenv("DVMC_JOBS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return static_cast<int>(ThreadPool::hardwareWorkers());
}

}  // namespace

int defaultJobs() {
  int v = g_defaultJobs.load(std::memory_order_relaxed);
  if (v == 0) {
    v = initialDefaultJobs();
    g_defaultJobs.store(v, std::memory_order_relaxed);
  }
  return v;
}

void setDefaultJobs(int jobs) {
  g_defaultJobs.store(jobs > 0 ? jobs : 0, std::memory_order_relaxed);
}

int resolveJobs(const SystemConfig& cfg) {
  return cfg.jobs > 0 ? cfg.jobs : defaultJobs();
}

void addRunnerFlags(CliParser& cli) {
  cli.optionFn("--jobs", "N",
               "worker threads for multi-seed runs (default: DVMC_JOBS or "
               "hardware concurrency)",
               [](const std::string& v) -> std::string {
                 const int jobs = std::atoi(v.c_str());
                 if (jobs > 0) setDefaultJobs(jobs);
                 return {};
               })
      .alias("-j");
}

MultiRunResult runSeeds(SystemConfig cfg, int seedCount,
                        std::uint64_t seedBase) {
  // Fan the independent per-seed simulations out across workers; results
  // land in a slot per seed so the merge below is in seed order and the
  // aggregated statistics match a sequential run bit for bit.
  armCaptureFromObs(cfg);
  std::vector<RunResult> results(static_cast<std::size_t>(seedCount));
  const int jobs = resolveJobs(cfg);
  const std::size_t total = static_cast<std::size_t>(seedCount);
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> detectionsSoFar{0};
  std::atomic<std::uint64_t> lastProgressMs{0};
  obs::StatusWriter* status = obs::activeStatusWriter();
  const std::uint64_t startedMs = steadyMs();
  if (status != nullptr) {
    status->update(Json::object()
                       .set("phase", Json::str("runSeeds"))
                       .set("state", Json::str("running"))
                       .set("total", Json::num(std::uint64_t{total}))
                       .set("done", Json::num(std::uint64_t{0})),
                   /*force=*/true);
  }
  parallelFor(
      static_cast<std::size_t>(seedCount), static_cast<unsigned>(jobs),
      [&](std::size_t s) {
        SystemConfig c = cfg;
        c.seed = seedBase + static_cast<std::uint64_t>(s);
        // A tracer is single-threaded state: only the first seed records.
        // Same for a trace sink: later seeds keep their captures in
        // memory instead.
        if (s != 0) {
          c.tracer = nullptr;
          c.trace.sink = nullptr;
          c.trace.keepInMemory = true;
        }
        // Per-seed results are folded into one report entry below, not
        // recorded individually — build the System directly.
        const std::uint64_t seedStartMs = steadyMs();
        {
          obs::ScopedSpan span("run");
          System sys(c);
          results[s] = sys.run();
        }
        const RunResult& r = results[s];
        const std::size_t done = completed.fetch_add(1) + 1;
        detectionsSoFar.fetch_add(r.detections, std::memory_order_relaxed);
        const std::uint64_t now = steadyMs();
        // Per-seed progress is debug-level (off by default — the merged
        // output stays bit-identical either way) and rate-limited to one
        // record per 100 ms, except the final seed which always logs.
        if (obs::Logger::instance().enabled(obs::LogLevel::kDebug)) {
          std::uint64_t last = lastProgressMs.load(std::memory_order_relaxed);
          const bool due = now - last >= 100 || done == total;
          if (due && (lastProgressMs.compare_exchange_strong(last, now) ||
                      done == total)) {
            obs::logDebug(
                "runner", "seed finished",
                Json::object()
                    .set("seed", Json::num(c.seed))
                    .set("cycles", Json::num(r.cycles))
                    .set("detections", Json::num(r.detections))
                    .set("wallMs", Json::num(now - seedStartMs))
                    .set("done", Json::num(std::uint64_t{done}))
                    .set("total", Json::num(std::uint64_t{total})));
          }
        }
        if (status != nullptr) {
          const std::uint64_t elapsed = now - startedMs;
          const std::uint64_t eta =
              done > 0 ? elapsed * (total - done) / done : 0;
          status->update(
              Json::object()
                  .set("phase", Json::str("runSeeds"))
                  .set("state",
                       Json::str(done == total ? "done" : "running"))
                  .set("total", Json::num(std::uint64_t{total}))
                  .set("done", Json::num(std::uint64_t{done}))
                  .set("detections",
                       Json::num(detectionsSoFar.load(
                           std::memory_order_relaxed)))
                  .set("elapsedMs", Json::num(elapsed))
                  .set("etaMs", Json::num(eta)),
              /*force=*/done == total);
        }
      });

  MultiRunResult out;
  if (cfg.trace.capture) {
    obs::ScopedSpan span("capture");
    out.traces.reserve(results.size());
    for (const RunResult& r : results) out.traces.push_back(r.trace);
    // The file mirrors the first seed's capture, like the tracer/series.
    if (!results.empty()) writeCaptureFileOnce(results[0].trace);
  }
  for (const RunResult& r : results) {
    out.cycles.addTracked(static_cast<double>(r.cycles));
    out.seedCycles.push_back(r.cycles);
    out.peakLinkBytesPerCycle.addTracked(r.peakLinkBytesPerCycle);
    if (r.regularL1Misses > 0) {
      out.replayMissRatio.addTracked(static_cast<double>(r.replayL1Misses) /
                                     static_cast<double>(r.regularL1Misses));
    }
    if (r.memOps > 0) {
      out.frac32.addTracked(static_cast<double>(r.memOps32) /
                            static_cast<double>(r.memOps));
    }
    out.detections += r.detections;
    out.squashes += r.squashes;
    out.allCompleted = out.allCompleted && r.completed;
    out.metrics.merge(r.metrics);
  }
  if (obs::reportingActive()) {
    obs::ScopedSpan span("report");
    Json merged = toJson(out);
    merged.set("seedBase", Json::num(seedBase));
    merged.set("seedCount", Json::num(static_cast<std::int64_t>(seedCount)));
    // Interval samples are a per-run signal, not a mergeable statistic:
    // the report carries the first seed's series (the traced run).
    if (!results.empty() && results[0].series) {
      merged.set("series", results[0].series->toJson());
    }
    recordReport("runSeeds", cfg, std::move(merged));
  }
  return out;
}

std::string MultiRunResult::summary() const {
  std::ostringstream os;
  os << "cycles=" << static_cast<std::uint64_t>(cycles.mean()) << " (+/- "
     << static_cast<std::uint64_t>(cycles.stddev()) << ")";
  if (!allCompleted) os << " [INCOMPLETE]";
  return os.str();
}

int benchSeedCount() {
  if (const char* env = std::getenv("DVMC_BENCH_SEEDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 3;
}

std::uint64_t benchTransactionTarget() {
  if (const char* env = std::getenv("DVMC_BENCH_TXNS")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 300;
}

}  // namespace dvmc
