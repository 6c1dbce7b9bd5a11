#include "obs/run_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "common/version.hpp"
#include "obs/crash_handler.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "obs/spans.hpp"

namespace dvmc::obs {

namespace {

struct Collector {
  std::mutex mu;
  std::vector<Json> runs;
  std::unique_ptr<EventTracer> tracer;
  std::unique_ptr<ForensicsRecorder> forensics;
};

Collector& collector() {
  static Collector c;
  return c;
}

}  // namespace

ObsOptions& options() {
  static ObsOptions opts;
  return opts;
}

bool parsePositiveCount(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;  // 19 digits < 2^63
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0) return false;
  *out = v;
  return true;
}

std::string validateWritablePath(const std::string& path) {
  if (path.empty()) return "empty output path";
  // Append mode: verifies writability (creating the file if absent)
  // without clobbering existing content before finalizeObs truncates it.
  std::ofstream probe(path, std::ios::app);
  if (!probe) return "cannot open '" + path + "' for writing";
  return {};
}

void addObsFlags(CliParser& cli, const char* noCaptureReason) {
  // Every binary on the shared flag surface gets crash-surviving
  // artifacts: the handler chains to the previous disposition, so it is
  // invisible unless --log-json / --status-file are armed and the process
  // takes a fatal signal.
  installCrashHandler();
  ObsOptions& opts = options();
  cli.path("--trace", &opts.traceFile, "FILE",
           "record a Chrome trace_event JSON event trace of the run");
  cli.count("--trace-capacity", &opts.traceCapacity, "N",
            "event-trace ring size in events");
  cli.path("--report-json", &opts.reportJsonFile, "FILE",
           "write every experiment result as a dvmc-run-report document");
  cli.path("--forensics", &opts.forensicsFile, "FILE",
           "capture a forensics bundle on every checker detection");
  cli.count("--forensics-window", &opts.forensicsWindow, "K",
            "trace events kept around each detection");
  cli.count("--sample-every", &opts.sampleEvery, "N",
            "snapshot telemetry counters every N cycles into the report");
  cli.count("--sample-capacity", &opts.sampleCapacity, "M",
            "telemetry ring size in rows");
  if (noCaptureReason == nullptr) {
    cli.path("--capture-trace", &opts.captureTraceFile, "FILE",
             "record the first run's commit-point memory-op trace "
             "(dvmc-trace)");
  } else {
    const std::string why = noCaptureReason;
    cli.optionFn("--capture-trace", "FILE", "refused: " + why,
                 [why](const std::string&) { return why; });
  }
  cli.count("--capture-trace-limit", &opts.captureTraceLimit, "N",
            "max records before the capture is marked truncated");
  cli.optionFn("--log-level", "LEVEL",
               "minimum structured-log level: debug, info, warn, error, or off "
               "(default: info)",
               [&opts](const std::string& v) -> std::string {
                 LogLevel level;
                 if (!parseLogLevel(v, &level)) {
                   return "'" + v +
                          "' is not a log level "
                          "(debug|info|warn|error|off)";
                 }
                 opts.logLevel = v;
                 Logger::instance().setLevel(level);
                 return {};
               });
  cli.optionFn("--log-json", "FILE",
               "stream structured log records to FILE as dvmc-log JSONL",
               [&opts](const std::string& v) -> std::string {
                 if (v.empty()) return "empty output path";
                 if (!Logger::instance().openJsonl(v)) {
                   return "cannot open '" + v + "' for writing";
                 }
                 opts.logJsonFile = v;
                 return {};
               });
  cli.path("--profile-out", &opts.profileOutFile, "FILE",
           "write span-profiler collapsed stacks (speedscope-compatible)");
  cli.path("--status-file", &opts.statusFile, "FILE",
           "atomically rewrite a live dvmc-status snapshot during the run");
}

EventTracer* activeTracer() {
  Collector& c = collector();
  if (options().traceFile.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(c.mu);
  if (!c.tracer) {
    c.tracer = std::make_unique<EventTracer>(options().traceCapacity);
  }
  return c.tracer.get();
}

ForensicsRecorder* activeForensics() {
  Collector& c = collector();
  if (options().forensicsFile.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(c.mu);
  if (!c.forensics) {
    ForensicsConfig cfg;
    cfg.windowEvents = options().forensicsWindow;
    c.forensics = std::make_unique<ForensicsRecorder>(cfg);
  }
  return c.forensics.get();
}

bool reportingActive() { return !options().reportJsonFile.empty(); }

void addReportRun(Json run) {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.runs.push_back(std::move(run));
}

std::size_t reportRunCount() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.runs.size();
}

void resetObs() {
  Collector& c = collector();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    c.runs.clear();
    c.tracer.reset();
    c.forensics.reset();
    options() = ObsOptions{};
  }
  resetStatusWriterForTests();
  Logger::instance().closeJsonl();
}

Json reportEnvelope(Json runs) {
  Json root = Json::object();
  root.set("schema", Json::str(kReportSchemaName));
  root.set("version", Json::num(std::uint64_t{kReportSchemaVersion}));
  root.set("generator", Json::str(versionString()));
  root.set("runs", std::move(runs));
  // v2 sections: host footprint always; the phase-profile tree when any
  // ScopedSpan closed during this process.
  root.set("resource", sampleResourceUsage().toJson());
  SpanProfiler& prof = SpanProfiler::instance();
  if (!prof.empty()) root.set("profile", prof.toJson());
  return root;
}

int finalizeObs() {
  int rc = 0;
  const ObsOptions& opts = options();
  Collector& c = collector();

  if (!opts.traceFile.empty()) {
    std::ofstream os(opts.traceFile);
    EventTracer* t = activeTracer();
    if (!os || t == nullptr) {
      logError("obs", "cannot write trace file",
               Json::object().set("file", Json::str(opts.traceFile)));
      rc = 1;
    } else {
      // Harness phase spans ride along on their own µs track; replayed
      // here, single-threaded, because the tracer is not thread-safe.
      if (!SpanProfiler::instance().empty()) flushPhaseSpans(*t);
      t->writeChromeJson(os);
      logInfo("obs", "wrote event trace",
              Json::object()
                  .set("file", Json::str(opts.traceFile))
                  .set("events", Json::num(std::uint64_t{t->size()}))
                  .set("dropped", Json::num(t->dropped())));
    }
  }

  if (!opts.reportJsonFile.empty()) {
    std::ofstream os(opts.reportJsonFile);
    if (!os) {
      logError("obs", "cannot write report file",
               Json::object().set("file", Json::str(opts.reportJsonFile)));
      rc = 1;
    } else {
      Json runs = Json::array();
      std::size_t count = 0;
      {
        std::lock_guard<std::mutex> lock(c.mu);
        count = c.runs.size();
        for (Json& r : c.runs) runs.push(std::move(r));
        c.runs.clear();
      }
      reportEnvelope(std::move(runs)).write(os, 2);
      os << "\n";
      logInfo("obs", "wrote run report",
              Json::object()
                  .set("file", Json::str(opts.reportJsonFile))
                  .set("runs", Json::num(std::uint64_t{count})));
    }
  }

  if (!opts.forensicsFile.empty()) {
    std::ofstream os(opts.forensicsFile);
    ForensicsRecorder* f = activeForensics();
    if (!os || f == nullptr) {
      logError("obs", "cannot write forensics file",
               Json::object().set("file", Json::str(opts.forensicsFile)));
      rc = 1;
    } else {
      f->writeTo(os);
      logInfo("obs", "wrote forensics bundles",
              Json::object()
                  .set("file", Json::str(opts.forensicsFile))
                  .set("bundles", Json::num(std::uint64_t{f->bundleCount()}))
                  .set("dropped", Json::num(f->droppedBundles())));
    }
  }

  if (!opts.profileOutFile.empty()) {
    std::ofstream os(opts.profileOutFile);
    if (!os) {
      logError("obs", "cannot write profile file",
               Json::object().set("file", Json::str(opts.profileOutFile)));
      rc = 1;
    } else {
      SpanProfiler::instance().writeCollapsed(os);
      logInfo("obs", "wrote collapsed-stack profile",
              Json::object().set("file", Json::str(opts.profileOutFile)));
    }
  }

  // Last: further records go to stderr/ring only once the JSONL sink is
  // closed, so the "wrote ..." lines above still land in the log file.
  Logger::instance().closeJsonl();
  return rc;
}

}  // namespace dvmc::obs
