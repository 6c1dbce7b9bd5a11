// Machine-readable run reports + shared observability CLI (obs subsystem).
//
// Every bench/example binary exposes the same observability flags:
//
//   --trace=FILE          record an event trace of the run (Chrome
//                         trace_event JSON; open in chrome://tracing)
//   --trace-capacity=N    trace ring size in events (default 65536)
//   --report-json=FILE    write every experiment result as a versioned
//                         JSON run report ("dvmc-run-report", version 2)
//   --forensics=FILE      capture a forensics bundle on every checker
//                         detection ("dvmc-forensics", version 1)
//   --forensics-window=K  trace events kept around each detection
//   --sample-every=N      snapshot telemetry counters every N cycles into
//                         the run report's "series" section
//   --sample-capacity=M   telemetry ring size in rows (default 4096)
//   --capture-trace=FILE  record the commit-point memory-op trace of the
//                         first run/seed ("dvmc-trace" binary, version 1),
//                         written once that run ends, for the offline
//                         consistency oracle (dvmc_oracle)
//   --capture-trace-limit=N  max records before the capture is marked
//                         truncated (default 4194304)
//   --log-level=LEVEL     minimum level for structured log records
//                         (debug|info|warn|error|off; default info)
//   --log-json=FILE       stream structured log records as JSONL
//                         ("dvmc-log", one flushed object per line)
//   --profile-out=FILE    write the span profiler's collapsed stacks
//                         (speedscope / flamegraph.pl compatible)
//   --status-file=FILE    atomically rewrite a live dvmc-status JSON
//                         snapshot during runSeeds / campaign runs
//
// The group is registered on the shared CliParser via addObsFlags (see
// common/cli.hpp); every binary's --help renders the same table, and
// docs/observability.md embeds it via --help-markdown. Values are
// validated eagerly: a zero or non-numeric count, or an unwritable output
// path, is a clear error on stderr and exit(2) — not a silent no-op
// discovered after an hour-long run. While a report file is armed, the
// system layer records each runSeeds/runOnce result into the
// process-global collector here; finalizeObs() writes every armed file at
// the end of main. The collector is mutex-guarded because bench harnesses
// launch perturbation runs from a thread pool.
//
// Report schema (validated by the CI json check):
//   { "schema": "dvmc-run-report", "version": 2,
//     "generator": "...", "runs": [ {...}, ... ],
//     "resource": {...}, "profile": {...} }
// Version 2 adds the "resource" section (peak RSS + CPU time from the
// in-process sampler) and, when the span profiler recorded any frames,
// the "profile" aggregation tree; "generator" names the exact build
// (git describe + build type + sanitizer config).
#pragma once

#include <string>
#include <string_view>

#include "common/cli.hpp"
#include "common/types.hpp"
#include "obs/forensics.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dvmc::obs {

/// Current run-report schema version. Bump on any breaking layout change.
/// v2: "resource" + "profile" sections, build-identity "generator".
inline constexpr int kReportSchemaVersion = 2;
inline constexpr const char* kReportSchemaName = "dvmc-run-report";

struct ObsOptions {
  std::string traceFile;       // empty = tracing off
  std::string reportJsonFile;  // empty = no report
  std::string forensicsFile;   // empty = no forensics capture
  std::string captureTraceFile;  // empty = commit-trace capture off
  std::size_t traceCapacity = 1u << 16;
  std::size_t forensicsWindow = 256;   // last-K events per bundle
  Cycle sampleEvery = 0;               // 0 = time-series sampling off
  std::size_t sampleCapacity = 4096;   // telemetry ring rows
  std::size_t captureTraceLimit = std::size_t{1} << 22;  // records
  std::string logLevel = "info";  // minimum structured-log level
  std::string logJsonFile;        // empty = JSONL log sink off
  std::string profileOutFile;     // empty = collapsed-stack export off
  std::string statusFile;         // empty = live status surface off
};

ObsOptions& options();

/// Registers the observability flag group on a CliParser, targeting
/// options(). Every binary that builds its own parser calls this (plus
/// addRunnerFlags / bench::addBenchFlags) so the flag set and the --help
/// table stay identical across the fleet.
void addObsFlags(CliParser& cli);

/// Strict positive-count parser for flag values: accepts decimal digits
/// only, rejects empty, non-numeric, zero, and overflowing input.
/// CliParser::count applies the same contract to every count flag.
bool parsePositiveCount(std::string_view s, std::uint64_t* out);

/// Returns an empty string when `path` can be opened for writing (the
/// probe opens in append mode, so an existing file's content is kept
/// until finalizeObs truncates it), else a human-readable error.
std::string validateWritablePath(const std::string& path);

/// The process-global tracer when --trace was given, else nullptr. Feed
/// this into SystemConfig::tracer (benchConfig does it automatically).
EventTracer* activeTracer();

/// The process-global forensics recorder when --forensics was given, else
/// nullptr. Feed this into SystemConfig::forensics (benchConfig does it
/// automatically). Thread-safe: unlike the tracer, every perturbation
/// seed may share it.
ForensicsRecorder* activeForensics();

/// True while a --report-json file is armed; the system layer uses this to
/// skip report serialization entirely on untracked runs.
bool reportingActive();

/// Appends one run entry (an arbitrary JSON object, typically built by
/// runner.cpp's serializers) to the global report. Thread-safe.
void addReportRun(Json run);

/// Number of collected report entries (tests).
std::size_t reportRunCount();

/// Drops all collected entries and disarms every file (tests).
void resetObs();

/// Writes the armed trace, report, and forensics files. Returns 0 on
/// success, 1 if a file could not be written. Call once at the end of
/// main.
int finalizeObs();

/// Builds the versioned report envelope around `runs` (exposed for tests).
Json reportEnvelope(Json runs);

}  // namespace dvmc::obs
