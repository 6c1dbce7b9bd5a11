// Differential fuzz/fault campaign driver (the nightly CI workhorse).
//
// Each campaign case regenerates a fuzz_test configuration by parameter
// index (workload/fuzz_config.hpp), runs it with commit-trace capture, and
// cross-checks the runtime DVMC checkers against the offline oracle:
//
//   clean case    no fault injected. The checkers must stay silent AND the
//                 oracle must accept the trace — a checker detection here
//                 is a false alarm, an oracle violation an oracle false
//                 positive, and either fails the campaign.
//   faulted case  a randomly drawn applicable fault type is injected
//                 (re-injected until it manifests, like the paper's §6.1
//                 campaign). If the oracle proves the committed execution
//                 inconsistent but no checker fired, that is a reproducible
//                 checker escape: the trace and a JSON description are
//                 written to --escape-dir and the campaign fails.
//
// In a faulted case, checker detections without an oracle violation are
// expected (checkers catch errors before they corrupt the committed
// history; masked faults harm nothing), so they do not fail the campaign.
//
// Each case keeps its capture in memory, judges it once with
// verify::checkTrace, and hands the same trace to its escape bundle when
// the oracle flags it.
//
// Supervision (docs/robustness.md): by default every config runs in its
// own child process (`dvmc_campaign --worker <spec-json>` self-exec), so a
// wild pointer, sanitizer abort, or livelock in one config cannot take the
// campaign down. The parent enforces a per-attempt wall-clock deadline
// (SIGTERM -> grace -> SIGKILL against the child's process group), retries
// per --attempts with deterministic exponential backoff, and writes a
// triage bundle (exit taxonomy, rlimit snapshot, stderr tail, repro
// cmdline, fuzz config) under --quarantine-dir for every failed attempt.
// With --journal each completed config lands as one fsynced dvmc-journal
// record, and --resume replays those records instead of re-running the
// work — the merged summary is bit-identical to an uninterrupted run.
// --in-process restores the old single-process behavior.
//
//   dvmc_campaign [--configs N] [--param-base P] [--seed-base S]
//                 [--clean-only | --faulted] [--jobs N]
//                 [--escape-dir DIR] [--sample-trace FILE]
//                 [--in-process] [--attempts K] [--backoff-ms MS]
//                 [--deadline-sec S] [--child-mem-mb MB]
//                 [--quarantine-dir DIR] [--journal FILE] [--resume FILE]
//                 [observability flags — --log-json, --status-file,
//                  --profile-out, ...: see --help]
//
// With --status-file the driver atomically rewrites a live dvmc-status
// snapshot (configs done/escaped/retried/quarantined, per-child heartbeats
// with pid and attempt, peak RSS, ETA); `dvmc_inspect watch FILE` tails
// it and detects a dead producer via --stale-after.
//
// Exit codes: 0 = full agreement, 1 = escape, false positive, false alarm,
// or a config lost to retry exhaustion, 2 = usage.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/subprocess.hpp"
#include "common/thread_pool.hpp"
#include "common/version.hpp"
#include "faults/injector.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"
#include "obs/spans.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
#include "verify/oracle.hpp"
#include "verify/trace.hpp"
#include "workload/fuzz_config.hpp"

using namespace dvmc;

namespace {

constexpr const char* kResultSchemaName = "dvmc-campaign-result";
constexpr const char* kQuarantineSchemaName = "dvmc-quarantine";

struct CampaignOptions {
  int configs = 200;
  int paramBase = 0;
  std::uint64_t seedBase = 0xCA3B41;
  bool clean = true;
  bool faulted = true;
  std::string escapeDir = "campaign-escapes";
  std::string sampleTrace;
  // Supervision (ignored under --in-process).
  bool inProcess = false;
  int attempts = 3;
  std::uint64_t backoffMs = 500;
  std::uint64_t deadlineSec = 300;  // per-attempt wall clock; 0 = none
  std::uint64_t childMemMb = 0;     // RLIMIT_AS cap; 0 = inherit
  std::string quarantineDir = "campaign-quarantine";
  std::string journalFile;
  std::string resumeFile;
};

struct CaseOutcome {
  bool ran = false;
  bool completed = false;
  bool checkersDetected = false;
  bool oracleViolation = false;
  bool escape = false;         // oracle flagged, checkers silent (faulted)
  bool falsePositive = false;  // oracle flagged a clean run
  bool falseAlarm = false;     // a checker flagged a clean run
  FaultType fault = FaultType::kCacheDataMultiBit;
  int injections = 0;
  std::string detail;
  std::shared_ptr<const verify::CapturedTrace> trace;
};

std::uint64_t totalFlushes(System& sys) {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    total += sys.core(n).stats().get("cpu.uoFlushes");
    total += sys.core(n).stats().get("cpu.rmoReplayFlushes");
  }
  return total;
}

CaseOutcome runClean(int param) {
  SystemConfig cfg = makeFuzzConfig(param);
  cfg.trace.capture = true;
  System sys(cfg);
  RunResult r;
  {
    obs::ScopedSpan span("run");
    r = sys.run();
    // Final sweep: epochs still open at program end carry unchecked state;
    // flushing them through the MET keeps the clean/faulted cases
    // symmetric.
    sys.drainCheckers();
  }
  r = sys.collectResult(r.completed, r.cycles);
  CaseOutcome out;
  out.ran = true;
  out.completed = r.completed;
  out.checkersDetected = r.detections > 0;
  out.trace = r.trace;
  verify::OracleResult o;
  {
    obs::ScopedSpan span("oracle");
    o = verify::checkTrace(*r.trace);
  }
  out.oracleViolation = !o.clean;
  if (!o.clean) {
    out.falsePositive = true;
    out.detail = o.violations.empty() ? "?" : o.violations[0].message;
  } else if (r.detections > 0) {
    out.falseAlarm = true;
    out.detail = sys.sink().first().what;
  }
  return out;
}

CaseOutcome runFaulted(int param, std::uint64_t seedBase) {
  SystemConfig cfg = makeFuzzConfig(param);
  cfg.trace.capture = true;
  Rng rng(seedBase ^ (0x9E3779B97F4A7C15ull * (param + 1)));

  std::vector<FaultType> applicable;
  for (FaultType t : allFaultTypes()) {
    if (faultApplicable(t, cfg.model, cfg.protocol) &&
        faultCoveredBy(t, cfg.coherenceChecker)) {
      applicable.push_back(t);
    }
  }
  const FaultType fault = applicable[rng.below(applicable.size())];

  System sys(cfg);
  FaultInjector inj(sys, seedBase + param);
  CaseOutcome out;
  out.ran = true;
  out.fault = fault;

  auto done = [&] { return sys.allCoresDone(); };
  {
    obs::ScopedSpan span("run");
    sys.runTo(3'000, done);
    const std::uint64_t flushesBefore = totalFlushes(sys);
    auto detected = [&] {
      return sys.sink().any() || totalFlushes(sys) > flushesBefore;
    };
    for (int round = 0; round < 40 && !detected() && !done(); ++round) {
      if (inj.inject(fault)) ++out.injections;
      sys.runTo(sys.sim().now() + 20'000,
                [&] { return detected() || done(); });
    }
    // Let the run settle so in-flight effects of the fault reach the
    // trace.
    sys.runTo(sys.sim().now() + 30'000, done);

    // Final sweep: a corruption living in a still-open epoch is only
    // checked once that epoch's inform reaches the MET, so flush before
    // judging.
    sys.drainCheckers();
    out.checkersDetected = detected();
  }

  RunResult r = sys.collectResult(done(), sys.sim().now());
  out.completed = r.completed;
  out.trace = r.trace;
  verify::OracleResult o;
  {
    obs::ScopedSpan span("oracle");
    o = verify::checkTrace(*r.trace);
  }
  out.oracleViolation = !o.clean;
  if (!o.clean) {
    out.detail = o.violations.empty() ? "?" : o.violations[0].message;
    out.escape = !out.checkersDetected;
  }
  return out;
}

void dumpEscape(const CampaignOptions& opt, int param, const char* kind,
                const CaseOutcome& out) {
  std::error_code ec;
  std::filesystem::create_directories(opt.escapeDir, ec);
  const std::string base =
      opt.escapeDir + "/" + kind + "_" + std::to_string(param);
  std::string err;
  if (out.trace != nullptr &&
      !verify::writeTraceFile(base + ".trace", *out.trace, &err)) {
    obs::logError("campaign", "cannot write escape trace",
                  Json::object()
                      .set("file", Json::str(base + ".trace"))
                      .set("error", Json::str(err)));
  }
  Json j = Json::object();
  j.set("kind", Json::str(kind));
  j.set("param", Json::num(std::int64_t{param}));
  j.set("fault", Json::str(faultTypeName(out.fault)));
  j.set("injections", Json::num(std::int64_t{out.injections}));
  j.set("checkersDetected", Json::boolean(out.checkersDetected));
  j.set("violation", Json::str(out.detail));
  j.set("trace", Json::str(base + ".trace"));
  j.set("repro",
        Json::str("dvmc_oracle explain " + base + ".trace  # and: fuzz_repro " +
                  std::to_string(param)));
  std::FILE* f = std::fopen((base + ".json").c_str(), "w");
  if (f != nullptr) {
    const std::string s = j.dump(2);
    std::fwrite(s.data(), 1, s.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
}

// ---------------------------------------------------------------------------
// Record plumbing: a CaseOutcome crosses the worker -> parent pipe (and the
// journal) as JSON, and the merged summary is derived ONLY from these
// records — a resumed campaign replays journal records through the same
// code path and prints bit-identical output.

bool jBool(const Json& j, const char* key) {
  const Json* p = j.find(key);
  return p != nullptr && p->asBool();
}

std::int64_t jInt(const Json& j, const char* key, std::int64_t fallback = 0) {
  const Json* p = j.find(key);
  return p != nullptr ? p->asInt(fallback) : fallback;
}

std::string jStr(const Json& j, const char* key) {
  const Json* p = j.find(key);
  return p != nullptr && p->isString() ? p->asString() : std::string();
}

Json caseJson(const CaseOutcome& o) {
  Json j = Json::object();
  j.set("ran", Json::boolean(o.ran));
  j.set("completed", Json::boolean(o.completed));
  j.set("checkersDetected", Json::boolean(o.checkersDetected));
  j.set("oracleViolation", Json::boolean(o.oracleViolation));
  j.set("escape", Json::boolean(o.escape));
  j.set("falsePositive", Json::boolean(o.falsePositive));
  j.set("falseAlarm", Json::boolean(o.falseAlarm));
  j.set("fault", Json::str(faultTypeName(o.fault)));
  j.set("injections", Json::num(std::int64_t{o.injections}));
  j.set("detail", Json::str(o.detail));
  return j;
}

/// Runs config `param`'s cases, writes the bundle of any case the oracle
/// flagged (the worker or in-process thread holds the trace, the parent
/// never does), and sets their "clean" / "faulted" records on `rec`.
void runConfig(const CampaignOptions& opt, int param, Json& rec) {
  if (opt.clean) {
    const CaseOutcome c = runClean(param);
    if (c.falsePositive) dumpEscape(opt, param, "false_positive", c);
    if (c.falseAlarm) dumpEscape(opt, param, "false_alarm", c);
    rec.set("clean", caseJson(c));
  }
  if (opt.faulted) {
    const CaseOutcome f = runFaulted(param, opt.seedBase);
    if (f.escape) dumpEscape(opt, param, "escape", f);
    rec.set("faulted", caseJson(f));
  }
}

// ---------------------------------------------------------------------------
// Worker mode: `dvmc_campaign --worker <spec-json>` runs exactly one
// config in this process and reports its verdict as the last stdout line
// ({"schema":"dvmc-campaign-result",...}). Escape, false-alarm and
// false-positive bundles are written by the worker (it holds the trace);
// the parent only aggregates. Exit 0 = the case ran to a verdict (even an
// escape — the parent judges), 2 = bad spec.

/// CI chaos hook: DVMC_TEST_CRASH_AT="<param>[=<mode>],..." makes the
/// matching worker die on its FIRST attempt (mode abort|segv|hang,
/// default abort), so the supervision path — triage, quarantine, retry —
/// is exercised end to end. Deaths restore the default signal disposition
/// first: the kernel, not a sanitizer's exit(1) translation, must report
/// the signal or the parent's taxonomy test would misclassify.
void maybeInjectTestCrash(int param, int attempt) {
  const char* env = std::getenv("DVMC_TEST_CRASH_AT");
  if (env == nullptr || attempt != 1) return;
  std::string spec(env);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    std::string mode = "abort";
    if (const std::size_t eq = entry.find('='); eq != std::string::npos) {
      mode = entry.substr(eq + 1);
      entry.resize(eq);
    }
    if (std::atoi(entry.c_str()) != param) continue;
    if (mode == "segv") {
      std::signal(SIGSEGV, SIG_DFL);
      std::raise(SIGSEGV);
    }
    if (mode == "hang") {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    std::signal(SIGABRT, SIG_DFL);
    std::raise(SIGABRT);
  }
}

int runWorkerMode(const char* specText) {
  std::string err;
  const std::optional<Json> spec = Json::parse(specText, &err);
  if (!spec || !spec->isObject()) {
    std::fprintf(stderr, "dvmc_campaign --worker: bad spec: %s\n",
                 err.empty() ? "not an object" : err.c_str());
    return 2;
  }
  const int param = static_cast<int>(jInt(*spec, "param", -1));
  const int attempt = static_cast<int>(jInt(*spec, "attempt", 1));
  if (param < 0) {
    std::fprintf(stderr, "dvmc_campaign --worker: spec lacks param\n");
    return 2;
  }
  CampaignOptions opt;
  opt.clean = jBool(*spec, "clean");
  opt.faulted = jBool(*spec, "faulted");
  opt.seedBase = [&] {
    const Json* p = spec->find("seedBase");
    return p != nullptr ? p->asUint(opt.seedBase) : opt.seedBase;
  }();
  if (const std::string dir = jStr(*spec, "escapeDir"); !dir.empty()) {
    opt.escapeDir = dir;
  }
  if (const std::string lvl = jStr(*spec, "logLevel"); !lvl.empty()) {
    obs::LogLevel level;
    if (obs::parseLogLevel(lvl, &level)) {
      obs::Logger::instance().setLevel(level);
    }
  }

  maybeInjectTestCrash(param, attempt);

  Json result = Json::object();
  result.set("schema", Json::str(kResultSchemaName));
  result.set("version", Json::num(std::int64_t{1}));
  result.set("param", Json::num(std::int64_t{param}));
  runConfig(opt, param, result);
  const std::string line = result.dump();
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent-side supervision plumbing.

std::string selfExePath(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0;
}

Json workerSpec(const CampaignOptions& opt, int param, int attempt) {
  Json j = Json::object();
  j.set("param", Json::num(std::int64_t{param}));
  j.set("attempt", Json::num(std::int64_t{attempt}));
  j.set("clean", Json::boolean(opt.clean));
  j.set("faulted", Json::boolean(opt.faulted));
  j.set("seedBase", Json::num(opt.seedBase));
  j.set("escapeDir", Json::str(opt.escapeDir));
  j.set("logLevel",
        Json::str(obs::logLevelName(obs::Logger::instance().level())));
  return j;
}

/// The worker's verdict is its LAST stdout line; anything before it
/// (stray library prints) is ignored. Returns nullopt when the line is
/// missing, unparseable, the wrong schema, or for the wrong param — all
/// of which count as a failed attempt even on a clean exit.
std::optional<Json> parseResultLine(const std::string& stdoutTail,
                                    int param) {
  const std::size_t end = stdoutTail.find_last_not_of(" \t\r\n");
  if (end == std::string::npos) return std::nullopt;
  std::size_t begin = stdoutTail.rfind('\n', end);
  begin = begin == std::string::npos ? 0 : begin + 1;
  std::optional<Json> parsed =
      Json::parse(std::string_view(stdoutTail).substr(begin, end - begin + 1));
  if (!parsed || !parsed->isObject()) return std::nullopt;
  if (jStr(*parsed, "schema") != kResultSchemaName) return std::nullopt;
  if (jInt(*parsed, "param", -1) != param) return std::nullopt;
  return parsed;
}

/// One triage bundle per failed attempt: everything needed to classify
/// the death and reproduce it without the campaign around it.
void writeQuarantine(const CampaignOptions& opt, int param, int attempt,
                     const SubprocessOptions& spawn,
                     const SubprocessResult& r) {
  std::error_code ec;
  std::filesystem::create_directories(opt.quarantineDir, ec);
  const std::string path = opt.quarantineDir + "/param_" +
                           std::to_string(param) + "_attempt_" +
                           std::to_string(attempt) + ".json";
  std::string repro;
  for (const std::string& a : spawn.argv) {
    if (!repro.empty()) repro += ' ';
    repro += '\'' + a + '\'';
  }
  Json j = Json::object();
  j.set("schema", Json::str(kQuarantineSchemaName));
  j.set("version", Json::num(std::int64_t{1}));
  j.set("generator", Json::str(versionString()));
  j.set("param", Json::num(std::int64_t{param}));
  j.set("attempt", Json::num(std::int64_t{attempt}));
  j.set("exitReason", Json::str(exitReasonName(r.status.reason)));
  j.set("exit", Json::object()
                    .set("describe", Json::str(r.status.describe()))
                    .set("code", Json::num(std::int64_t{r.status.exitCode}))
                    .set("signal", Json::num(std::int64_t{r.status.termSignal}))
                    .set("coreDumped", Json::boolean(r.status.coreDumped)));
  if (!r.spawnError.empty()) j.set("spawnError", Json::str(r.spawnError));
  j.set("wallMs", Json::num(r.wallMs));
  j.set("maxRssBytes", Json::num(r.maxRssBytes));
  j.set("limits", Json::object()
                      .set("memoryBytes", Json::num(spawn.limits.memoryBytes))
                      .set("cpuSeconds", Json::num(spawn.limits.cpuSeconds))
                      .set("deadlineMs", Json::num(spawn.deadlineMs)));
  j.set("stderrTail", Json::str(r.stderrTail));
  j.set("repro", Json::str(repro));
  j.set("fuzz", Json::object()
                    .set("param", Json::num(std::int64_t{param}))
                    .set("seedBase", Json::num(opt.seedBase)));
  j.set("config", configJson(makeFuzzConfig(param)));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    obs::logError("campaign", "cannot write quarantine bundle",
                  Json::object().set("file", Json::str(path)));
    return;
  }
  const std::string s = j.dump(2);
  std::fwrite(s.data(), 1, s.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

struct Heartbeat {
  std::uint64_t startedUnixMs = 0;
  int pid = 0;
  int attempt = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // Self-exec worker protocol, handled before CliParser: the spec is one
  // JSON blob, not flags.
  if (argc >= 3 && std::strcmp(argv[1], "--worker") == 0) {
    return runWorkerMode(argv[2]);
  }

  CampaignOptions opt;
  CliParser cli("dvmc_campaign",
                "differential fuzz/fault campaign: runtime checkers "
                "cross-checked against the offline consistency oracle");
  bool cleanOnly = false;
  bool faultedOnly = false;
  cli.option("--configs", &opt.configs, "N",
             "number of fuzz configurations to run (default 200)");
  cli.option("--param-base", &opt.paramBase, "P",
             "first fuzz parameter index (default 0)");
  cli.option("--seed-base", &opt.seedBase, "S",
             "base seed for fault-type draws and injection timing");
  cli.flag("--clean-only", &cleanOnly, "run only the fault-free cases");
  cli.flag("--faulted", &faultedOnly, "run only the fault-injected cases");
  cli.option("--escape-dir", &opt.escapeDir, "DIR",
             "where escape, false-alarm and false-positive bundles are "
             "written (default campaign-escapes)");
  cli.path("--sample-trace", &opt.sampleTrace, "FILE",
           "also write the first case's capture as a dvmc-trace file");
  cli.flag("--in-process", &opt.inProcess,
           "run every config in this process (pre-supervision behavior: "
           "one crash or hang kills the whole campaign)");
  cli.option("--attempts", &opt.attempts, "K",
             "max attempts per config under supervision, including the "
             "first (default 3)");
  cli.option("--backoff-ms", &opt.backoffMs, "MS",
             "base retry delay; doubles per retry with deterministic "
             "seed-derived jitter (default 500, 0 = immediate)");
  cli.option("--deadline-sec", &opt.deadlineSec, "S",
             "wall-clock budget per config attempt; on breach the child's "
             "process group gets SIGTERM then SIGKILL (default 300, "
             "0 = none)");
  cli.option("--child-mem-mb", &opt.childMemMb, "MB",
             "RLIMIT_AS cap for each worker child (default 0 = inherit; "
             "keep 0 under sanitizers)");
  cli.option("--quarantine-dir", &opt.quarantineDir, "DIR",
             "where crash/hang/retry triage bundles are written "
             "(default campaign-quarantine)");
  cli.path("--journal", &opt.journalFile, "FILE",
           "append one fsynced dvmc-journal record per completed config");
  cli.path("--resume", &opt.resumeFile, "FILE",
           "skip configs already recorded in FILE and append new records "
           "to it (implies --journal FILE)");
  addRunnerFlags(cli);
  obs::addObsFlags(cli);
  cli.noPositionals();
  argc = cli.parse(argc, argv);
  (void)argc;
  if (cleanOnly && faultedOnly) {
    std::fprintf(stderr,
                 "dvmc_campaign: --clean-only and --faulted conflict\n");
    return 2;
  }
  if (cleanOnly) opt.faulted = false;
  if (faultedOnly) opt.clean = false;
  if (opt.configs <= 0) {
    std::fprintf(stderr, "dvmc_campaign: --configs must be positive\n");
    return 2;
  }
  if (opt.attempts < 1) {
    std::fprintf(stderr, "dvmc_campaign: --attempts must be at least 1\n");
    return 2;
  }
  if (!opt.resumeFile.empty()) {
    if (!opt.journalFile.empty() && opt.journalFile != opt.resumeFile) {
      std::fprintf(stderr,
                   "dvmc_campaign: --journal and --resume name different "
                   "files\n");
      return 2;
    }
    opt.journalFile = opt.resumeFile;
  }

  const std::size_t n = static_cast<std::size_t>(opt.configs);

  // Resume: completed records by param. A missing journal just means
  // nothing is done yet (a fresh nightly shard resuming an empty cache).
  std::map<int, Json> journaled;
  if (!opt.resumeFile.empty()) {
    std::string err;
    if (std::optional<obs::JournalContents> jc =
            obs::readJournal(opt.resumeFile, &err)) {
      for (Json& rec : jc->records) {
        const int param = static_cast<int>(jInt(rec, "param", -1));
        if (param >= opt.paramBase &&
            param < opt.paramBase + static_cast<int>(n)) {
          journaled[param] = std::move(rec);
        }
      }
      obs::logInfo("campaign", "resuming from journal",
                   Json::object()
                       .set("file", Json::str(opt.resumeFile))
                       .set("completed",
                            Json::num(std::uint64_t{journaled.size()})));
    } else {
      obs::logWarn("campaign", "resume journal not readable; starting fresh",
                   Json::object()
                       .set("file", Json::str(opt.resumeFile))
                       .set("error", Json::str(err)));
    }
  }

  // Journal identity: resuming someone else's campaign would silently
  // corrupt the merge, so these keys must match an existing journal.
  obs::JournalWriter journal;
  std::mutex journalMu;
  if (!opt.journalFile.empty()) {
    Json meta = Json::object();
    meta.set("tool", Json::str("dvmc_campaign"));
    meta.set("paramBase", Json::num(std::int64_t{opt.paramBase}));
    meta.set("configs", Json::num(std::int64_t{opt.configs}));
    meta.set("seedBase", Json::num(opt.seedBase));
    meta.set("clean", Json::boolean(opt.clean));
    meta.set("faulted", Json::boolean(opt.faulted));
    std::string err;
    if (!journal.open(opt.journalFile, meta,
                      {"tool", "paramBase", "configs", "seedBase", "clean",
                       "faulted"},
                      &err)) {
      std::fprintf(stderr, "dvmc_campaign: cannot open journal: %s\n",
                   err.c_str());
      return 2;
    }
  }

  // Crash-injection harness for the parent itself (the crash-handler
  // test): die after arming the status surface.
  const char* exitAfterEnv = std::getenv("DVMC_TEST_EXIT_AFTER");
  const long exitAfter = exitAfterEnv != nullptr ? std::atol(exitAfterEnv) : 0;
  std::atomic<long> journalAppends{0};
  // Simulated hard parent death after the k-th durable record: _exit skips
  // every destructor and flush, exactly like SIGKILL would.
  const auto maybeTestExitAfter = [&] {
    if (exitAfter > 0 && journalAppends.fetch_add(1) + 1 == exitAfter) {
      _exit(3);
    }
  };

  const std::size_t resumed = journaled.size();
  std::vector<Json> records(n);
  std::vector<char> recordValid(n, 0);
  std::atomic<std::size_t> doneCount{resumed};
  std::atomic<std::size_t> escapesSoFar{0};
  std::atomic<std::size_t> falsePositivesSoFar{0};
  std::atomic<std::size_t> retriesSoFar{0};
  std::atomic<std::size_t> quarantinedSoFar{0};
  std::atomic<std::size_t> lostSoFar{0};

  std::vector<std::size_t> pendingSlots;
  for (std::size_t s = 0; s < n; ++s) {
    const int param = opt.paramBase + static_cast<int>(s);
    if (auto it = journaled.find(param); it != journaled.end()) {
      records[s] = std::move(it->second);
      recordValid[s] = 1;
    } else {
      pendingSlots.push_back(s);
    }
  }

  // Live health surface: currently in-flight params with their child pid
  // and attempt (the heartbeat — a shard stuck on one param shows up as a
  // stale startedUnixMs), counts, and an ETA, published atomically
  // whenever --status-file is armed.
  obs::StatusWriter* status = obs::activeStatusWriter();
  std::mutex inFlightMu;
  std::map<int, Heartbeat> inFlight;
  const auto nowUnixMs = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  };
  const auto nowSteadyMs = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  const std::uint64_t startedMs = nowSteadyMs();
  const auto publishStatus = [&](const char* state, bool force) {
    if (status == nullptr) return;
    const std::size_t d = doneCount.load();
    Json heartbeats = Json::array();
    {
      std::lock_guard<std::mutex> lock(inFlightMu);
      for (const auto& [param, hb] : inFlight) {
        heartbeats.push(Json::object()
                            .set("param", Json::num(std::int64_t{param}))
                            .set("startedUnixMs", Json::num(hb.startedUnixMs))
                            .set("pid", Json::num(std::int64_t{hb.pid}))
                            .set("attempt",
                                 Json::num(std::int64_t{hb.attempt})));
      }
    }
    const std::uint64_t elapsed = nowSteadyMs() - startedMs;
    const std::size_t fresh = d > resumed ? d - resumed : 0;
    Json body = Json::object();
    body.set("phase", Json::str("campaign"));
    body.set("state", Json::str(state));
    body.set("total", Json::num(std::uint64_t{n}));
    body.set("done", Json::num(std::uint64_t{d}));
    body.set("resumed", Json::num(std::uint64_t{resumed}));
    body.set("escapes", Json::num(std::uint64_t{escapesSoFar.load()}));
    body.set("falsePositives",
             Json::num(std::uint64_t{falsePositivesSoFar.load()}));
    body.set("retries", Json::num(std::uint64_t{retriesSoFar.load()}));
    body.set("quarantined",
             Json::num(std::uint64_t{quarantinedSoFar.load()}));
    body.set("lost", Json::num(std::uint64_t{lostSoFar.load()}));
    body.set("running", std::move(heartbeats));
    body.set("elapsedMs", Json::num(elapsed));
    body.set("etaMs",
             Json::num(fresh > 0 ? elapsed * (n - d) / fresh : 0));
    status->update(body, force);
  };
  publishStatus("running", /*force=*/true);
  if (std::getenv("DVMC_TEST_CRASH_PARENT") != nullptr) std::abort();

  SystemConfig jobsProbe;  // resolveJobs needs a config; use the default
  const unsigned workers = static_cast<unsigned>(resolveJobs(jobsProbe));

  // Liveness ticker: republish the snapshot every second even when no
  // config completes, so updatedUnixMs is a true heartbeat and
  // `dvmc_inspect watch --stale-after` can tell "slow config" from
  // "producer died" (the StatusWriter's own rate limit still applies).
  std::atomic<bool> runFinished{false};
  std::thread ticker;
  if (status != nullptr) {
    ticker = std::thread([&] {
      while (!runFinished.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1000));
        if (!runFinished.load(std::memory_order_acquire)) {
          publishStatus("running", /*force=*/false);
        }
      }
    });
  }

  if (opt.inProcess) {
    parallelFor(pendingSlots.size(), workers, [&](std::size_t pi) {
      obs::ScopedSpan span("case");
      const std::size_t s = pendingSlots[pi];
      const int param = opt.paramBase + static_cast<int>(s);
      {
        std::lock_guard<std::mutex> lock(inFlightMu);
        inFlight[param] = Heartbeat{nowUnixMs(), 0, 1};
      }
      Json rec = Json::object();
      rec.set("param", Json::num(std::int64_t{param}));
      rec.set("attempts", Json::num(std::int64_t{1}));
      runConfig(opt, param, rec);
      if (const Json* c = rec.find("clean");
          c != nullptr && jBool(*c, "falsePositive")) {
        ++falsePositivesSoFar;
      }
      if (const Json* f = rec.find("faulted");
          f != nullptr && jBool(*f, "escape")) {
        ++escapesSoFar;
      }
      {
        std::lock_guard<std::mutex> lock(journalMu);
        records[s] = std::move(rec);
        recordValid[s] = 1;
        if (journal.isOpen() && !journal.append(records[s])) {
          obs::logError("campaign", "journal append failed",
                        Json::object().set("file",
                                           Json::str(journal.path())));
        }
        maybeTestExitAfter();
      }
      {
        std::lock_guard<std::mutex> lock(inFlightMu);
        inFlight.erase(param);
      }
      const std::size_t d = ++doneCount;
      if (d % 25 == 0 || d == n) {
        obs::logInfo("campaign", "progress",
                     Json::object()
                         .set("done", Json::num(std::uint64_t{d}))
                         .set("total", Json::num(std::uint64_t{n})));
      }
      publishStatus("running", /*force=*/false);
    });
  } else {
    const std::string selfExe = selfExePath(argv[0]);
    const auto makeWorkerOptions = [&](int param, int attempt) {
      SubprocessOptions o;
      o.argv = {selfExe, "--worker", workerSpec(opt, param, attempt).dump()};
      o.deadlineMs = opt.deadlineSec * 1000;
      o.limits.memoryBytes = opt.childMemMb * 1024 * 1024;
      o.onSpawn = [&inFlightMu, &inFlight, param](int pid) {
        std::lock_guard<std::mutex> lock(inFlightMu);
        if (auto it = inFlight.find(param); it != inFlight.end()) {
          it->second.pid = pid;
        }
      };
      return o;
    };

    std::vector<SupervisedTask> tasks(pendingSlots.size());
    for (std::size_t i = 0; i < pendingSlots.size(); ++i) {
      const int param =
          opt.paramBase + static_cast<int>(pendingSlots[i]);
      tasks[i].name = "param " + std::to_string(param);
      tasks[i].key = static_cast<std::uint64_t>(param);
      tasks[i].makeOptions = [&makeWorkerOptions, param](int attempt) {
        return makeWorkerOptions(param, attempt);
      };
    }

    RetryPolicy policy;
    policy.maxAttempts = opt.attempts;
    policy.baseDelayMs = opt.backoffMs;
    policy.seed = opt.seedBase;
    Supervisor sup(workers, policy);
    std::vector<std::optional<Json>> resultJson(tasks.size());

    sup.isSuccess = [&](std::size_t i, const SubprocessResult& r) {
      if (!r.status.clean()) return false;
      const int param =
          opt.paramBase + static_cast<int>(pendingSlots[i]);
      std::optional<Json> parsed = parseResultLine(r.stdoutTail, param);
      if (!parsed) return false;
      resultJson[i] = std::move(parsed);
      return true;
    };
    sup.onAttemptStart = [&](std::size_t i, int attempt) {
      const int param =
          opt.paramBase + static_cast<int>(pendingSlots[i]);
      {
        std::lock_guard<std::mutex> lock(inFlightMu);
        inFlight[param] = Heartbeat{nowUnixMs(), 0, attempt};
      }
      publishStatus("running", /*force=*/false);
    };
    sup.onAttemptDone = [&](std::size_t i, int attempt,
                            const SubprocessResult& r, bool willRetry) {
      const std::size_t s = pendingSlots[i];
      const int param = opt.paramBase + static_cast<int>(s);
      {
        std::lock_guard<std::mutex> lock(inFlightMu);
        inFlight.erase(param);
      }
      if (!resultJson[i].has_value()) {
        ++quarantinedSoFar;
        writeQuarantine(opt, param, attempt, makeWorkerOptions(param, attempt),
                        r);
        Json fields = Json::object()
                          .set("param", Json::num(std::int64_t{param}))
                          .set("attempt", Json::num(std::int64_t{attempt}))
                          .set("exit", Json::str(r.status.describe()));
        if (willRetry) {
          ++retriesSoFar;
          obs::logWarn("campaign", "config attempt failed; retrying",
                       std::move(fields));
        } else {
          ++lostSoFar;
          obs::logError("campaign", "config lost: retry budget exhausted",
                        std::move(fields));
        }
      } else {
        const Json& res = *resultJson[i];
        Json rec = Json::object();
        rec.set("param", Json::num(std::int64_t{param}));
        rec.set("attempts", Json::num(std::int64_t{attempt}));
        if (const Json* c = res.find("clean"); c != nullptr) {
          if (jBool(*c, "falsePositive")) ++falsePositivesSoFar;
          rec.set("clean", *c);
        }
        if (const Json* f = res.find("faulted"); f != nullptr) {
          if (jBool(*f, "escape")) ++escapesSoFar;
          rec.set("faulted", *f);
        }
        {
          std::lock_guard<std::mutex> lock(journalMu);
          records[s] = std::move(rec);
          recordValid[s] = 1;
          if (journal.isOpen() && !journal.append(records[s])) {
            obs::logError("campaign", "journal append failed",
                          Json::object().set("file",
                                             Json::str(journal.path())));
          }
          maybeTestExitAfter();
        }
        const std::size_t d = ++doneCount;
        if (d % 25 == 0 || d == n) {
          obs::logInfo("campaign", "progress",
                       Json::object()
                           .set("done", Json::num(std::uint64_t{d}))
                           .set("total", Json::num(std::uint64_t{n})));
        }
      }
      publishStatus("running", /*force=*/false);
    };
    sup.run(tasks);
  }

  runFinished.store(true, std::memory_order_release);
  if (ticker.joinable()) ticker.join();

  // Merged summary, derived ONLY from the per-config records so a resumed
  // campaign prints bit-identical output to an uninterrupted one.
  // Supervision/retry chatter goes through the logger (stderr) instead.
  std::size_t falsePositives = 0, falseAlarms = 0, escapes = 0,
              detections = 0, masked = 0, agreements = 0, lost = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const int param = opt.paramBase + static_cast<int>(s);
    if (!recordValid[s]) {
      ++lost;
      continue;
    }
    const Json& rec = records[s];
    const Json* c = rec.find("clean");
    if (opt.clean && c != nullptr && jBool(*c, "falsePositive")) {
      ++falsePositives;
      std::printf("FALSE-POSITIVE param=%d: %s\n", param,
                  jStr(*c, "detail").c_str());
    }
    if (opt.clean && c != nullptr && jBool(*c, "falseAlarm")) {
      ++falseAlarms;
      std::printf("FALSE-ALARM param=%d: %s\n", param,
                  jStr(*c, "detail").c_str());
    }
    if (!opt.faulted) continue;
    const Json* f = rec.find("faulted");
    if (f == nullptr) continue;
    if (jBool(*f, "escape")) {
      ++escapes;
      std::printf("ESCAPE param=%d fault=%s injections=%d: %s\n", param,
                  jStr(*f, "fault").c_str(),
                  static_cast<int>(jInt(*f, "injections")),
                  jStr(*f, "detail").c_str());
    } else if (jBool(*f, "checkersDetected")) {
      ++detections;
      if (jBool(*f, "oracleViolation")) ++agreements;
    } else {
      ++masked;
    }
  }

  if (!opt.sampleTrace.empty()) {
    // Cases drop their capture once judged (supervised ones, in a worker
    // process); re-run the first case, deterministic by param, for it.
    const CaseOutcome first = opt.clean
                                  ? runClean(opt.paramBase)
                                  : runFaulted(opt.paramBase, opt.seedBase);
    std::string err;
    if (!verify::writeTraceFile(opt.sampleTrace, *first.trace, &err)) {
      obs::logError("campaign", "cannot write sample trace",
                    Json::object().set("error", Json::str(err)));
    }
  }

  std::printf(
      "campaign: %d config(s)%s%s | detections=%zu (oracle agreed on %zu) "
      "masked=%zu false-alarms=%zu false-positives=%zu escapes=%zu\n",
      opt.configs, opt.clean ? " +clean" : "", opt.faulted ? " +faulted" : "",
      detections, agreements, masked, falseAlarms, falsePositives, escapes);
  if (lost > 0) {
    std::printf("campaign: %zu config(s) lost to retry exhaustion — see %s/\n",
                lost, opt.quarantineDir.c_str());
  }
  const bool failed = falseAlarms + falsePositives + escapes + lost > 0;
  publishStatus(failed ? "failed" : "done", /*force=*/true);
  const int obsRc = obs::finalizeObs();
  if (failed) {
    std::printf("campaign: FAILED — see %s/\n",
                falseAlarms + falsePositives + escapes > 0
                    ? opt.escapeDir.c_str()
                    : opt.quarantineDir.c_str());
    return 1;
  }
  std::printf("campaign: checkers and oracle agree on every case\n");
  return obsRc;
}
