// Supervision-layer tests: the Subprocess runner's exit-status taxonomy
// (clean / nonzero / signaled / timed-out / spawn-failed), deadline
// escalation, rlimit enforcement, bounded tail capture, deterministic
// retry backoff, and Supervisor scheduling — then the campaign driver end
// to end: the chaos run (injected SIGSEGV / SIGABRT / infinite-loop hang
// must not cost a single result), quarantine triage classification,
// journal durability with torn-line recovery, --resume bit-identity
// against an uninterrupted run, the dvmc_inspect stale-heartbeat
// watchdog, the fatal-signal crash handler's "crashed" finalization, and
// `dvmc_inspect timeline` ordering a detection's block by cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "faults/injector.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

namespace fs = std::filesystem;

std::string shellArgv0() { return "/bin/sh"; }

SubprocessOptions shell(const std::string& script) {
  SubprocessOptions o;
  o.argv = {shellArgv0(), "-c", script};
  o.deadlineMs = 30'000;  // tests must never wedge the suite
  return o;
}

std::string readFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const char* name)
      : path(fs::temp_directory_path() / "dvmc_subprocess_test" / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str(const char* leaf) const { return (path / leaf).string(); }
  fs::path path;
};

// --- exit-status taxonomy --------------------------------------------------

TEST(Subprocess, CleanExitCapturesStdout) {
  const SubprocessResult r = runSubprocess(shell("echo out-words; echo err-words >&2"));
  EXPECT_EQ(r.status.reason, ExitReason::kCleanExit);
  EXPECT_TRUE(r.status.clean());
  EXPECT_EQ(r.status.exitCode, 0);
  EXPECT_NE(r.stdoutTail.find("out-words"), std::string::npos);
  EXPECT_NE(r.stderrTail.find("err-words"), std::string::npos);
}

TEST(Subprocess, NonZeroExitKeepsCode) {
  const SubprocessResult r = runSubprocess(shell("exit 7"));
  EXPECT_EQ(r.status.reason, ExitReason::kNonZeroExit);
  EXPECT_FALSE(r.status.clean());
  EXPECT_EQ(r.status.exitCode, 7);
  EXPECT_NE(r.status.describe().find("exit 7"), std::string::npos);
}

TEST(Subprocess, FatalSignalIsClassifiedSignaled) {
  const SubprocessResult r = runSubprocess(shell("kill -SEGV $$"));
  EXPECT_EQ(r.status.reason, ExitReason::kSignaled);
  EXPECT_EQ(r.status.termSignal, SIGSEGV);
}

TEST(Subprocess, DeadlineKillsSleepingChild) {
  SubprocessOptions o = shell("sleep 30");
  o.deadlineMs = 300;
  o.graceMs = 200;
  const SubprocessResult r = runSubprocess(o);
  EXPECT_EQ(r.status.reason, ExitReason::kTimedOut);
  EXPECT_FALSE(r.status.clean());
  // Escalation must land long before the child's own 30 s sleep.
  EXPECT_LT(r.wallMs, 10'000u);
  EXPECT_NE(r.status.describe().find("timed out"), std::string::npos);
}

TEST(Subprocess, DeadlineReachesGrandchildren) {
  // The child spawns a sleeping grandchild and exits; process-group
  // escalation must not leave the grandchild holding the pipes open (a
  // lingering reader would stall the parent's drain far past the
  // deadline).
  SubprocessOptions o = shell("sleep 30 & wait");
  o.deadlineMs = 300;
  o.graceMs = 200;
  const SubprocessResult r = runSubprocess(o);
  EXPECT_EQ(r.status.reason, ExitReason::kTimedOut);
  EXPECT_LT(r.wallMs, 10'000u);
}

TEST(Subprocess, SpawnFailureIsTyped) {
  SubprocessOptions o;
  o.argv = {"/nonexistent/dvmc-no-such-binary"};
  const SubprocessResult r = runSubprocess(o);
  EXPECT_EQ(r.status.reason, ExitReason::kSpawnFailed);
  EXPECT_FALSE(r.spawnError.empty());
}

TEST(Subprocess, TailBufferKeepsNewestBytes) {
  SubprocessOptions o =
      shell("i=0; while [ $i -lt 3000 ]; do echo line-$i; i=$((i+1)); done; "
            "echo END-MARKER");
  o.maxCapturedBytes = 2048;
  const SubprocessResult r = runSubprocess(o);
  ASSERT_TRUE(r.status.clean());
  EXPECT_LE(r.stdoutTail.size(), 2048u);
  EXPECT_GT(r.stdoutBytes, 2048u);  // total production is still counted
  // The tail (where a crash message would live) survives, not the head.
  EXPECT_NE(r.stdoutTail.find("END-MARKER"), std::string::npos);
  EXPECT_EQ(r.stdoutTail.find("line-0\n"), std::string::npos);
}

TEST(Subprocess, ExtraEnvReachesChild) {
  SubprocessOptions o = shell("echo value=$DVMC_SUBPROCESS_TEST_VAR");
  o.extraEnv.emplace_back("DVMC_SUBPROCESS_TEST_VAR", "marker-42");
  const SubprocessResult r = runSubprocess(o);
  EXPECT_NE(r.stdoutTail.find("value=marker-42"), std::string::npos);
}

TEST(Subprocess, RlimitMemoryKillsOverAllocatingChild) {
  // dd mallocs its block buffer up front: a 256 MiB request under a
  // 64 MiB address-space cap must fail, and the identical uncapped run
  // must succeed (proving the cap, not the command, is what failed).
  SubprocessOptions capped =
      shell("dd if=/dev/zero of=/dev/null bs=256M count=1");
  capped.limits.memoryBytes = 64ull * 1024 * 1024;
  const SubprocessResult r = runSubprocess(capped);
  if (r.status.reason == ExitReason::kSpawnFailed) {
    GTEST_SKIP() << "no dd on PATH";
  }
  EXPECT_FALSE(r.status.clean()) << r.status.describe();

  const SubprocessResult control =
      runSubprocess(shell("dd if=/dev/zero of=/dev/null bs=256M count=1"));
  EXPECT_TRUE(control.status.clean()) << control.status.describe();
}

// --- retry policy ----------------------------------------------------------

TEST(RetryPolicy, DelayIsDeterministicAndBounded) {
  RetryPolicy p;
  p.baseDelayMs = 500;
  p.maxDelayMs = 8000;
  p.seed = 1234;
  EXPECT_EQ(retryDelayMs(p, 7, 1), 0u);  // first attempt never waits
  for (int attempt = 2; attempt <= 6; ++attempt) {
    const std::uint64_t d = retryDelayMs(p, 7, attempt);
    const std::uint64_t raw =
        std::min<std::uint64_t>(500ull << (attempt - 2), 8000);
    EXPECT_GE(d, raw / 2);
    EXPECT_LT(d, raw);
    // Same (seed, key, attempt) -> same delay: a rerun reproduces the
    // schedule.
    EXPECT_EQ(d, retryDelayMs(p, 7, attempt));
  }
  // Different task keys jitter differently (overwhelmingly likely).
  EXPECT_NE(retryDelayMs(p, 7, 4), retryDelayMs(p, 8, 4));
}

TEST(Supervisor, RetriesUntilSuccess) {
  RetryPolicy p;
  p.maxAttempts = 4;
  p.baseDelayMs = 50;
  Supervisor sup(2, p);
  std::vector<std::uint64_t> sleeps;
  sup.sleepMs = [&](std::uint64_t ms) { sleeps.push_back(ms); };

  SupervisedTask task;
  task.name = "flaky";
  task.key = 3;
  task.makeOptions = [](int attempt) {
    return shell(attempt >= 3 ? "exit 0" : "exit 1");
  };
  const std::vector<TaskOutcome> out = sup.run({task});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].succeeded);
  EXPECT_EQ(out[0].attempts, 3);
  EXPECT_TRUE(out[0].last.status.clean());
  ASSERT_EQ(sleeps.size(), 2u);  // before attempts 2 and 3
  EXPECT_EQ(sleeps[0], retryDelayMs(p, 3, 2));
  EXPECT_EQ(sleeps[1], retryDelayMs(p, 3, 3));
}

TEST(Supervisor, ExhaustsRetryBudget) {
  RetryPolicy p;
  p.maxAttempts = 3;
  p.baseDelayMs = 0;  // no waiting in tests
  Supervisor sup(1, p);
  std::vector<bool> willRetrySeen;
  sup.onAttemptDone = [&](std::size_t, int, const SubprocessResult&,
                          bool willRetry) {
    willRetrySeen.push_back(willRetry);
  };
  SupervisedTask task;
  task.makeOptions = [](int) { return shell("exit 1"); };
  const std::vector<TaskOutcome> out = sup.run({task});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].succeeded);
  EXPECT_EQ(out[0].attempts, 3);
  ASSERT_EQ(willRetrySeen.size(), 3u);
  EXPECT_TRUE(willRetrySeen[0]);
  EXPECT_TRUE(willRetrySeen[1]);
  EXPECT_FALSE(willRetrySeen[2]);
}

// --- journal ---------------------------------------------------------------

TEST(Journal, RoundTripAndIdentityValidation) {
  TempDir tmp("journal_roundtrip");
  const std::string path = tmp.str("j.jsonl");
  Json meta = Json::object().set("tool", Json::str("test")).set(
      "seedBase", Json::num(std::uint64_t{42}));

  obs::JournalWriter w;
  std::string err;
  ASSERT_TRUE(w.open(path, meta, {"tool", "seedBase"}, &err)) << err;
  ASSERT_TRUE(w.append(Json::object().set("param", Json::num(1))));
  ASSERT_TRUE(w.append(Json::object().set("param", Json::num(2))));
  EXPECT_EQ(w.appended(), 2u);
  w.close();

  const std::optional<obs::JournalContents> jc = obs::readJournal(path, &err);
  ASSERT_TRUE(jc.has_value()) << err;
  ASSERT_EQ(jc->records.size(), 2u);
  EXPECT_EQ(jc->records[1].find("param")->asInt(), 2);

  // Reopen-to-append validates identity; a different campaign is refused.
  obs::JournalWriter w2;
  Json other = Json::object().set("tool", Json::str("test")).set(
      "seedBase", Json::num(std::uint64_t{999}));
  EXPECT_FALSE(w2.open(path, other, {"tool", "seedBase"}, &err));
  EXPECT_NE(err.find("seedBase"), std::string::npos);

  ASSERT_TRUE(w2.open(path, meta, {"tool", "seedBase"}, &err)) << err;
  EXPECT_EQ(w2.appended(), 2u);  // resumes the count
  ASSERT_TRUE(w2.append(Json::object().set("param", Json::num(3))));
  w2.close();
  EXPECT_EQ(obs::readJournal(path, &err)->records.size(), 3u);
}

TEST(Journal, TornFinalLineIsDroppedAndTrimmedOnReopen) {
  TempDir tmp("journal_torn");
  const std::string path = tmp.str("j.jsonl");
  const Json meta = Json::object().set("tool", Json::str("test"));
  std::string err;
  {
    obs::JournalWriter w;
    ASSERT_TRUE(w.open(path, meta, {"tool"}, &err)) << err;
    ASSERT_TRUE(w.append(Json::object().set("param", Json::num(1))));
  }
  // Simulate a writer killed mid-append: a partial record with no newline.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"param\":2,\"tru";
  }
  const std::optional<obs::JournalContents> jc = obs::readJournal(path, &err);
  ASSERT_TRUE(jc.has_value()) << err;
  EXPECT_EQ(jc->records.size(), 1u);  // the torn record never happened

  // Reopening for append trims the fragment instead of welding the next
  // record onto it.
  obs::JournalWriter w;
  ASSERT_TRUE(w.open(path, meta, {"tool"}, &err)) << err;
  ASSERT_TRUE(w.append(Json::object().set("param", Json::num(3))));
  w.close();
  const std::optional<obs::JournalContents> after =
      obs::readJournal(path, &err);
  ASSERT_TRUE(after.has_value()) << err;
  ASSERT_EQ(after->records.size(), 2u);
  EXPECT_EQ(after->records[1].find("param")->asInt(), 3);
}

// --- campaign end-to-end ---------------------------------------------------

#if defined(DVMC_CAMPAIGN_BIN) && defined(DVMC_INSPECT_BIN)

SubprocessOptions campaign(const std::vector<std::string>& extraArgs,
                           const std::vector<std::pair<std::string,
                                                       std::string>>& env = {}) {
  SubprocessOptions o;
  o.argv = {DVMC_CAMPAIGN_BIN};
  o.argv.insert(o.argv.end(), extraArgs.begin(), extraArgs.end());
  o.extraEnv = env;
  o.deadlineMs = 240'000;
  o.maxCapturedBytes = 256 * 1024;
  return o;
}

std::string quarantineReason(const fs::path& bundle) {
  const std::optional<Json> j = Json::parse(readFile(bundle));
  if (!j) return "<unparseable>";
  const Json* r = j->find("exitReason");
  return r != nullptr ? r->asString() : "<missing>";
}

TEST(CampaignSupervision, ChaosRunLosesNothing) {
  TempDir tmp("chaos");
  // 40 configs; three of them die on their first attempt — one SIGSEGV,
  // one SIGABRT, one infinite-loop hang — exactly the acceptance chaos
  // mix. The campaign must finish exit 0 with every result intact.
  const std::vector<std::string> base = {
      "--configs", "40", "--clean-only", "--jobs", "8",
      "--deadline-sec", "6", "--backoff-ms", "10",
      "--quarantine-dir", tmp.str("q"),
      "--journal", tmp.str("journal.jsonl"),
      "--escape-dir", tmp.str("esc")};
  const SubprocessResult chaos = runSubprocess(
      campaign(base, {{"DVMC_TEST_CRASH_AT", "3=segv,11=abort,17=hang"}}));
  ASSERT_TRUE(chaos.status.clean())
      << chaos.status.describe() << "\n" << chaos.stderrTail;

  // Exactly the three injected offenders were quarantined, each with the
  // right taxonomy, and each config still completed (the journal holds
  // all 40 records — zero results lost).
  EXPECT_EQ(quarantineReason(tmp.path / "q" / "param_3_attempt_1.json"),
            "signaled");
  EXPECT_EQ(quarantineReason(tmp.path / "q" / "param_11_attempt_1.json"),
            "signaled");
  EXPECT_EQ(quarantineReason(tmp.path / "q" / "param_17_attempt_1.json"),
            "timed-out");
  std::size_t bundles = 0;
  for (const auto& e : fs::directory_iterator(tmp.path / "q")) {
    (void)e;
    ++bundles;
  }
  EXPECT_EQ(bundles, 3u);

  std::string err;
  const std::optional<obs::JournalContents> jc =
      obs::readJournal(tmp.str("journal.jsonl"), &err);
  ASSERT_TRUE(jc.has_value()) << err;
  EXPECT_EQ(jc->records.size(), 40u);

  // The summary is bit-identical to a run with no injected crashes:
  // supervision chatter stays on stderr.
  const SubprocessResult calm = runSubprocess(campaign(
      {"--configs", "40", "--clean-only", "--jobs", "8",
       "--escape-dir", tmp.str("esc2")}));
  ASSERT_TRUE(calm.status.clean()) << calm.stderrTail;
  EXPECT_EQ(chaos.stdoutTail, calm.stdoutTail);
}

TEST(CampaignSupervision, RetryExhaustionFailsTheCampaign) {
  TempDir tmp("lost");
  // A config that crashes on EVERY attempt (no attempt gate would need a
  // new hook; instead allow only 1 attempt so the single injected crash
  // exhausts the budget).
  const SubprocessResult r = runSubprocess(campaign(
      {"--configs", "4", "--clean-only", "--jobs", "2", "--attempts", "1",
       "--backoff-ms", "10", "--deadline-sec", "20",
       "--quarantine-dir", tmp.str("q"), "--escape-dir", tmp.str("esc")},
      {{"DVMC_TEST_CRASH_AT", "2=abort"}}));
  EXPECT_EQ(r.status.reason, ExitReason::kNonZeroExit);
  EXPECT_EQ(r.status.exitCode, 1);
  EXPECT_NE(r.stdoutTail.find("lost to retry exhaustion"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(tmp.path / "q" / "param_2_attempt_1.json"));
}

TEST(CampaignSupervision, ResumeProducesBitIdenticalSummary) {
  TempDir tmp("resume");
  const std::vector<std::string> flags = {
      "--configs", "8", "--clean-only", "--jobs", "2", "--backoff-ms", "10",
      "--deadline-sec", "60", "--escape-dir", tmp.str("esc")};

  // Reference: one uninterrupted run.
  std::vector<std::string> ref = flags;
  const SubprocessResult full = runSubprocess(campaign(ref));
  ASSERT_TRUE(full.status.clean()) << full.stderrTail;

  // Interrupted run: the parent hard-exits (as if SIGKILLed) right after
  // the 3rd journal record lands.
  std::vector<std::string> part = flags;
  part.insert(part.end(), {"--journal", tmp.str("journal.jsonl")});
  const SubprocessResult killed =
      runSubprocess(campaign(part, {{"DVMC_TEST_EXIT_AFTER", "3"}}));
  EXPECT_EQ(killed.status.reason, ExitReason::kNonZeroExit);
  EXPECT_EQ(killed.status.exitCode, 3);
  std::string err;
  ASSERT_TRUE(obs::readJournal(tmp.str("journal.jsonl"), &err).has_value())
      << err;
  EXPECT_EQ(obs::readJournal(tmp.str("journal.jsonl"), &err)->records.size(),
            3u);

  // Resume completes the remaining configs and the merged stdout summary
  // is bit-identical to the uninterrupted run.
  std::vector<std::string> res = flags;
  res.insert(res.end(), {"--resume", tmp.str("journal.jsonl")});
  const SubprocessResult resumed = runSubprocess(campaign(res));
  ASSERT_TRUE(resumed.status.clean()) << resumed.stderrTail;
  EXPECT_EQ(resumed.stdoutTail, full.stdoutTail);
  EXPECT_EQ(obs::readJournal(tmp.str("journal.jsonl"), &err)->records.size(),
            8u);
}

TEST(CampaignSupervision, ResumeRefusesForeignJournal) {
  TempDir tmp("foreign");
  const SubprocessResult first = runSubprocess(campaign(
      {"--configs", "2", "--clean-only", "--jobs", "2",
       "--journal", tmp.str("journal.jsonl"),
       "--escape-dir", tmp.str("esc")}));
  ASSERT_TRUE(first.status.clean()) << first.stderrTail;
  // Same journal, different seed base: identity mismatch, usage error.
  const SubprocessResult other = runSubprocess(campaign(
      {"--configs", "2", "--clean-only", "--jobs", "2", "--seed-base", "77",
       "--resume", tmp.str("journal.jsonl"),
       "--escape-dir", tmp.str("esc")}));
  EXPECT_EQ(other.status.reason, ExitReason::kNonZeroExit);
  EXPECT_EQ(other.status.exitCode, 2);
  EXPECT_NE(other.stderrTail.find("different"), std::string::npos);
}

TEST(CampaignSupervision, CrashHandlerFinalizesStatusAsCrashed) {
  TempDir tmp("crashed");
  const SubprocessResult r = runSubprocess(campaign(
      {"--configs", "1", "--clean-only",
       "--status-file", tmp.str("status.json"),
       "--log-json", tmp.str("log.jsonl"),
       "--escape-dir", tmp.str("esc")},
      {{"DVMC_TEST_CRASH_PARENT", "1"}}));
  EXPECT_EQ(r.status.reason, ExitReason::kSignaled);
  EXPECT_EQ(r.status.termSignal, SIGABRT);

  const std::optional<Json> status =
      Json::parse(readFile(tmp.path / "status.json"));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->find("state")->asString(), "crashed");
  EXPECT_EQ(status->find("signalName")->asString(), "SIGABRT");
  // The log ring's final flush: a crash record on the JSONL sink.
  EXPECT_NE(readFile(tmp.path / "log.jsonl").find("fatal signal"),
            std::string::npos);

  // `dvmc_inspect watch` reads it as a finished-but-failed run.
  SubprocessOptions watch;
  watch.argv = {DVMC_INSPECT_BIN, "watch", "--once", tmp.str("status.json")};
  watch.deadlineMs = 30'000;
  const SubprocessResult w = runSubprocess(watch);
  EXPECT_EQ(w.status.reason, ExitReason::kNonZeroExit);
  EXPECT_EQ(w.status.exitCode, 1);
}

TEST(CampaignSupervision, WatchDetectsDeadProducer) {
  TempDir tmp("stale");
  // A snapshot frozen in state "running" whose producer is gone: the
  // watchdog must declare it dead once the heartbeat stops advancing.
  {
    std::ofstream out(tmp.str("status.json"));
    out << "{\"schema\":\"dvmc-status\",\"version\":1,\"generator\":\"t\","
           "\"updatedUnixMs\":1,\"phase\":\"campaign\",\"state\":"
           "\"running\"}\n";
  }
  SubprocessOptions watch;
  watch.argv = {DVMC_INSPECT_BIN, "watch", "--stale-after", "1",
                tmp.str("status.json")};
  watch.deadlineMs = 30'000;
  const SubprocessResult r = runSubprocess(watch);
  EXPECT_EQ(r.status.reason, ExitReason::kNonZeroExit);
  EXPECT_EQ(r.status.exitCode, 3);
  EXPECT_NE(r.stderrTail.find("producer appears dead"), std::string::npos);
}

// `dvmc_inspect timeline` lists a block's events in cycle order, with each
// span's end, although spans enter the trace when they end. The detection's
// block shows the detection; whether that block also has a closed span
// depends on timing, so the span check runs on a block trace.json itself
// shows with one.
TEST(InspectTimeline, DetectionBlockInCycleOrder) {
  TempDir tmp("timeline");
  EventTracer tracer;
  SystemConfig cfg =
      SystemConfig::withDvmc(Protocol::kDirectory, ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.seed = 11;
  cfg.targetTransactions = 120;
  cfg.maxCycles = 2'000'000;
  cfg.tracer = &tracer;
  System sys(cfg);
  FaultInjector inj(sys, /*seed=*/3);
  sys.runTo(4'000);
  ASSERT_TRUE(inj.inject(FaultType::kCacheStateFlip));
  sys.run();
  ASSERT_TRUE(sys.sink().any());
  const Detection det = sys.sink().first();
  ASSERT_NE(det.addr, 0u);
  {
    std::ofstream out(tmp.str("trace.json"));
    tracer.writeChromeJson(out);
  }

  // The first closed span on a block, as trace.json records it.
  const std::optional<Json> trace =
      Json::parse(readFile(tmp.path / "trace.json"));
  ASSERT_TRUE(trace.has_value());
  const Json* events = trace->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::uint64_t spanAddr = 0;
  std::uint64_t spanEnd = 0;
  for (const Json& e : events->items()) {
    const Json* dur = e.find("dur");
    const Json* args = e.find("args");
    const Json* addr = args != nullptr ? args->find("addr") : nullptr;
    if (dur == nullptr || addr == nullptr || addr->asUint() == 0) continue;
    spanAddr = addr->asUint();
    spanEnd = e.find("ts")->asUint() + dur->asUint();
    break;
  }
  ASSERT_NE(spanAddr, 0u) << "trace.json holds no closed span on a block";

  struct Listing {
    std::size_t events = 0;
    std::vector<std::uint64_t> ends;  // the `ends` of each span line
    bool sawDetection = false;
  };
  auto timeline = [&](std::uint64_t addr) {
    SubprocessOptions o;
    o.argv = {DVMC_INSPECT_BIN, "timeline", "--addr=" + std::to_string(addr),
              tmp.str("trace.json")};
    o.deadlineMs = 30'000;
    o.maxCapturedBytes = 4 * 1024 * 1024;
    const SubprocessResult r = runSubprocess(o);
    EXPECT_TRUE(r.status.clean()) << r.status.describe() << "\n"
                                  << r.stderrTail;
    Listing l;
    std::istringstream lines(r.stdoutTail);
    std::string line;
    std::uint64_t last = 0;
    while (std::getline(lines, line)) {
      std::istringstream fields(line);
      std::string word;
      std::uint64_t cycle = 0;
      if (!(fields >> word >> cycle) || word != "cycle") continue;
      EXPECT_GE(cycle, last) << line;
      last = cycle;
      ++l.events;
      const std::size_t ends = line.find(" ends ");
      if (ends != std::string::npos) {
        l.ends.push_back(std::stoull(line.substr(ends + 6)));
      }
      if (cycle == det.cycle && line.find("detection") != std::string::npos) {
        l.sawDetection = true;
      }
    }
    return l;
  };

  const Listing detBlock = timeline(det.addr);
  EXPECT_GE(detBlock.events, 2u);
  EXPECT_TRUE(detBlock.sawDetection);

  const Listing spanBlock = timeline(spanAddr);
  EXPECT_GE(spanBlock.ends.size(), 1u);
  EXPECT_NE(std::find(spanBlock.ends.begin(), spanBlock.ends.end(), spanEnd),
            spanBlock.ends.end())
      << "no line ends at " << spanEnd;
}

#endif  // DVMC_CAMPAIGN_BIN && DVMC_INSPECT_BIN

}  // namespace
}  // namespace dvmc
