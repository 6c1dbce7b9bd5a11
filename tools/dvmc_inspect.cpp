// dvmc-inspect: query tool for DVMC observability artifacts.
//
// Loads the files the simulator emits — run reports (--report-json),
// forensics bundles (--forensics), Chrome event traces (--trace), status
// snapshots (--status-file), JSONL logs (--log-json), and collapsed-stack
// profiles (--profile-out) — and answers the questions a detection
// post-mortem starts with, without loading anything into a browser or
// writing throwaway scripts:
//
//   dvmc_inspect summary FILE...            what is in this artifact?
//   dvmc_inspect detections FILE...         every detection, with the
//                                           firing checker's state dump
//   dvmc_inspect timeline --addr=A FILE...  events touching a block, in
//                                           cycle order, with span ends
//   dvmc_inspect series --metric=M FILE...  one sampled telemetry column
//   dvmc_inspect watch FILE                 tail a live --status-file
//                                           snapshot until the run ends
//
// File types are auto-detected from the content ("schema" field for
// reports/forensics/status, "traceEvents" for traces, a dvmc-log or
// dvmc-journal meta first line for JSONL streams, "path count" lines for
// collapsed stacks). Exit codes: 0 on success, 1 on a parse/schema error
// or a failed/crashed run, 2 on a usage error, 3 when watch --stale-after
// declares the producer dead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/types.hpp"
#include "obs/forensics.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"

using dvmc::Addr;
using dvmc::Json;

namespace {

enum class ArtifactKind { kReport, kForensics, kTrace, kStatus, kLog,
                          kJournal, kProfile };

struct Artifact {
  std::string path;
  ArtifactKind kind;
  Json root;
  /// kLog: {"meta": {...}, "records": [...]} lives in `root`.
  /// kProfile: the raw collapsed-stack text (root stays null).
  std::string text;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: dvmc_inspect <command> [options] FILE...\n"
      "  summary FILE...              what each artifact contains\n"
      "  detections FILE...           every detection with checker state\n"
      "  timeline --addr=A FILE...    events touching block A in cycle "
      "order (hex ok)\n"
      "  series --metric=M FILE...    sampled values of telemetry column M\n"
      "  watch FILE                   tail a live status snapshot "
      "(--once: render and exit;\n"
      "                               --stale-after=SEC: declare the "
      "producer dead, exit 3)\n");
  return 2;
}

/// True when `text` looks like collapsed-stack profile lines: every
/// non-empty line is "frame[;frame...] <digits>" (the speedscope /
/// flamegraph.pl input format).
bool looksLikeCollapsedStacks(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 == line.size()) {
      return false;
    }
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      if (line[i] < '0' || line[i] > '9') return false;
    }
    ++lines;
  }
  return lines > 0;
}

/// Parses a dvmc-log JSONL stream into {"meta": {...}, "records": [...]}.
bool loadLogLines(const std::string& path, const std::string& text,
                  Artifact* out) {
  std::istringstream in(text);
  std::string line;
  Json records = Json::array();
  Json meta;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    std::string err;
    std::optional<Json> parsed = Json::parse(line, &err);
    if (!parsed) {
      std::fprintf(stderr, "dvmc_inspect: %s:%zu: %s\n", path.c_str(), lineNo,
                   err.c_str());
      return false;
    }
    if (lineNo == 1) {
      const std::uint64_t version =
          parsed->find("version") ? parsed->find("version")->asUint() : 0;
      if (version > dvmc::obs::kLogSchemaVersion) {
        std::fprintf(stderr, "dvmc_inspect: %s: log version %llu is newer "
                             "than this tool understands\n",
                     path.c_str(), static_cast<unsigned long long>(version));
        return false;
      }
      meta = std::move(*parsed);
      continue;
    }
    records.push(std::move(*parsed));
  }
  out->kind = ArtifactKind::kLog;
  out->root =
      Json::object().set("meta", std::move(meta)).set("records",
                                                      std::move(records));
  return true;
}

/// Loads and classifies one artifact; prints the reason and returns false
/// on unreadable input, malformed JSON, or an unrecognized/newer schema.
bool load(const std::string& path, Artifact* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "dvmc_inspect: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  out->path = path;

  // A dvmc-log JSONL stream is many documents, so classify it by its
  // first-line meta stamp before trying a whole-file parse.
  const std::size_t firstNl = text.find('\n');
  const std::string firstLine =
      firstNl == std::string::npos ? text : text.substr(0, firstNl);
  if (firstLine.find("\"dvmc-log\"") != std::string::npos) {
    if (std::optional<Json> metaLine = Json::parse(firstLine)) {
      const Json* schema = metaLine->find("schema");
      if (schema != nullptr &&
          schema->asString() == dvmc::obs::kLogSchemaName) {
        return loadLogLines(path, text, out);
      }
    }
  }
  // Campaign journals are JSONL too; readJournal validates the meta line
  // and tolerates a torn final record (the writer died mid-append).
  if (firstLine.find("\"dvmc-journal\"") != std::string::npos) {
    std::string jerr;
    std::optional<dvmc::obs::JournalContents> jc =
        dvmc::obs::readJournal(path, &jerr);
    if (!jc) {
      std::fprintf(stderr, "dvmc_inspect: %s: %s\n", path.c_str(),
                   jerr.c_str());
      return false;
    }
    Json records = Json::array();
    for (Json& rec : jc->records) records.push(std::move(rec));
    out->kind = ArtifactKind::kJournal;
    out->root = Json::object()
                    .set("meta", std::move(jc->meta))
                    .set("records", std::move(records));
    return true;
  }

  std::string err;
  std::optional<Json> parsed = Json::parse(text, &err);
  if (!parsed) {
    if (looksLikeCollapsedStacks(text)) {
      out->kind = ArtifactKind::kProfile;
      out->text = text;
      return true;
    }
    std::fprintf(stderr, "dvmc_inspect: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  out->root = std::move(*parsed);
  if (const Json* schema = out->root.find("schema")) {
    const std::string& name = schema->asString();
    const std::uint64_t version =
        out->root.find("version") ? out->root.find("version")->asUint() : 0;
    if (name == dvmc::obs::kReportSchemaName) {
      out->kind = ArtifactKind::kReport;
      if (version > dvmc::obs::kReportSchemaVersion) {
        std::fprintf(stderr, "dvmc_inspect: %s: report version %llu is newer "
                             "than this tool understands\n",
                     path.c_str(), static_cast<unsigned long long>(version));
        return false;
      }
      return true;
    }
    if (name == dvmc::kForensicsSchemaName) {
      out->kind = ArtifactKind::kForensics;
      if (version > dvmc::kForensicsSchemaVersion) {
        std::fprintf(stderr, "dvmc_inspect: %s: forensics version %llu is "
                             "newer than this tool understands\n",
                     path.c_str(), static_cast<unsigned long long>(version));
        return false;
      }
      return true;
    }
    if (name == dvmc::obs::kStatusSchemaName) {
      out->kind = ArtifactKind::kStatus;
      if (version > dvmc::obs::kStatusSchemaVersion) {
        std::fprintf(stderr, "dvmc_inspect: %s: status version %llu is "
                             "newer than this tool understands\n",
                     path.c_str(), static_cast<unsigned long long>(version));
        return false;
      }
      return true;
    }
    std::fprintf(stderr, "dvmc_inspect: %s: unknown schema '%s'\n",
                 path.c_str(), name.c_str());
    return false;
  }
  if (out->root.find("traceEvents") != nullptr) {
    out->kind = ArtifactKind::kTrace;
    return true;
  }
  std::fprintf(stderr,
               "dvmc_inspect: %s: not a dvmc artifact (no schema field "
               "and no traceEvents)\n",
               path.c_str());
  return false;
}

const char* kindName(ArtifactKind k) {
  switch (k) {
    case ArtifactKind::kReport: return "run report";
    case ArtifactKind::kForensics: return "forensics";
    case ArtifactKind::kTrace: return "event trace";
    case ArtifactKind::kStatus: return "status snapshot";
    case ArtifactKind::kLog: return "log stream";
    case ArtifactKind::kJournal: return "campaign journal";
    case ArtifactKind::kProfile: return "collapsed-stack profile";
  }
  return "?";
}

std::uint64_t uintField(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->asUint() : 0;
}

std::string strField(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->asString() : std::string("?");
}

const Json* objField(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->isObject()) ? v : nullptr;
}

const Json* arrField(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->isArray()) ? v : nullptr;
}

// --- summary ---------------------------------------------------------------

void summarizeReport(const Artifact& a) {
  const Json* runs = arrField(a.root, "runs");
  const std::size_t n = runs ? runs->size() : 0;
  std::printf("%s: run report, %zu run%s\n", a.path.c_str(), n,
              n == 1 ? "" : "s");
  for (std::size_t i = 0; i < n; ++i) {
    const Json& run = runs->at(i);
    const Json* cfg = objField(run, "config");
    const Json* res = objField(run, "result");
    std::printf("  [%zu] %s", i, strField(run, "kind").c_str());
    if (cfg != nullptr) {
      std::printf(" %s/%s/%s", strField(*cfg, "protocol").c_str(),
                  strField(*cfg, "model").c_str(),
                  strField(*cfg, "workload").c_str());
    }
    if (res != nullptr) {
      std::printf("  detections=%llu",
                  static_cast<unsigned long long>(uintField(*res, "detections")));
      if (const Json* series = objField(*res, "series")) {
        const Json* samples = arrField(*series, "samples");
        std::printf("  series=%zu samples",
                    samples != nullptr ? samples->size() : std::size_t{0});
      }
    }
    std::printf("\n");
  }
}

void summarizeForensics(const Artifact& a) {
  const Json* bundles = arrField(a.root, "bundles");
  const std::size_t n = bundles ? bundles->size() : 0;
  std::printf("%s: forensics, %zu bundle%s (%llu dropped)\n", a.path.c_str(),
              n, n == 1 ? "" : "s",
              static_cast<unsigned long long>(
                  uintField(a.root, "droppedBundles")));
  for (std::size_t i = 0; i < n; ++i) {
    const Json* det = objField(bundles->at(i), "detection");
    if (det == nullptr) continue;
    std::printf("  [%zu] %s at cycle %llu  node %llu  addr 0x%llx\n", i,
                strField(*det, "checker").c_str(),
                static_cast<unsigned long long>(uintField(*det, "cycle")),
                static_cast<unsigned long long>(uintField(*det, "node")),
                static_cast<unsigned long long>(uintField(*det, "addr")));
  }
}

void summarizeTrace(const Artifact& a) {
  const Json* events = arrField(a.root, "traceEvents");
  const std::size_t n = events ? events->size() : 0;
  std::uint64_t first = 0, last = 0, detections = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Json& e = events->at(i);
    const std::uint64_t ts = uintField(e, "ts");
    if (i == 0 || ts < first) first = ts;
    if (ts > last) last = ts;
    if (strField(e, "cat") == "detection") ++detections;
  }
  std::printf("%s: event trace, %zu events, cycles %llu..%llu, "
              "%llu detection instants\n",
              a.path.c_str(), n, static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(last),
              static_cast<unsigned long long>(detections));
}

/// One-line digest of a dvmc-status snapshot ("campaign 42/200 done ...").
void printStatusLine(const Json& root) {
  const std::string phase = strField(root, "phase");
  const std::string state = strField(root, "state");
  std::printf("%s %llu/%llu %s", phase.c_str(),
              static_cast<unsigned long long>(uintField(root, "done")),
              static_cast<unsigned long long>(uintField(root, "total")),
              state.c_str());
  if (const Json* v = root.find("escapes"); v != nullptr && v->asUint() > 0) {
    std::printf("  escapes=%llu",
                static_cast<unsigned long long>(v->asUint()));
  }
  if (const Json* v = root.find("falsePositives");
      v != nullptr && v->asUint() > 0) {
    std::printf("  false-positives=%llu",
                static_cast<unsigned long long>(v->asUint()));
  }
  if (const Json* running = arrField(root, "running");
      running != nullptr && running->size() > 0) {
    std::printf("  in-flight=%zu", running->size());
  }
  if (const Json* res = objField(root, "resource")) {
    std::printf("  rss=%lluMB",
                static_cast<unsigned long long>(
                    uintField(*res, "peakRssBytes") / (1024 * 1024)));
  }
  const std::uint64_t eta = uintField(root, "etaMs");
  if (eta > 0) {
    std::printf("  eta=%llus", static_cast<unsigned long long>(eta / 1000));
  }
  std::printf("\n");
}

void summarizeStatus(const Artifact& a) {
  std::printf("%s: status snapshot (%s)\n  ", a.path.c_str(),
              strField(a.root, "generator").c_str());
  printStatusLine(a.root);
  if (const Json* running = arrField(a.root, "running")) {
    for (std::size_t i = 0; i < running->size(); ++i) {
      const Json& h = running->at(i);
      std::printf("  in-flight param %lld since unix ms %llu\n",
                  static_cast<long long>(
                      h.find("param") ? h.find("param")->asInt() : 0),
                  static_cast<unsigned long long>(
                      uintField(h, "startedUnixMs")));
    }
  }
}

void summarizeLog(const Artifact& a) {
  const Json* records = arrField(a.root, "records");
  const std::size_t n = records ? records->size() : 0;
  std::map<std::string, std::size_t> byLevel;
  std::map<std::string, std::size_t> byComponent;
  for (std::size_t i = 0; i < n; ++i) {
    const Json& r = records->at(i);
    ++byLevel[strField(r, "level")];
    ++byComponent[strField(r, "component")];
  }
  const Json* meta = objField(a.root, "meta");
  std::printf("%s: log stream, %zu record%s (%s)\n", a.path.c_str(), n,
              n == 1 ? "" : "s",
              meta != nullptr ? strField(*meta, "generator").c_str() : "?");
  for (const auto& [level, count] : byLevel) {
    std::printf("  %-5s %zu\n", level.c_str(), count);
  }
  for (const auto& [component, count] : byComponent) {
    std::printf("  component %-10s %zu\n", component.c_str(), count);
  }
}

void summarizeJournal(const Artifact& a) {
  const Json* records = arrField(a.root, "records");
  const std::size_t n = records ? records->size() : 0;
  const Json* meta = objField(a.root, "meta");
  std::size_t escapes = 0, falsePositives = 0, falseAlarms = 0, retried = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Json& rec = records->at(i);
    if (const Json* c = objField(rec, "clean")) {
      if (c->find("falsePositive") != nullptr &&
          c->find("falsePositive")->asBool()) {
        ++falsePositives;
      }
      if (c->find("falseAlarm") != nullptr &&
          c->find("falseAlarm")->asBool()) {
        ++falseAlarms;
      }
    }
    if (const Json* f = objField(rec, "faulted");
        f != nullptr && f->find("escape") != nullptr &&
        f->find("escape")->asBool()) {
      ++escapes;
    }
    if (uintField(rec, "attempts") > 1) ++retried;
  }
  std::printf("%s: campaign journal, %zu completed config%s (%s)\n",
              a.path.c_str(), n, n == 1 ? "" : "s",
              meta != nullptr ? strField(*meta, "generator").c_str() : "?");
  std::printf("  escapes=%zu false-positives=%zu false-alarms=%zu "
              "retried=%zu\n",
              escapes, falsePositives, falseAlarms, retried);
}

void summarizeProfile(const Artifact& a) {
  std::istringstream in(a.text);
  std::string line;
  std::size_t stacks = 0;
  std::uint64_t totalUs = 0;
  std::string hottest;
  std::uint64_t hottestUs = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    const std::uint64_t us = std::strtoull(line.c_str() + space + 1,
                                           nullptr, 10);
    totalUs += us;
    if (us > hottestUs) {
      hottestUs = us;
      hottest = line.substr(0, space);
    }
    ++stacks;
  }
  std::printf("%s: collapsed-stack profile, %zu stack%s, %llu us total\n",
              a.path.c_str(), stacks, stacks == 1 ? "" : "s",
              static_cast<unsigned long long>(totalUs));
  if (!hottest.empty()) {
    std::printf("  hottest: %s (%llu us self)\n", hottest.c_str(),
                static_cast<unsigned long long>(hottestUs));
  }
}

// --- watch -----------------------------------------------------------------

/// Tails a --status-file snapshot: re-reads it every 500 ms, prints a
/// digest line whenever updatedUnixMs advances, and exits once the state
/// leaves "running" (0 for done, 1 for failed/crashed). With `once`,
/// renders the current snapshot and exits immediately (schema errors are
/// exit 1, like every other load). With staleAfterSec > 0, a snapshot
/// whose heartbeat stops advancing for that long — or a file that never
/// appears — means the producer died without finalizing: report it and
/// exit 3.
int watchStatus(const std::string& path, bool once,
                std::uint64_t staleAfterSec) {
  const auto nowUnixMs = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  };
  std::uint64_t lastUpdated = 0;
  // Wall clock of the last observed heartbeat advance (or watch start):
  // judged against the snapshot's own updatedUnixMs would trip on clock
  // skew between producer and watcher hosts sharing the file.
  std::uint64_t lastProgressMs = nowUnixMs();
  bool sawFile = false;
  for (;;) {
    {
      std::ifstream probe(path);
      if (probe) {
        Artifact a;
        if (!load(path, &a)) return 1;
        if (a.kind != ArtifactKind::kStatus) {
          std::fprintf(stderr,
                       "dvmc_inspect: %s: watch needs a status snapshot, "
                       "not a %s\n",
                       path.c_str(), kindName(a.kind));
          return 1;
        }
        sawFile = true;
        const std::uint64_t updated = uintField(a.root, "updatedUnixMs");
        if (updated != lastUpdated) {
          lastUpdated = updated;
          lastProgressMs = nowUnixMs();
          printStatusLine(a.root);
          std::fflush(stdout);
        }
        const std::string state = strField(a.root, "state");
        if (once || (state != "running" && state != "?")) {
          return (state == "failed" || state == "crashed") ? 1 : 0;
        }
      } else if (once) {
        std::fprintf(stderr, "dvmc_inspect: cannot open %s\n", path.c_str());
        return 1;
      } else if (!sawFile) {
        // The producer may not have written its first snapshot yet; the
        // stale timer below bounds how long that grace lasts.
      }
    }
    if (staleAfterSec > 0 &&
        nowUnixMs() - lastProgressMs > staleAfterSec * 1000) {
      std::fprintf(stderr,
                   "dvmc_inspect: %s: producer appears dead — %s for more "
                   "than %llu s (--stale-after)\n",
                   path.c_str(),
                   sawFile ? "no heartbeat advance" : "no snapshot appeared",
                   static_cast<unsigned long long>(staleAfterSec));
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
}

// --- detections ------------------------------------------------------------

void printCheckerDump(const char* label, const Json& dump, int indent) {
  std::printf("%*s%s:", indent, "", label);
  for (const auto& [key, value] : dump.members()) {
    if (value.isObject() || value.isArray() || value.isNull()) continue;
    if (value.isString()) {
      std::printf(" %s=%s", key.c_str(), value.asString().c_str());
    } else if (value.isBool()) {
      std::printf(" %s=%s", key.c_str(), value.asBool() ? "true" : "false");
    } else {
      std::printf(" %s=%llu", key.c_str(),
                  static_cast<unsigned long long>(value.asUint()));
    }
  }
  std::printf("\n");
  // One nested level: the focus rows (focusEpoch, focusEpochRow, ...).
  for (const auto& [key, value] : dump.members()) {
    if (!value.isObject()) continue;
    printCheckerDump(key.c_str(), value, indent + 2);
  }
}

int detectionsForensics(const Artifact& a) {
  const Json* bundles = arrField(a.root, "bundles");
  if (bundles == nullptr) {
    std::fprintf(stderr, "dvmc_inspect: %s: no bundles array\n",
                 a.path.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < bundles->size(); ++i) {
    const Json& b = bundles->at(i);
    const Json* det = objField(b, "detection");
    if (det == nullptr) {
      std::fprintf(stderr, "dvmc_inspect: %s: bundle %zu has no detection\n",
                   a.path.c_str(), i);
      return 1;
    }
    std::printf("bundle %zu (seed %llu)\n", i,
                static_cast<unsigned long long>(uintField(b, "seed")));
    std::printf("  checker: %s\n", strField(*det, "checker").c_str());
    std::printf("  cycle:   %llu\n",
                static_cast<unsigned long long>(uintField(*det, "cycle")));
    std::printf("  node:    %llu\n",
                static_cast<unsigned long long>(uintField(*det, "node")));
    std::printf("  addr:    0x%llx\n",
                static_cast<unsigned long long>(uintField(*det, "addr")));
    std::printf("  what:    %s\n", strField(*det, "what").c_str());
    if (const Json* checkers = objField(b, "checkers")) {
      for (const auto& [name, dump] : checkers->members()) {
        printCheckerDump(name.c_str(), dump, 2);
      }
    }
    if (const Json* history = arrField(b, "addrHistory")) {
      std::printf("  addr history: %zu events\n", history->size());
    }
    if (const Json* sn = objField(b, "safetyNet")) {
      std::printf("  safetynet: %llu checkpoints, cycles %llu..%llu, "
                  "window %llu\n",
                  static_cast<unsigned long long>(
                      uintField(*sn, "checkpoints")),
                  static_cast<unsigned long long>(
                      uintField(*sn, "oldestCheckpoint")),
                  static_cast<unsigned long long>(
                      uintField(*sn, "newestCheckpoint")),
                  static_cast<unsigned long long>(
                      uintField(*sn, "recoveryWindow")));
    }
  }
  std::printf("%zu bundle%s, %llu dropped\n", bundles->size(),
              bundles->size() == 1 ? "" : "s",
              static_cast<unsigned long long>(
                  uintField(a.root, "droppedBundles")));
  return 0;
}

int detectionsTrace(const Artifact& a) {
  const Json* events = arrField(a.root, "traceEvents");
  std::size_t n = 0;
  for (std::size_t i = 0; events != nullptr && i < events->size(); ++i) {
    const Json& e = events->at(i);
    if (strField(e, "cat") != "detection") continue;
    const Json* args = objField(e, "args");
    std::printf("cycle %-10llu node %-3llu %-24s addr 0x%llx\n",
                static_cast<unsigned long long>(uintField(e, "ts")),
                static_cast<unsigned long long>(uintField(e, "tid")),
                strField(e, "name").c_str(),
                static_cast<unsigned long long>(
                    args != nullptr ? uintField(*args, "addr") : 0));
    ++n;
  }
  std::printf("%zu detection instant%s\n", n, n == 1 ? "" : "s");
  return 0;
}

int detectionsReport(const Artifact& a) {
  const Json* runs = arrField(a.root, "runs");
  for (std::size_t i = 0; runs != nullptr && i < runs->size(); ++i) {
    const Json* res = objField(runs->at(i), "result");
    std::printf("run %zu: %llu detection%s\n", i,
                static_cast<unsigned long long>(
                    res != nullptr ? uintField(*res, "detections") : 0),
                (res != nullptr && uintField(*res, "detections") == 1) ? ""
                                                                       : "s");
  }
  return 0;
}

// --- timeline --------------------------------------------------------------

// Spans are recorded when they end but carry their begin cycle, so record
// order is not time order; the timeline sorts by cycle and shows each
// span's end.
struct TimelineEvent {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;  // 0 = instant
  std::string cat;
  std::string name;
  std::uint64_t node = 0;
  Addr addr = 0;
};

int timeline(const Artifact& a, Addr addr) {
  const Addr blk = dvmc::blockAddr(addr);
  std::vector<TimelineEvent> out;
  if (a.kind == ArtifactKind::kTrace) {
    const Json* events = arrField(a.root, "traceEvents");
    for (std::size_t i = 0; events != nullptr && i < events->size(); ++i) {
      const Json& e = events->at(i);
      const Json* args = objField(e, "args");
      const Addr ea = args != nullptr ? uintField(*args, "addr") : 0;
      if (ea == 0 || dvmc::blockAddr(ea) != blk) continue;
      out.push_back({uintField(e, "ts"), uintField(e, "dur"),
                     strField(e, "cat"), strField(e, "name"),
                     uintField(e, "tid"), ea});
    }
  } else if (a.kind == ArtifactKind::kForensics) {
    const Json* bundles = arrField(a.root, "bundles");
    for (std::size_t i = 0; bundles != nullptr && i < bundles->size(); ++i) {
      const Json* tw = objField(bundles->at(i), "traceWindow");
      const Json* events = tw != nullptr ? arrField(*tw, "events") : nullptr;
      for (std::size_t j = 0; events != nullptr && j < events->size(); ++j) {
        const Json& e = events->at(j);
        const Addr ea = uintField(e, "addr");
        if (ea == 0 || dvmc::blockAddr(ea) != blk) continue;
        out.push_back({uintField(e, "ts"), uintField(e, "dur"),
                       strField(e, "kind"), strField(e, "name"),
                       uintField(e, "node"), ea});
      }
    }
  } else {
    std::fprintf(stderr,
                 "dvmc_inspect: %s: timeline needs a trace or forensics "
                 "file, not a %s\n",
                 a.path.c_str(), kindName(a.kind));
    return 1;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TimelineEvent& x, const TimelineEvent& y) {
                     return x.ts < y.ts;
                   });
  for (const TimelineEvent& e : out) {
    std::printf("cycle %-10llu node %-3llu %-10s %-24s addr 0x%llx",
                static_cast<unsigned long long>(e.ts),
                static_cast<unsigned long long>(e.node), e.cat.c_str(),
                e.name.c_str(), static_cast<unsigned long long>(e.addr));
    if (e.dur != 0) {
      std::printf("  ends %llu", static_cast<unsigned long long>(e.ts + e.dur));
    }
    std::printf("\n");
  }
  std::printf("%zu event%s on block 0x%llx\n", out.size(),
              out.size() == 1 ? "" : "s", static_cast<unsigned long long>(blk));
  return 0;
}

// --- series ----------------------------------------------------------------

int seriesFromRun(const Json& series, const std::string& metric,
                  std::size_t* printed) {
  const Json* columns = arrField(series, "columns");
  const Json* samples = arrField(series, "samples");
  if (columns == nullptr || samples == nullptr) {
    std::fprintf(stderr, "dvmc_inspect: malformed series section\n");
    return 1;
  }
  std::size_t col = columns->size();
  for (std::size_t i = 0; i < columns->size(); ++i) {
    if (columns->at(i).asString() == metric) col = i;
  }
  if (col == columns->size()) {
    std::fprintf(stderr, "dvmc_inspect: metric '%s' not sampled; columns:\n",
                 metric.c_str());
    for (std::size_t i = 0; i < columns->size(); ++i) {
      std::fprintf(stderr, "  %s\n", columns->at(i).asString().c_str());
    }
    return 1;
  }
  for (std::size_t i = 0; i < samples->size(); ++i) {
    const Json& row = samples->at(i);
    // Each row is [cycle, v0, v1, ...]: column k lives at index k + 1.
    std::printf("%llu %llu\n",
                static_cast<unsigned long long>(row.at(0).asUint()),
                static_cast<unsigned long long>(row.at(col + 1).asUint()));
    ++*printed;
  }
  return 0;
}

int series(const Artifact& a, const std::string& metric) {
  if (a.kind != ArtifactKind::kReport) {
    std::fprintf(stderr,
                 "dvmc_inspect: %s: series needs a run report, not a %s\n",
                 a.path.c_str(), kindName(a.kind));
    return 1;
  }
  const Json* runs = arrField(a.root, "runs");
  std::size_t printed = 0;
  bool found = false;
  for (std::size_t i = 0; runs != nullptr && i < runs->size(); ++i) {
    const Json& run = runs->at(i);
    const Json* s = objField(run, "series");
    if (s == nullptr) {
      const Json* res = objField(run, "result");
      if (res != nullptr) s = objField(*res, "series");
    }
    if (s == nullptr) continue;
    found = true;
    const int rc = seriesFromRun(*s, metric, &printed);
    if (rc != 0) return rc;
  }
  if (!found) {
    std::fprintf(stderr,
                 "dvmc_inspect: %s: no series section (run with "
                 "--sample-every=N to record one)\n",
                 a.path.c_str());
    return 1;
  }
  std::fprintf(stderr, "%zu sample%s\n", printed, printed == 1 ? "" : "s");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dvmc::CliParser cli("dvmc_inspect",
                      "query tool for DVMC observability artifacts "
                      "(run reports, forensics bundles, event traces)");
  cli.usageLine(
      "dvmc_inspect {summary|detections|timeline|series|watch} [options] "
      "FILE...");
  std::string addrText, metric;
  bool once = false;
  std::uint64_t staleAfterSec = 30;
  cli.option("--addr", &addrText, "A",
             "block address for the timeline command (hex ok)");
  cli.option("--metric", &metric, "NAME",
             "telemetry column for the series command");
  cli.flag("--once", &once,
           "watch: render the current status snapshot and exit");
  cli.option("--stale-after", &staleAfterSec, "SEC",
             "watch: exit 3 when the heartbeat stops advancing for SEC "
             "seconds (default 30, 0 = wait forever)");
  argc = cli.parse(argc, argv);
  const bool haveAddr = !addrText.empty();
  const bool haveMetric = !metric.empty();

  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr, "dvmc_inspect: no input files\n");
    return usage();
  }

  Addr addr = 0;
  if (cmd == "timeline") {
    if (!haveAddr) {
      std::fprintf(stderr, "dvmc_inspect: timeline requires --addr=A\n");
      return usage();
    }
    char* end = nullptr;
    addr = std::strtoull(addrText.c_str(), &end, 0);
    if (end == addrText.c_str() || *end != '\0') {
      std::fprintf(stderr, "dvmc_inspect: bad address '%s'\n",
                   addrText.c_str());
      return usage();
    }
  } else if (cmd == "series") {
    if (!haveMetric) {
      std::fprintf(stderr, "dvmc_inspect: series requires --metric=NAME\n");
      return usage();
    }
  } else if (cmd == "watch") {
    if (args.size() != 1) {
      std::fprintf(stderr, "dvmc_inspect: watch takes exactly one FILE\n");
      return usage();
    }
    return watchStatus(args[0], once, staleAfterSec);
  } else if (cmd != "summary" && cmd != "detections") {
    std::fprintf(stderr, "dvmc_inspect: unknown command '%s'\n", cmd.c_str());
    return usage();
  }

  int rc = 0;
  for (const std::string& path : args) {
    Artifact a;
    if (!load(path, &a)) {
      rc = 1;
      continue;
    }
    if (cmd == "summary") {
      switch (a.kind) {
        case ArtifactKind::kReport: summarizeReport(a); break;
        case ArtifactKind::kForensics: summarizeForensics(a); break;
        case ArtifactKind::kTrace: summarizeTrace(a); break;
        case ArtifactKind::kStatus: summarizeStatus(a); break;
        case ArtifactKind::kLog: summarizeLog(a); break;
        case ArtifactKind::kJournal: summarizeJournal(a); break;
        case ArtifactKind::kProfile: summarizeProfile(a); break;
      }
    } else if (cmd == "detections") {
      int r = 0;
      switch (a.kind) {
        case ArtifactKind::kReport: r = detectionsReport(a); break;
        case ArtifactKind::kForensics: r = detectionsForensics(a); break;
        case ArtifactKind::kTrace: r = detectionsTrace(a); break;
        case ArtifactKind::kStatus:
        case ArtifactKind::kLog:
        case ArtifactKind::kJournal:
        case ArtifactKind::kProfile:
          std::fprintf(stderr,
                       "dvmc_inspect: %s: detections needs a report, "
                       "forensics, or trace file, not a %s\n",
                       a.path.c_str(), kindName(a.kind));
          r = 1;
          break;
      }
      if (r != 0) rc = r;
    } else if (cmd == "timeline") {
      const int r = timeline(a, addr);
      if (r != 0) rc = r;
    } else if (cmd == "series") {
      const int r = series(a, metric);
      if (r != 0) rc = r;
    }
  }
  return rc;
}
