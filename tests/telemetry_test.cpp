// Runtime telemetry core: the structured logger, the hierarchical span
// profiler, and the resource/status surface (src/obs/{log,spans,resource}).
// These are the pieces every long campaign leans on — level gating must
// stay cheap and correct, the JSONL sink must be machine-parseable line
// by line, collapsed stacks must charge self time only, and the status
// file must always be a complete document (tmp + rename), never torn.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "obs/spans.hpp"

namespace dvmc::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

// --- logger ---------------------------------------------------------------

class LoggerTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::instance().resetForTests(); }
  void TearDown() override { Logger::instance().resetForTests(); }
};

TEST_F(LoggerTest, ParseLogLevelAcceptsTheDocumentedNames) {
  const struct {
    const char* name;
    LogLevel level;
  } cases[] = {{"debug", LogLevel::kDebug},
               {"info", LogLevel::kInfo},
               {"warn", LogLevel::kWarn},
               {"error", LogLevel::kError},
               {"off", LogLevel::kOff}};
  for (const auto& c : cases) {
    LogLevel got;
    EXPECT_TRUE(parseLogLevel(c.name, &got)) << c.name;
    EXPECT_EQ(got, c.level) << c.name;
    EXPECT_STREQ(logLevelName(c.level), c.name);
  }
  LogLevel got;
  EXPECT_FALSE(parseLogLevel("verbose", &got));
  EXPECT_FALSE(parseLogLevel("", &got));
}

TEST_F(LoggerTest, DefaultLevelIsInfoAndGatesDebug) {
  Logger& lg = Logger::instance();
  EXPECT_EQ(lg.level(), LogLevel::kInfo);
  EXPECT_FALSE(lg.enabled(LogLevel::kDebug));
  EXPECT_TRUE(lg.enabled(LogLevel::kInfo));
  logDebug("test", "below the line");
  EXPECT_EQ(lg.recorded(), 0u);
  logInfo("test", "at the line");
  EXPECT_EQ(lg.recorded(), 1u);
}

TEST_F(LoggerTest, OffSilencesEverything) {
  Logger& lg = Logger::instance();
  lg.setLevel(LogLevel::kOff);
  EXPECT_FALSE(lg.enabled(LogLevel::kError));
  logError("test", "nope");
  EXPECT_EQ(lg.recorded(), 0u);
}

TEST_F(LoggerTest, RingKeepsNewestRecordsWithFields) {
  Logger& lg = Logger::instance();
  lg.setLevel(LogLevel::kDebug);
  logDebug("runner", "seed done",
           Json::object().set("seed", Json::num(std::uint64_t{7})));
  logWarn("oracle", "fallback");
  const std::vector<LogRecord> recent = lg.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].component, "runner");
  EXPECT_EQ(recent[0].level, LogLevel::kDebug);
  ASSERT_TRUE(recent[0].fields.isObject());
  EXPECT_EQ(recent[0].fields.find("seed")->asUint(), 7u);
  EXPECT_EQ(recent[1].message, "fallback");
  EXPECT_GT(recent[1].unixMs, 0u);
}

TEST_F(LoggerTest, JsonlSinkWritesMetaLineThenOneRecordPerLine) {
  const std::string path = ::testing::TempDir() + "telemetry_log.jsonl";
  Logger& lg = Logger::instance();
  ASSERT_TRUE(lg.openJsonl(path));
  EXPECT_TRUE(lg.jsonlArmed());
  logInfo("campaign", "case done",
          Json::object().set("param", Json::num(3)));
  lg.closeJsonl();
  EXPECT_FALSE(lg.jsonlArmed());

  const std::vector<std::string> ls = lines(slurp(path));
  ASSERT_EQ(ls.size(), 2u);
  const auto meta = Json::parse(ls[0]);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->find("schema")->asString(), kLogSchemaName);
  EXPECT_EQ(meta->find("version")->asInt(), kLogSchemaVersion);
  EXPECT_EQ(meta->find("generator")->asString().rfind("dvmc ", 0), 0u);
  const auto rec = Json::parse(ls[1]);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->find("level")->asString(), "info");
  EXPECT_EQ(rec->find("component")->asString(), "campaign");
  EXPECT_EQ(rec->find("message")->asString(), "case done");
  EXPECT_EQ(rec->find("fields")->find("param")->asInt(), 3);
  std::remove(path.c_str());
}

TEST_F(LoggerTest, OpenJsonlRejectsUnwritablePaths) {
  EXPECT_FALSE(
      Logger::instance().openJsonl("/nonexistent-dvmc-dir/x/log.jsonl"));
  EXPECT_FALSE(Logger::instance().jsonlArmed());
}

// --- span profiler --------------------------------------------------------

class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override { SpanProfiler::instance().resetForTests(); }
  void TearDown() override { SpanProfiler::instance().resetForTests(); }
};

TEST_F(SpanTest, NestedSpansBuildOnePathPerStack) {
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    { ScopedSpan inner("inner"); }
  }
  { ScopedSpan outer("outer"); }
  const auto nodes = SpanProfiler::instance().nodes();
  ASSERT_EQ(nodes.size(), 2u);  // outer + outer/inner, aggregated
  EXPECT_STREQ(nodes[0].name, "outer");
  EXPECT_EQ(nodes[0].parent, -1);
  EXPECT_EQ(nodes[0].count, 2u);
  EXPECT_STREQ(nodes[1].name, "inner");
  EXPECT_EQ(nodes[1].parent, 0);
  EXPECT_EQ(nodes[1].count, 2u);
  EXPECT_GE(nodes[0].wallNs, nodes[1].wallNs);
}

TEST_F(SpanTest, ToJsonNestsChildrenUnderParents) {
  {
    ScopedSpan a("build");
    ScopedSpan b("run");
  }
  const Json j = SpanProfiler::instance().toJson();
  const Json* spans = j.find("spans");
  ASSERT_NE(spans, nullptr);
  const std::string dump = j.dump();
  EXPECT_NE(dump.find("\"build\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"run\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"wallNs\""), std::string::npos);
  EXPECT_NE(dump.find("\"cpuNs\""), std::string::npos);
}

TEST_F(SpanTest, CollapsedStacksJoinPathsWithSemicolons) {
  {
    ScopedSpan a("phase-a");
    ScopedSpan b("phase-b");
    // Lines with zero self-µs are skipped: give the leaf measurable time.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string collapsed = SpanProfiler::instance().collapsedStacks();
  EXPECT_NE(collapsed.find("phase-a;phase-b "), std::string::npos)
      << collapsed;
  // Every line must be "frame[;frame] <count>" — what speedscope accepts.
  for (const std::string& line : lines(collapsed)) {
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    for (char c : line.substr(sp + 1)) EXPECT_TRUE(isdigit(c)) << line;
  }
}

TEST_F(SpanTest, EmptyProfilerReportsEmpty) {
  EXPECT_TRUE(SpanProfiler::instance().empty());
  { ScopedSpan a("x"); }
  EXPECT_FALSE(SpanProfiler::instance().empty());
}

// --- resource sampler + status writer -------------------------------------

TEST(ResourceTest, SampleSeesALiveProcess) {
  const ResourceUsage u = sampleResourceUsage();
  EXPECT_GT(u.peakRssBytes, 0u);
  EXPECT_GE(u.peakRssBytes, u.rssBytes);
  const Json j = u.toJson();
  EXPECT_NE(j.find("rssBytes"), nullptr);
  EXPECT_NE(j.find("peakRssBytes"), nullptr);
  EXPECT_NE(j.find("userCpuMs"), nullptr);
  EXPECT_NE(j.find("sysCpuMs"), nullptr);
}

TEST(StatusWriterTest, PublishesTheEnvelopeAtomically) {
  const std::string path = ::testing::TempDir() + "telemetry_status.json";
  StatusWriter w(path, /*minIntervalMs=*/0);
  Json body = Json::object();
  body.set("phase", Json::str("campaign"))
      .set("done", Json::num(std::uint64_t{3}));
  ASSERT_TRUE(w.update(body, /*force=*/true));
  EXPECT_EQ(w.writes(), 1u);

  const auto doc = Json::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->asString(), kStatusSchemaName);
  EXPECT_EQ(doc->find("version")->asInt(), kStatusSchemaVersion);
  EXPECT_EQ(doc->find("generator")->asString().rfind("dvmc ", 0), 0u);
  EXPECT_GT(doc->find("updatedUnixMs")->asUint(), 0u);
  const Json* resource = doc->find("resource");
  ASSERT_NE(resource, nullptr);
  EXPECT_GT(resource->find("peakRssBytes")->asUint(), 0u);
  EXPECT_EQ(doc->find("phase")->asString(), "campaign");
  EXPECT_EQ(doc->find("done")->asUint(), 3u);
  // No leftover tmp file: the write went through rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(StatusWriterTest, ThrottlesUnforcedUpdatesButNeverForcedOnes) {
  const std::string path = ::testing::TempDir() + "telemetry_throttle.json";
  StatusWriter w(path, /*minIntervalMs=*/60'000);
  const Json body = Json::object();
  EXPECT_TRUE(w.update(body, /*force=*/true));
  EXPECT_FALSE(w.update(body)) << "unforced update inside the interval";
  EXPECT_EQ(w.writes(), 1u);
  EXPECT_TRUE(w.update(body, /*force=*/true));
  EXPECT_EQ(w.writes(), 2u);
  std::remove(path.c_str());
}

TEST(StatusWriterTest, ReportsUnwritablePathsAsFailure) {
  Logger::instance().resetForTests();
  Logger::instance().setLevel(LogLevel::kOff);  // keep stderr quiet
  StatusWriter w("/nonexistent-dvmc-dir/x/status.json", 0);
  EXPECT_FALSE(w.update(Json::object(), /*force=*/true));
  EXPECT_EQ(w.writes(), 0u);
  Logger::instance().resetForTests();
}

}  // namespace
}  // namespace dvmc::obs
