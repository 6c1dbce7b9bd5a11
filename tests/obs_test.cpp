// Observability subsystem tests: typed metric registry (registration,
// snapshot, deterministic merge), event-tracer ring semantics, Chrome
// trace_event / run-report JSON well-formedness, and the end-to-end wiring
// through a real System run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "obs/forensics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

// --- metric registry ------------------------------------------------------

TEST(MetricSet, CounterRegistrationAndIncrement) {
  MetricSet set;
  Counter a = set.counter("x.alpha");
  Counter b = set.counter("x.beta");
  a.inc();
  a.inc(4);
  b.inc();
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(set.get("x.alpha"), 5u);
  EXPECT_EQ(set.get("x.beta"), 1u);
  EXPECT_EQ(set.get("x.missing"), 0u);
}

TEST(MetricSet, ReRegisteringReturnsSameSlot) {
  MetricSet set;
  Counter a = set.counter("dup");
  Counter b = set.counter("dup");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(set.get("dup"), 5u);
  MetricSnapshot snap;
  set.snapshotInto(snap);
  EXPECT_EQ(snap.counters.size(), 1u);
}

TEST(MetricSet, FindScalarResolvesStableSlots) {
  MetricSet set;
  Counter c = set.counter("hits");
  Gauge g = set.gauge("depth");
  const std::uint64_t* hits = set.findScalar("hits");
  const std::uint64_t* depth = set.findScalar("depth");
  const std::uint64_t* peak = set.findScalar("depth.peak");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(depth, nullptr);
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(set.findScalar("absent"), nullptr);
  c.inc(7);
  g.set(4);
  g.set(2);
  // Registering more metrics must not move the resolved slots.
  for (int i = 0; i < 64; ++i) {
    set.counter("filler" + std::to_string(i));
  }
  EXPECT_EQ(*hits, 7u);
  EXPECT_EQ(*depth, 2u);
  EXPECT_EQ(*peak, 4u);
}

TEST(MetricSet, GaugeTracksPeak) {
  MetricSet set;
  Gauge g = set.gauge("level");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3u);
  EXPECT_EQ(g.peak(), 7u);
  EXPECT_EQ(set.get("level"), 3u);
  EXPECT_EQ(set.get("level.peak"), 7u);
}

TEST(MetricSet, HistogramRecordsDistribution) {
  MetricSet set;
  Histogram h = set.histogram("lat");
  h.add(1);
  h.add(2);
  h.add(1000);
  EXPECT_EQ(h.dist().count(), 3u);
  EXPECT_EQ(h.dist().maxValue(), 1000u);
  EXPECT_EQ(set.get("lat"), 3u);  // histograms resolve to their count
  EXPECT_NE(set.findHistogram("lat"), nullptr);
  EXPECT_EQ(set.findHistogram("nope"), nullptr);
}

TEST(MetricSet, HandlesStayValidAsRegistryGrows) {
  MetricSet set;
  Counter first = set.counter("c0");
  std::vector<Counter> more;
  for (int i = 1; i < 200; ++i) {
    // Built with += : GCC 12's -Wrestrict misfires on "c" + std::string.
    std::string name = "c";
    name += std::to_string(i);
    more.push_back(set.counter(name));
  }
  first.inc(42);  // deque-backed slots: no reallocation invalidation
  EXPECT_EQ(set.get("c0"), 42u);
}

TEST(MetricSnapshot, SnapshotAndPrefix) {
  MetricSet set;
  set.counter("hits").inc(10);
  Gauge g = set.gauge("open");
  g.set(2);

  MetricSnapshot flat;
  set.snapshotInto(flat);
  EXPECT_EQ(flat.value("hits"), 10u);
  EXPECT_EQ(flat.value("open"), 2u);
  EXPECT_EQ(flat.value("open.peak"), 2u);

  MetricSnapshot scoped;
  set.snapshotInto(scoped, "node3/");
  EXPECT_EQ(scoped.value("node3/hits"), 10u);
  EXPECT_EQ(scoped.value("hits"), 0u);
}

TEST(MetricSnapshot, MergeSumsCountersAndHistograms) {
  MetricSet a;
  a.counter("n").inc(3);
  a.histogram("h").add(4);
  MetricSet b;
  b.counter("n").inc(5);
  b.counter("only_b").inc(1);
  b.histogram("h").add(64);

  MetricSnapshot sa, sb;
  a.snapshotInto(sa);
  b.snapshotInto(sb);
  sa.merge(sb);
  EXPECT_EQ(sa.value("n"), 8u);
  EXPECT_EQ(sa.value("only_b"), 1u);
  EXPECT_EQ(sa.histograms.at("h").count(), 2u);
  EXPECT_EQ(sa.histograms.at("h").maxValue(), 64u);
  EXPECT_EQ(sa.histograms.at("h").sum(), 68u);
}

TEST(MetricSnapshot, MergeIsOrderIndependent) {
  MetricSnapshot parts[3];
  for (int i = 0; i < 3; ++i) {
    MetricSet s;
    s.counter("k").inc(static_cast<std::uint64_t>(i + 1));
    s.histogram("h").add(static_cast<std::uint64_t>(1) << i);
    s.snapshotInto(parts[i]);
  }
  MetricSnapshot fwd = parts[0];
  fwd.merge(parts[1]);
  fwd.merge(parts[2]);
  MetricSnapshot rev = parts[2];
  rev.merge(parts[1]);
  rev.merge(parts[0]);
  EXPECT_TRUE(fwd == rev);
  EXPECT_EQ(fwd.value("k"), 6u);
}

// --- event tracer ---------------------------------------------------------

TEST(EventTracer, RecordsInstantsAndSpans) {
  EventTracer t(16);
  t.instant(100, TraceKind::kDetection, "det", /*node=*/3, /*addr=*/0x40);
  t.span(200, 260, TraceKind::kEpoch, "epoch", /*node=*/1, 0x80, /*arg=*/7);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.at(0).ts, 100u);
  EXPECT_EQ(t.at(0).dur, 0u);
  EXPECT_EQ(t.at(0).node, 3u);
  EXPECT_EQ(t.at(1).ts, 200u);
  EXPECT_EQ(t.at(1).dur, 60u);
  EXPECT_EQ(t.at(1).arg, 7u);
}

TEST(EventTracer, RingWrapsOverwritingOldest) {
  EventTracer t(4);
  for (Cycle c = 0; c < 10; ++c) {
    t.instant(c, TraceKind::kCpu, "e", 0);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  // Oldest-first iteration yields the newest four timestamps in order.
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.at(i).ts, 6u + i);
  }
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(EventTracer, ChromeJsonShape) {
  EventTracer t(8);
  t.span(10, 30, TraceKind::kEpoch, "cet.epochRW", 2, 0x1234, 9);
  t.instant(40, TraceKind::kCheckpoint, "ber.checkpoint", 0);
  std::ostringstream os;
  t.writeChromeJson(os);
  const std::string j = os.str();
  // Structural markers of the trace_event JSON-object format.
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);   // span
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);   // instant
  EXPECT_NE(j.find("\"dur\":20"), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"epoch\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(j.find("\"tid\":2"), std::string::npos);      // tid = node
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.at(j.find_last_not_of('\n')), '}');
}

// --- JSON builder + report envelope ---------------------------------------

TEST(Json, BuilderShapesAndEscaping) {
  Json o = Json::object();
  o.set("s", Json::str("a\"b\\c\n"));
  o.set("u", Json::num(std::uint64_t{18446744073709551615ull}));
  o.set("d", Json::num(0.5));
  o.set("b", Json::boolean(true));
  Json arr = Json::array();
  arr.push(Json::num(1));
  arr.push(Json());
  o.set("a", std::move(arr));
  const std::string s = o.dump();
  EXPECT_EQ(s,
            "{\"s\":\"a\\\"b\\\\c\\n\",\"u\":18446744073709551615,"
            "\"d\":0.5,\"b\":true,\"a\":[1,null]}");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  Json o = Json::object();
  o.set("s", Json::str("a\"b\\c\n"));
  o.set("u", Json::num(std::uint64_t{18446744073709551615ull}));
  o.set("i", Json::num(std::int64_t{-42}));
  o.set("d", Json::num(0.5));
  o.set("b", Json::boolean(true));
  o.set("n", Json());
  Json arr = Json::array();
  arr.push(Json::num(1));
  arr.push(Json::object().set("k", Json::str("v")));
  o.set("a", std::move(arr));

  std::string err;
  std::optional<Json> back = Json::parse(o.dump(2), &err);
  ASSERT_TRUE(back.has_value()) << err;
  // Re-dumping the parsed value reproduces the original byte-for-byte:
  // order, number formatting, and escapes all survive.
  EXPECT_EQ(back->dump(), o.dump());
  EXPECT_EQ(back->find("s")->asString(), "a\"b\\c\n");
  EXPECT_EQ(back->find("u")->asUint(), 18446744073709551615ull);
  EXPECT_EQ(back->find("i")->asInt(), -42);
  EXPECT_EQ(back->find("d")->asDouble(), 0.5);
  EXPECT_TRUE(back->find("b")->asBool());
  EXPECT_TRUE(back->find("n")->isNull());
  EXPECT_EQ(back->find("a")->at(1).find("k")->asString(), "v");
}

TEST(Json, ParserAcceptsStandardJson) {
  std::optional<Json> j = Json::parse(
      " { \"x\" : [ 1 , 2.5e2 , \"\\u0041\\t\" , false ] } ");
  ASSERT_TRUE(j.has_value());
  const Json* x = j->find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->at(0).asUint(), 1u);
  EXPECT_EQ(x->at(1).asDouble(), 250.0);
  EXPECT_EQ(x->at(2).asString(), "A\t");
  EXPECT_FALSE(x->at(3).asBool(true));
}

TEST(Json, ParserRejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(Json::parse("", &err).has_value());
  EXPECT_FALSE(Json::parse("{", &err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}", &err).has_value());
  EXPECT_FALSE(Json::parse("[1 2]", &err).has_value());
  EXPECT_FALSE(Json::parse("nul", &err).has_value());
  EXPECT_FALSE(Json::parse("\"unterminated", &err).has_value());
  // Trailing garbage after a complete document is an error, with offset.
  EXPECT_FALSE(Json::parse("{} x", &err).has_value());
  EXPECT_NE(err.find("offset"), std::string::npos);
}

TEST(Json, ParserEnforcesNestingDepthLimit) {
  // 256 levels parse; one more is a clean error (with the byte offset of
  // the offending bracket), not a parser-stack overflow.
  const std::string ok(256, '[');
  const std::string okClose(256, ']');
  EXPECT_TRUE(Json::parse(ok + okClose).has_value());

  std::string err;
  const std::string deep(257, '[');
  const std::string deepClose(257, ']');
  EXPECT_FALSE(Json::parse(deep + deepClose, &err).has_value());
  EXPECT_NE(err.find("nesting too deep"), std::string::npos);
  EXPECT_NE(err.find("offset"), std::string::npos);

  // Same ceiling through object nesting, and a hostile unterminated ramp
  // (the original overflow shape) also fails cleanly.
  std::string objDeep;
  for (int i = 0; i < 300; ++i) objDeep += "{\"k\":";
  EXPECT_FALSE(Json::parse(objDeep, &err).has_value());
  EXPECT_FALSE(Json::parse(std::string(100000, '['), &err).has_value());
}

TEST(Json, SafeAccessorsNeverAbort) {
  const Json j = Json::object();
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_TRUE(j.at(99).isNull());   // out-of-range -> shared null
  EXPECT_EQ(j.at(99).asUint(7), 7u);
  EXPECT_EQ(Json::str("abc").asUint(3), 3u);  // wrong type -> fallback
  EXPECT_EQ(Json().size(), 0u);
}

TEST(RunReport, EnvelopeCarriesSchemaAndVersion) {
  Json runs = Json::array();
  runs.push(Json::object().set("kind", Json::str("test")));
  const std::string s = obs::reportEnvelope(std::move(runs)).dump();
  EXPECT_NE(s.find("\"schema\":\"dvmc-run-report\""), std::string::npos);
  EXPECT_NE(s.find("\"version\":3"), std::string::npos);
  EXPECT_NE(s.find("\"runs\":["), std::string::npos);
  // v2 adds the host-resource section and a build-identity generator.
  EXPECT_NE(s.find("\"resource\":{"), std::string::npos);
  EXPECT_NE(s.find("\"peakRssBytes\""), std::string::npos);
  EXPECT_NE(s.find("\"generator\":\"dvmc "), std::string::npos);
}

TEST(RunReport, RunResultSerializationIncludesMetrics) {
  RunResult r;
  r.completed = true;
  r.cycles = 1234;
  MetricSet s;
  s.counter("cpu.retired").inc(99);
  s.histogram("met.informSortResidence").add(6000);
  s.snapshotInto(r.metrics);
  const std::string j = toJson(r).dump();
  EXPECT_NE(j.find("\"completed\":true"), std::string::npos);
  EXPECT_NE(j.find("\"cycles\":1234"), std::string::npos);
  EXPECT_NE(j.find("\"cpu.retired\":99"), std::string::npos);
  EXPECT_NE(j.find("\"met.informSortResidence\""), std::string::npos);
  EXPECT_NE(j.find("\"buckets\""), std::string::npos);
  // v3: no scalar repeats a counter of "metrics".
  for (const char* copy :
       {"\"retiredInstructions\"", "\"squashes\"", "\"totalNetBytes\"",
        "\"informBytes\"", "\"replayL1Misses\"", "\"recoveries\"",
        "\"uoFlushes\""}) {
    EXPECT_EQ(j.find(copy), std::string::npos) << copy;
  }
  EXPECT_EQ(toJson(MultiRunResult{}).dump().find("\"squashes\""),
            std::string::npos);
}

TEST(RunReport, ConfigJsonChangesWithEveryKnob) {
  // A report tells apart two runs that differ in any one knob: each entry
  // changes one printed value away from the default configuration.
  using Edit = void (*)(SystemConfig&);
  const std::vector<std::pair<const char*, Edit>> knobs = {
      {"numNodes", [](SystemConfig& c) { c.numNodes = 4; }},
      {"protocol", [](SystemConfig& c) { c.protocol = Protocol::kSnooping; }},
      {"model", [](SystemConfig& c) { c.model = ConsistencyModel::kPSO; }},
      {"l1.sets", [](SystemConfig& c) { c.l1.sets = 32; }},
      {"l1.ways", [](SystemConfig& c) { c.l1.ways = 4; }},
      {"l2.sets", [](SystemConfig& c) { c.l2.sets = 128; }},
      {"l2.ways", [](SystemConfig& c) { c.l2.ways = 2; }},
      {"torus.bytesPerCycle",
       [](SystemConfig& c) { c.torus.bytesPerCycle = 0.5; }},
      {"torus.yieldCheckerTraffic",
       [](SystemConfig& c) { c.torus.yieldCheckerTraffic = true; }},
      {"cpu.robSize", [](SystemConfig& c) { c.cpu.robSize = 32; }},
      {"cpu.wbCapacity", [](SystemConfig& c) { c.cpu.wbCapacity = 8; }},
      {"cpu.wbConcurrency", [](SystemConfig& c) { c.cpu.wbConcurrency = 1; }},
      {"cpu.storePrefetch",
       [](SystemConfig& c) { c.cpu.storePrefetch = false; }},
      {"cpu.wbCoalescing", [](SystemConfig& c) { c.cpu.wbCoalescing = false; }},
      {"dvmc.uniprocOrdering",
       [](SystemConfig& c) { c.dvmc.uniprocOrdering = true; }},
      {"dvmc.allowableReordering",
       [](SystemConfig& c) { c.dvmc.allowableReordering = true; }},
      {"dvmc.cacheCoherence",
       [](SystemConfig& c) { c.dvmc.cacheCoherence = true; }},
      {"dvmc.membarInjectionPeriod",
       [](SystemConfig& c) { c.dvmc.membarInjectionPeriod = 20'000; }},
      {"dvmc.informQueueCapacity",
       [](SystemConfig& c) { c.dvmc.informQueueCapacity = 16; }},
      {"dvmc.informSortDelay",
       [](SystemConfig& c) { c.dvmc.informSortDelay = 200; }},
      {"dvmc.scrubAgeTicks",
       [](SystemConfig& c) { c.dvmc.scrubAgeTicks = 64; }},
      {"coherenceChecker",
       [](SystemConfig& c) {
         c.coherenceChecker = SystemConfig::CoherenceCheckerKind::kShadow;
       }},
      {"berEnabled", [](SystemConfig& c) { c.berEnabled = true; }},
      {"ber.interval", [](SystemConfig& c) { c.ber.interval = 10'000; }},
      {"ber.maxCheckpoints", [](SystemConfig& c) { c.ber.maxCheckpoints = 2; }},
      {"autoRecover", [](SystemConfig& c) { c.autoRecover = true; }},
      {"workload", [](SystemConfig& c) { c.workload = WorkloadKind::kOltp; }},
      {"workloadOverride",
       [](SystemConfig& c) {
         c.workloadOverride = workloadPreset(c.workload);
       }},
      {"workloadOverride.txOps",
       [](SystemConfig& c) {
         c.workloadOverride = workloadPreset(c.workload);
         c.workloadOverride->txOps += 1;
       }},
      {"seed", [](SystemConfig& c) { c.seed = 2; }},
      {"sampleEvery", [](SystemConfig& c) { c.sampleEvery = 5'000; }},
      {"sampleCapacity", [](SystemConfig& c) { c.sampleCapacity = 16; }},
      {"trace.capture", [](SystemConfig& c) { c.trace.capture = true; }},
      {"trace.captureLimit", [](SystemConfig& c) { c.trace.captureLimit = 1; }},
      {"trace.keepInMemory",
       [](SystemConfig& c) { c.trace.keepInMemory = false; }},
      {"targetTransactions",
       [](SystemConfig& c) { c.targetTransactions = 40; }},
      {"maxCycles", [](SystemConfig& c) { c.maxCycles = 1'000'000; }},
  };
  const std::string base = configJson(SystemConfig{}).dump();
  std::vector<std::string> seen = {base};
  for (const auto& [name, edit] : knobs) {
    SystemConfig c;
    edit(c);
    const std::string printed = configJson(c).dump();
    EXPECT_EQ(std::count(seen.begin(), seen.end(), printed), 0)
        << name << " does not change configJson";
    seen.push_back(printed);
  }

  // An override replaces the preset, so it names the workload that runs.
  SystemConfig c;
  c.workloadOverride = workloadPreset(WorkloadKind::kJbb);
  EXPECT_EQ(configJson(c).find("workload")->asString(), "jbb");

  // The worker count cannot change results and is not printed.
  c = SystemConfig{};
  c.jobs = 3;
  EXPECT_EQ(configJson(c).dump(), base);
}

/// Parses argv with the observability flag group, as every binary does.
int parseObsFlags(int argc, char** argv) {
  CliParser cli("prog", "observability flags");
  cli.exitOnError(false);
  obs::addObsFlags(cli);
  return cli.parse(argc, argv);
}

TEST(RunReport, ParseObsFlagsStripsAndStores) {
  obs::resetObs();
  const char* raw[] = {"prog",         "keep1", "--trace=/tmp/t.json",
                       "--report-json", "/tmp/r.json", "--trace-capacity=128",
                       "keep2",        nullptr};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = parseObsFlags(7, argv.data());
  EXPECT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "keep1");
  EXPECT_STREQ(argv[2], "keep2");
  EXPECT_EQ(obs::options().traceFile, "/tmp/t.json");
  EXPECT_EQ(obs::options().reportJsonFile, "/tmp/r.json");
  EXPECT_EQ(obs::options().traceCapacity, 128u);
  EXPECT_TRUE(obs::reportingActive());
  EXPECT_NE(obs::activeTracer(), nullptr);
  obs::resetObs();
  EXPECT_FALSE(obs::reportingActive());
}

TEST(RunReport, ParseObsFlagsStoresForensicsAndSampling) {
  obs::resetObs();
  const char* raw[] = {"prog",
                       "--forensics=/tmp/f.json",
                       "--forensics-window=32",
                       "--sample-every=500",
                       "--sample-capacity=16",
                       nullptr};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = parseObsFlags(5, argv.data());
  EXPECT_EQ(argc, 1);
  EXPECT_EQ(obs::options().forensicsFile, "/tmp/f.json");
  EXPECT_EQ(obs::options().forensicsWindow, 32u);
  EXPECT_EQ(obs::options().sampleEvery, 500u);
  EXPECT_EQ(obs::options().sampleCapacity, 16u);
  ForensicsRecorder* rec = obs::activeForensics();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->config().windowEvents, 32u);
  obs::resetObs();
  EXPECT_EQ(obs::options().forensicsFile, "");
}

TEST(RunReport, ParsePositiveCountRejectsBadInput) {
  std::uint64_t v = 0;
  EXPECT_TRUE(obs::parsePositiveCount("1", &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(obs::parsePositiveCount("65536", &v));
  EXPECT_EQ(v, 65536u);
  EXPECT_FALSE(obs::parsePositiveCount("0", &v));      // zero capacity
  EXPECT_FALSE(obs::parsePositiveCount("", &v));       // empty
  EXPECT_FALSE(obs::parsePositiveCount("12x", &v));    // non-numeric tail
  EXPECT_FALSE(obs::parsePositiveCount("-5", &v));     // sign
  EXPECT_FALSE(obs::parsePositiveCount("1e4", &v));    // not plain decimal
  EXPECT_FALSE(obs::parsePositiveCount("99999999999999999999", &v));  // 2^64+
}

TEST(RunReport, ValidateWritablePathReportsUnwritable) {
  EXPECT_EQ(obs::validateWritablePath("/tmp/dvmc_obs_path_probe.json"), "");
  const std::string err =
      obs::validateWritablePath("/nonexistent-dir/x/y/z.json");
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("/nonexistent-dir/x/y/z.json"), std::string::npos);
  std::remove("/tmp/dvmc_obs_path_probe.json");
}

// --- time-series ring -----------------------------------------------------

TEST(TimeSeries, RingKeepsNewestRows) {
  TimeSeries ts({"a", "b"}, /*capacity=*/3);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ts.sample(i * 100, {i, i * 10});
  }
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.recorded(), 5u);
  EXPECT_EQ(ts.dropped(), 2u);
  // Oldest-first access sees rows 3, 4, 5.
  EXPECT_EQ(ts.cycleAt(0), 300u);
  EXPECT_EQ(ts.cycleAt(2), 500u);
  EXPECT_EQ(ts.valueAt(0, 0), 3u);
  EXPECT_EQ(ts.valueAt(2, 1), 50u);

  const std::string j = ts.toJson().dump();
  EXPECT_NE(j.find("\"columns\":[\"a\",\"b\"]"), std::string::npos);
  EXPECT_NE(j.find("[300,3,30]"), std::string::npos);
  EXPECT_NE(j.find("\"dropped\":2"), std::string::npos);
}

TEST(TimeSeries, DefaultColumnsAreStable) {
  const std::vector<std::string>& cols = defaultSampleColumns();
  EXPECT_GE(cols.size(), 5u);
  // The report schema and dvmc_inspect lean on these names.
  EXPECT_NE(std::find(cols.begin(), cols.end(), "net.totalBytes"),
            cols.end());
  EXPECT_NE(std::find(cols.begin(), cols.end(), "cpu.retired"), cols.end());
}

// --- histogram percentiles in reports -------------------------------------

TEST(RunReport, HistogramSerializationIncludesPercentiles) {
  RunResult r;
  MetricSet s;
  Histogram h = s.histogram("lat");
  for (int i = 0; i < 99; ++i) h.add(4);
  h.add(1000);
  s.snapshotInto(r.metrics);
  const std::string j = toJson(r).dump();
  EXPECT_NE(j.find("\"p50\":4"), std::string::npos);
  EXPECT_NE(j.find("\"p90\":4"), std::string::npos);
  EXPECT_NE(j.find("\"p99\":4"), std::string::npos);
}

// --- end-to-end wiring through a System run -------------------------------

SystemConfig tracedConfig() {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 40;
  cfg.maxCycles = 5'000'000;
  cfg.ber.interval = 10'000;
  return cfg;
}

TEST(ObsEndToEnd, SystemRunPopulatesTraceAndMetrics) {
  EventTracer tracer(1u << 14);
  SystemConfig cfg = tracedConfig();
  cfg.tracer = &tracer;
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);

  // The typed registry's aggregate snapshot rode along in the result.
  EXPECT_GT(r.metrics.value("cpu.retired"), 0u);
  EXPECT_GT(r.metrics.value("l1.hit"), 0u);
  EXPECT_GT(r.metrics.value("cet.accessChecks"), 0u);
  EXPECT_GT(r.metrics.value("ber.checkpoints"), 0u);
  EXPECT_GT(r.metrics.value("net.totalBytes"), 0u);
  EXPECT_EQ(r.metrics.value("cet.accessChecks"),
            [&] {
              std::uint64_t t = 0;
              for (NodeId n = 0; n < sys.numNodes(); ++n) {
                t += sys.cet(n)->stats().get("cet.accessChecks");
              }
              return t;
            }());

  // The tracer saw epochs, informs, coherence misses, and checkpoints.
  bool epoch = false, inform = false, coherence = false, checkpoint = false;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    switch (tracer.at(i).kind) {
      case TraceKind::kEpoch: epoch = true; break;
      case TraceKind::kInform: inform = true; break;
      case TraceKind::kCoherence: coherence = true; break;
      case TraceKind::kCheckpoint: checkpoint = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(epoch);
  EXPECT_TRUE(inform);
  EXPECT_TRUE(coherence);
  EXPECT_TRUE(checkpoint);
}

TEST(ObsEndToEnd, PerNodeSnapshotScopesMetrics) {
  SystemConfig cfg = tracedConfig();
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  MetricSnapshot per = sys.metricsSnapshot(/*perNode=*/true);
  std::uint64_t summed = 0;
  for (std::size_t n = 0; n < cfg.numNodes; ++n) {
    summed += per.value("node" + std::to_string(n) + "/cpu.retired");
  }
  EXPECT_EQ(summed, per.value("cpu.retired"));
  EXPECT_GT(summed, 0u);
}

TEST(ObsEndToEnd, TracingDoesNotPerturbSimulation) {
  SystemConfig cfg = tracedConfig();
  System plain(cfg);
  RunResult a = plain.run();

  EventTracer tracer(1u << 12);
  cfg.tracer = &tracer;
  System traced(cfg);
  RunResult b = traced.run();

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_TRUE(a.metrics == b.metrics);
  EXPECT_GT(tracer.recorded(), 0u);
}

TEST(ErrorSink, ObserversSeeEveryDetection) {
  ErrorSink sink;
  std::vector<Cycle> seen;
  sink.addObserver([&](const Detection& d) { seen.push_back(d.cycle); });
  sink.report({CheckerKind::kCacheCoherence, 10, 0, 0x40, "a"});
  sink.report({CheckerKind::kEcc, 20, 1, 0x80, "b"});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 10u);
  EXPECT_EQ(seen[1], 20u);
  sink.clear();  // observers survive a clear
  sink.report({CheckerKind::kOther, 30, 2, 0, "c"});
  EXPECT_EQ(seen.size(), 3u);
}

}  // namespace
}  // namespace dvmc
