// Forensics flight-recorder tests: recorder bounds and envelope schema,
// the end-to-end capture path (injected coherence fault -> detection ->
// bundle), and the JSON shape dvmc_inspect consumes — checker dumps with
// epoch rows, the per-node cache-line states, the trace window, and the
// SafetyNet checkpoint epoch.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "coherence/memory_storage.hpp"
#include "common/flat_map.hpp"
#include "faults/injector.hpp"
#include "obs/forensics.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

// --- recorder bounds ------------------------------------------------------

TEST(ForensicsRecorder, KeepsFirstBundlesCountsRest) {
  ForensicsRecorder rec({/*windowEvents=*/16, /*maxBundles=*/2});
  for (int i = 0; i < 5; ++i) {
    Json b = Json::object();
    b.set("i", Json::num(static_cast<std::uint64_t>(i)));
    rec.addBundle(std::move(b));
  }
  EXPECT_EQ(rec.bundleCount(), 2u);
  EXPECT_EQ(rec.droppedBundles(), 3u);

  const Json env = rec.toJson();
  EXPECT_EQ(env.find("schema")->asString(), kForensicsSchemaName);
  EXPECT_EQ(env.find("version")->asUint(),
            static_cast<std::uint64_t>(kForensicsSchemaVersion));
  EXPECT_EQ(env.find("droppedBundles")->asUint(), 3u);
  ASSERT_EQ(env.find("bundles")->size(), 2u);
  // The kept bundles are the first two, in detection order.
  EXPECT_EQ(env.find("bundles")->at(0).find("i")->asUint(), 0u);
  EXPECT_EQ(env.find("bundles")->at(1).find("i")->asUint(), 1u);
}

TEST(ForensicsRecorder, SerializedEnvelopeParsesBack) {
  ForensicsRecorder rec;
  rec.addBundle(Json::object().set("x", Json::num(std::uint64_t{7})));
  std::ostringstream os;
  rec.writeTo(os);
  std::string err;
  std::optional<Json> parsed = Json::parse(os.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("schema")->asString(), kForensicsSchemaName);
  EXPECT_EQ(parsed->find("bundles")->at(0).find("x")->asUint(), 7u);
}

// --- end-to-end capture ---------------------------------------------------

/// Runs a DVMC-protected system, injects coherence-state faults until a
/// checker fires, and returns the recorder's serialized+reparsed envelope.
Json captureBundle(ForensicsRecorder& rec, Protocol protocol) {
  SystemConfig cfg = SystemConfig::withDvmc(protocol, ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 1'000'000;  // effectively unbounded
  cfg.maxCycles = 20'000'000;
  cfg.ber.interval = 20'000;
  cfg.forensics = &rec;  // no cfg.tracer: the System must arm its own
  System sys(cfg);
  FaultInjector inj(sys, 0xF0F0);

  sys.runTo(30'000);
  EXPECT_EQ(sys.sink().count(), 0u);
  for (int attempt = 0; attempt < 50 && !sys.sink().any(); ++attempt) {
    inj.inject(FaultType::kCacheStateFlip);
    sys.runTo(sys.sim().now() + 100'000, [&] { return sys.sink().any(); });
  }
  EXPECT_TRUE(sys.sink().any()) << "cache-state flips never manifested";

  std::ostringstream os;
  rec.writeTo(os);
  std::string err;
  std::optional<Json> parsed = Json::parse(os.str(), &err);
  EXPECT_TRUE(parsed.has_value()) << err;
  return parsed ? *parsed : Json();
}

TEST(ForensicsCapture, InjectedCoherenceFaultProducesParseableBundle) {
  ForensicsRecorder rec;
  const Json env = captureBundle(rec, Protocol::kDirectory);
  ASSERT_GE(rec.bundleCount(), 1u);

  const Json* bundles = env.find("bundles");
  ASSERT_NE(bundles, nullptr);
  ASSERT_GE(bundles->size(), 1u);
  const Json& b = bundles->at(0);

  // The detection block names the firing checker and violating address.
  const Json* det = b.find("detection");
  ASSERT_NE(det, nullptr);
  EXPECT_FALSE(det->find("checker")->asString().empty());
  EXPECT_NE(det->find("addr"), nullptr);
  EXPECT_FALSE(det->find("what")->asString().empty());
  EXPECT_GT(det->find("cycle")->asUint(), 0u);

  // The checker state dump carries the CET/MET epoch rows for the address.
  const Json* checkers = b.find("checkers");
  ASSERT_NE(checkers, nullptr);
  const Json* cet = checkers->find("cacheEpochTable");
  ASSERT_NE(cet, nullptr);
  EXPECT_NE(cet->find("openEpochs"), nullptr);
  const Json* met = checkers->find("memoryEpochTable");
  ASSERT_NE(met, nullptr);
  EXPECT_NE(met->find("metEntries"), nullptr);
  if (const Json* row = met->find("focusEpochRow")) {
    EXPECT_NE(row->find("lastRWEnd"), nullptr);
    EXPECT_NE(row->find("lastRWEndHash"), nullptr);
  }
  // UO and AR checkers were enabled, so their dumps ride along.
  EXPECT_NE(checkers->find("verificationCache"), nullptr);
  EXPECT_NE(checkers->find("reorderChecker"), nullptr);

  // Cache-line state at every node, L1 and L2.
  const Json* caches = b.find("cacheLines");
  ASSERT_NE(caches, nullptr);
  ASSERT_EQ(caches->size(), 4u);
  for (std::size_t n = 0; n < caches->size(); ++n) {
    EXPECT_NE(caches->at(n).find("l1"), nullptr);
    EXPECT_NE(caches->at(n).find("l2"), nullptr);
  }

  // The last-K window came from the internally-armed tracer, and the
  // detection instant itself is part of it.
  const Json* tw = b.find("traceWindow");
  ASSERT_NE(tw, nullptr);
  const Json* events = tw->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  bool sawDetection = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    if (events->at(i).find("kind")->asString() == "detection") {
      sawDetection = true;
    }
  }
  EXPECT_TRUE(sawDetection);

  // SafetyNet checkpoint epoch: recovery was possible at detection time.
  const Json* sn = b.find("safetyNet");
  ASSERT_NE(sn, nullptr);
  EXPECT_GT(sn->find("checkpoints")->asUint(), 0u);
  EXPECT_GT(sn->find("recoveryWindow")->asUint(), 0u);
}

TEST(ForensicsCapture, SnoopingProtocolCapturesToo) {
  ForensicsRecorder rec;
  const Json env = captureBundle(rec, Protocol::kSnooping);
  const Json* bundles = env.find("bundles");
  ASSERT_NE(bundles, nullptr);
  ASSERT_GE(bundles->size(), 1u);
  EXPECT_FALSE(
      bundles->at(0).find("detection")->find("checker")->asString().empty());
}

// --- auto-recovery end-to-end ---------------------------------------------

// Injects coherence faults into an auto-recovering system while maintaining
// a *full-snapshot* oracle on the side: every performed store is mirrored
// into `expected`, a deep copy of `expected` is taken at every SafetyNet
// checkpoint (exactly what the pre-undo-log implementation captured), and on
// recovery `expected` is rewound to the rollback target's copy. The
// undo-log restore must land the system's memory image on the same bytes,
// and the machine must keep retiring instructions afterwards.
TEST(ForensicsCapture, AutoRecoveryMatchesFullSnapshotOracle) {
  ForensicsRecorder rec;
  SystemConfig cfg =
      SystemConfig::withDvmc(Protocol::kDirectory, ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 1'000'000;  // effectively unbounded
  cfg.maxCycles = 20'000'000;
  cfg.ber.interval = 20'000;
  cfg.autoRecover = true;
  cfg.forensics = &rec;
  System sys(cfg);
  FaultInjector inj(sys, 0xBEEF);

  FlatMap<Addr, DataBlock> expected;
  sys.setStoreAuditHook(
      [&](NodeId, Addr addr, std::size_t size, std::uint64_t value) {
        const Addr blk = blockAddr(addr);
        auto [it, fresh] =
            expected.try_emplace(blk, MemoryStorage::initialPattern(blk));
        it->second.write(blockOffset(addr), size, value);
      });

  // Run predicates are evaluated after *every* simulator event, so this
  // observer sees the world immediately after each checkpoint / recovery
  // event with no intervening stores.
  std::vector<std::pair<Cycle, FlatMap<Addr, DataBlock>>> fullSnaps;
  std::uint64_t seenCkpts = 0;
  std::uint64_t seenRecoveries = 0;
  std::uint64_t oracleMismatches = 0;
  auto observe = [&] {
    const std::uint64_t ck = sys.ber()->stats().get("ber.checkpoints");
    if (ck != seenCkpts) {
      seenCkpts = ck;
      fullSnaps.emplace_back(sys.ber()->newestCheckpoint(), expected);
    }
    const std::uint64_t rc = sys.ber()->recoveries();
    if (rc != seenRecoveries) {
      seenRecoveries = rc;
      // recoverBefore() squashed every checkpoint newer than the target,
      // so the rollback target is now the newest surviving checkpoint.
      const Cycle target = sys.ber()->newestCheckpoint();
      while (!fullSnaps.empty() && fullSnaps.back().first > target) {
        fullSnaps.pop_back();
      }
      if (fullSnaps.empty() || fullSnaps.back().first != target) {
        ++oracleMismatches;  // lost track of the target checkpoint
        return;
      }
      expected = fullSnaps.back().second;
      if (!(sys.memoryImage() == expected)) ++oracleMismatches;
    }
  };

  sys.runTo(30'000, [&] {
    observe();
    return false;
  });
  ASSERT_EQ(sys.sink().count(), 0u);
  ASSERT_GT(seenCkpts, 0u);

  for (int attempt = 0; attempt < 50 && seenRecoveries == 0; ++attempt) {
    inj.inject(FaultType::kCacheStateFlip);
    sys.runTo(sys.sim().now() + 100'000, [&] {
      observe();
      return seenRecoveries > 0;
    });
  }
  ASSERT_GT(seenRecoveries, 0u) << "injected faults never triggered recovery";
  EXPECT_EQ(oracleMismatches, 0u)
      << "undo-log restore diverged from the full-snapshot oracle";
  EXPECT_TRUE(sys.memoryImage() == expected);

  // The rolled-back machine resumes: cores retire further instructions, the
  // audit mirror keeps agreeing with the architectural shadow, and nothing
  // lands outside the recovery window.
  auto totalRetired = [&] {
    std::uint64_t sum = 0;
    for (std::size_t n = 0; n < sys.numNodes(); ++n) {
      sum += sys.core(static_cast<NodeId>(n)).retired();
    }
    return sum;
  };
  const std::uint64_t retiredAtRecovery = totalRetired();
  const RunResult r = sys.runTo(sys.sim().now() + 200'000, [&] {
    observe();
    return false;
  });
  EXPECT_GT(totalRetired(), retiredAtRecovery);
  EXPECT_EQ(oracleMismatches, 0u);
  EXPECT_TRUE(sys.memoryImage() == expected);
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(r.unrecoverable, 0u);

  // The detection that triggered recovery was also captured for forensics,
  // with the SafetyNet epoch block recording a live recovery window.
  ASSERT_GE(rec.bundleCount(), 1u);
  const Json env = rec.toJson();
  const Json* sn = env.find("bundles")->at(0).find("safetyNet");
  ASSERT_NE(sn, nullptr);
  EXPECT_GT(sn->find("checkpoints")->asUint(), 0u);
}

// --- interval sampler -----------------------------------------------------

TEST(TimeSeriesSampling, RunResultCarriesSampledSeries) {
  SystemConfig cfg =
      SystemConfig::withDvmc(Protocol::kDirectory, ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 50;
  cfg.maxCycles = 5'000'000;
  cfg.sampleEvery = 1'000;
  cfg.sampleCapacity = 64;
  System sys(cfg);
  const RunResult r = sys.run();

  ASSERT_NE(r.series, nullptr);
  EXPECT_EQ(r.series->columns(), defaultSampleColumns());
  ASSERT_GT(r.series->size(), 1u);
  // Cycles ascend in sample steps; counters are monotone non-decreasing.
  const std::size_t last = r.series->size() - 1;
  EXPECT_GT(r.series->cycleAt(last), r.series->cycleAt(0));
  for (std::size_t c = 0; c < r.series->columns().size(); ++c) {
    EXPECT_GE(r.series->valueAt(last, c), r.series->valueAt(0, c))
        << r.series->columns()[c];
  }
  // The ring bound held.
  EXPECT_LE(r.series->size(), 64u);

  // The serialized series round-trips through the JSON parser.
  const Json j = r.series->toJson();
  std::string err;
  std::optional<Json> parsed = Json::parse(j.dump(2), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("columns")->size(), r.series->columns().size());
  EXPECT_EQ(parsed->find("samples")->size(), r.series->size());
}

TEST(TimeSeriesSampling, OffByDefault) {
  SystemConfig cfg =
      SystemConfig::unprotected(Protocol::kDirectory, ConsistencyModel::kTSO);
  cfg.numNodes = 2;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 20;
  System sys(cfg);
  EXPECT_EQ(sys.run().series, nullptr);
}

}  // namespace
}  // namespace dvmc
