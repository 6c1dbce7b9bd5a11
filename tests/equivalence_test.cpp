// Cross-configuration equivalence properties.
//
// A data-race-free program must produce the *same final architectural
// memory* no matter which coherence protocol, consistency model, or
// coherence-checker implementation the machine runs — the whole point of
// the consistency-model contract (DRF programs observe sequential
// consistency everywhere).  These tests run one DRF program across every
// protocol × model × checker combination and demand bit-identical final
// memory, which would catch lost stores, broken mutual exclusion, stray
// writes, and any checker that perturbs architectural state.
//
// Also holds the stats-report printer to its contract across every
// factory configuration (it touches every accessor path in System).

#include <gtest/gtest.h>

#include <sstream>

#include "coherence/memory_storage.hpp"
#include "common/flat_map.hpp"
#include "system/runner.hpp"
#include "system/stats_report.hpp"
#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

constexpr int kNodes = 4;
constexpr int kCounters = 3;
constexpr int kRounds = 4;
constexpr int kPrivateWords = 16;
constexpr Addr kLockBase = 0x10000;
constexpr Addr kCounterBase = 0x600000;

Addr lockAddr(int c) { return kLockBase + static_cast<Addr>(c) * 0x40; }
Addr counterAddr(int c) { return kCounterBase + static_cast<Addr>(c) * 0x40; }
Addr privateAddr(NodeId n, int i) {
  return (Addr{1} << 30) + (static_cast<Addr>(n) << 26) +
         static_cast<Addr>(i) * 8;
}

/// DRF program: every node increments kCounters shared counters kRounds
/// times, each increment inside a CAS-lock critical section bracketed by
/// full membars (so it is properly synchronized even under RMO), then
/// fills a private array with node-specific values.
class DrfProgram final : public ThreadProgram {
 public:
  explicit DrfProgram(NodeId self) : self_(self) {}

  std::optional<Instr> next() override {
    if (waiting_) return std::nullopt;
    switch (state_) {
      case 0:  // acquire lock[c]
        waiting_ = true;
        state_ = 1;
        return Instr::cas(lockAddr(counter_), 0, self_ + 1, /*token=*/1);
      case 2:  // acquire membar
        state_ = 3;
        return Instr::membar(membar::kAll);
      case 3:  // read the counter
        waiting_ = true;
        state_ = 4;
        return Instr::load(counterAddr(counter_), /*token=*/2);
      case 5:  // write counter+1
        state_ = 6;
        return Instr::store(counterAddr(counter_), value_ + 1);
      case 6:  // release membar
        state_ = 7;
        return Instr::membar(membar::kAll);
      case 7: {  // release; advance counter/round
        const int held = counter_;
        if (++counter_ == kCounters) {
          counter_ = 0;
          ++round_;
        }
        state_ = round_ < kRounds ? 0 : 8;
        return Instr::store(lockAddr(held), 0);
      }
      case 8:  // private fill
        if (priv_ < kPrivateWords) {
          const int i = priv_++;
          return Instr::store(privateAddr(self_, i),
                              0xD00D0000u + (self_ << 8) + i);
        }
        state_ = 9;
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  void onResult(std::uint64_t token, std::uint64_t v) override {
    waiting_ = false;
    if (token == 1) {
      // CAS observed 0 (we won) or our own id (already applied): proceed.
      state_ = (v == 0 || v == self_ + 1) ? 2 : 0;
    } else {
      value_ = v;
      state_ = 5;
    }
  }

  bool finished() const override { return state_ == 9; }
  std::uint64_t transactionsCompleted() const override { return round_; }
  std::unique_ptr<ThreadProgram> clone() const override {
    return std::make_unique<DrfProgram>(*this);
  }

 private:
  NodeId self_;
  int state_ = 0;
  bool waiting_ = false;
  int counter_ = 0;
  int round_ = 0;
  int priv_ = 0;
  std::uint64_t value_ = 0;
};

SystemConfig drfConfig(Protocol p, ConsistencyModel m,
                       SystemConfig::CoherenceCheckerKind checker) {
  SystemConfig cfg = SystemConfig::withDvmc(p, m);
  cfg.coherenceChecker = checker;
  cfg.numNodes = kNodes;
  cfg.berEnabled = false;
  cfg.maxCycles = 30'000'000;
  cfg.programFactory = [](NodeId n) {
    return std::unique_ptr<ThreadProgram>(new DrfProgram(n));
  };
  return cfg;
}

FlatMap<Addr, DataBlock> finalMemory(const SystemConfig& cfg,
                                     const std::string& label) {
  System sys(cfg);
  RunResult r = sys.run();
  EXPECT_TRUE(r.completed) << label;
  EXPECT_EQ(r.detections, 0u) << label;
  return sys.memoryImage();
}

TEST(Equivalence, DrfFinalMemoryIdenticalAcrossProtocolAndModel) {
  FlatMap<Addr, DataBlock> reference;
  std::string referenceLabel;

  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    for (ConsistencyModel m :
         {ConsistencyModel::kSC, ConsistencyModel::kTSO,
          ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
      const std::string label =
          std::string(protocolName(p)) + "/" + modelName(m);
      SCOPED_TRACE(label);
      FlatMap<Addr, DataBlock> mem = finalMemory(
          drfConfig(p, m, SystemConfig::CoherenceCheckerKind::kEpoch), label);
      ASSERT_FALSE(mem.empty());

      // Spot-check the synchronized counters before comparing wholesale:
      // every config must see exactly nodes * rounds increments.
      for (int c = 0; c < kCounters; ++c) {
        const Addr blk = blockAddr(counterAddr(c));
        ASSERT_TRUE(mem.count(blk)) << "counter " << c << " never written";
        const std::uint64_t init = MemoryStorage::initialPattern(blk).read(
            blockOffset(counterAddr(c)));
        EXPECT_EQ(mem.at(blk).read(blockOffset(counterAddr(c))),
                  init + static_cast<std::uint64_t>(kNodes) * kRounds)
            << "counter " << c << " lost or duplicated an increment";
      }

      if (reference.empty()) {
        reference = std::move(mem);
        referenceLabel = label;
        continue;
      }
      ASSERT_EQ(mem.size(), reference.size())
          << "different set of written blocks vs " << referenceLabel;
      for (const auto& [blk, data] : reference) {
        auto it = mem.find(blk);
        ASSERT_NE(it, mem.end())
            << "block 0x" << std::hex << blk << std::dec
            << " written under " << referenceLabel << " but not here";
        EXPECT_TRUE(it->second == data)
            << "block 0x" << std::hex << blk << std::dec
            << " differs from " << referenceLabel;
      }
    }
  }
}

TEST(Equivalence, ShadowCheckerDoesNotPerturbArchitecturalState) {
  // Swapping the coherence-checker implementation (§8 modularity) must be
  // invisible to the architecture: same program, same final memory.
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    const std::string base = std::string(protocolName(p)) + "/TSO";
    FlatMap<Addr, DataBlock> epoch = finalMemory(
        drfConfig(p, ConsistencyModel::kTSO,
                  SystemConfig::CoherenceCheckerKind::kEpoch),
        base + "/epoch");
    FlatMap<Addr, DataBlock> shadow = finalMemory(
        drfConfig(p, ConsistencyModel::kTSO,
                  SystemConfig::CoherenceCheckerKind::kShadow),
        base + "/shadow");
    ASSERT_EQ(epoch.size(), shadow.size()) << base;
    for (const auto& [blk, data] : epoch) {
      auto it = shadow.find(blk);
      ASSERT_NE(it, shadow.end()) << base << ": block 0x" << std::hex << blk;
      EXPECT_TRUE(it->second == data)
          << base << ": block 0x" << std::hex << blk << std::dec
          << " differs between checker implementations";
    }
  }
}

// ---------------------------------------------------------------------------
// Stats report
// ---------------------------------------------------------------------------

struct ReportCase {
  const char* name;
  SystemConfig cfg;
};

class StatsReportSweep : public ::testing::TestWithParam<int> {};

std::vector<ReportCase> reportCases() {
  std::vector<ReportCase> cases;
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    cases.push_back({"unprotected",
                     SystemConfig::unprotected(p, ConsistencyModel::kTSO)});
    cases.push_back(
        {"dvmc", SystemConfig::withDvmc(p, ConsistencyModel::kTSO)});
    cases.push_back(
        {"snOnly", SystemConfig::snOnly(p, ConsistencyModel::kTSO)});
    SystemConfig shadow = SystemConfig::withDvmc(p, ConsistencyModel::kTSO);
    shadow.coherenceChecker = SystemConfig::CoherenceCheckerKind::kShadow;
    cases.push_back({"shadow", shadow});
  }
  return cases;
}

TEST_P(StatsReportSweep, PrintsEverySectionWithoutDetections) {
  ReportCase rc = reportCases()[static_cast<std::size_t>(GetParam())];
  rc.cfg.numNodes = 4;
  rc.cfg.targetTransactions = 40;
  rc.cfg.workload = WorkloadKind::kMicroMix;
  System sys(rc.cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed) << rc.name;

  std::ostringstream os;
  StatsReportOptions opts;
  opts.perNode = true;
  opts.includeZero = (GetParam() % 2 == 0);
  printStatsReport(sys, os, opts);
  const std::string out = os.str();

  EXPECT_NE(out.find("[cores]"), std::string::npos) << rc.name;
  EXPECT_NE(out.find("[cache hierarchy]"), std::string::npos) << rc.name;
  EXPECT_NE(out.find("[coherence]"), std::string::npos) << rc.name;
  EXPECT_NE(out.find("net/totalBytes"), std::string::npos) << rc.name;
  EXPECT_NE(out.find("[detections] count=0"), std::string::npos) << rc.name;
  EXPECT_NE(out.find("node 3"), std::string::npos)
      << rc.name << ": perNode lines missing";
  const bool hasDvmc = rc.cfg.dvmc.cacheCoherence;
  EXPECT_EQ(out.find("cet/") != std::string::npos ||
                out.find("shadow/") != std::string::npos,
            hasDvmc)
      << rc.name << ": checker section does not match configuration";
  if (rc.cfg.berEnabled) {
    EXPECT_NE(out.find("[safetynet]"), std::string::npos) << rc.name;
    EXPECT_NE(out.find("ber/recoveryWindow"), std::string::npos) << rc.name;
  }
  if (rc.cfg.dvmc.uniprocOrdering) {
    EXPECT_NE(out.find("vc/vc."), std::string::npos) << rc.name;
  }
  if (rc.cfg.dvmc.allowableReordering) {
    EXPECT_NE(out.find("ar/ar."), std::string::npos) << rc.name;
  }
  // A histogram prints the max of the merged distribution, not the sum of
  // the nodes' maxima.
  const MetricSnapshot snap = sys.metricsSnapshot();
  const auto residence = snap.histograms.find("met.informSortResidence");
  if (residence != snap.histograms.end() && residence->second.maxValue() > 0) {
    const std::string key = "met/met.informSortResidence.max";
    const std::size_t at = out.find(key);
    ASSERT_NE(at, std::string::npos) << rc.name;
    std::uint64_t printed = 0;
    std::istringstream(out.substr(at + key.size())) >> printed;
    EXPECT_EQ(printed, residence->second.maxValue()) << rc.name;
  }
}

std::string reportCaseName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[8] = {"dirUnprotected", "dirDvmc",   "dirSnOnly",
                                  "dirShadow",      "snpUnprot", "snpDvmc",
                                  "snpSnOnly",      "snpShadow"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, StatsReportSweep, ::testing::Range(0, 8),
                         reportCaseName);

}  // namespace
}  // namespace dvmc
