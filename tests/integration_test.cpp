// Cross-cutting integration and property tests: determinism, value
// convergence through heavy sharing, checker-activity invariants, mixed
// producer/consumer patterns, and config-sweep properties.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <memory>
#include <vector>

#include "store_image.hpp"
#include "system/system.hpp"
#include "workload/scripted.hpp"

namespace dvmc {
namespace {

RunResult runSystem(const SystemConfig& cfg) {
  System sys(cfg);
  return sys.run();
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(Integration, RunsAreBitDeterministic) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 80;
  cfg.seed = 99;
  const RunResult a = runSystem(cfg);
  const RunResult b = runSystem(cfg);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.retiredInstructions, b.retiredInstructions);
  EXPECT_TRUE(a.metrics == b.metrics);
  EXPECT_GT(a.metrics.value("net.totalBytes"), 0u);
  EXPECT_EQ(a.detections, b.detections);
}

TEST(Integration, DifferentSeedsDiverge) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 80;
  cfg.seed = 1;
  const RunResult a = runSystem(cfg);
  cfg.seed = 2;
  const RunResult b = runSystem(cfg);
  EXPECT_NE(a.cycles, b.cycles);
}

// ---------------------------------------------------------------------------
// Value convergence under heavy sharing (message-passing chains)
// ---------------------------------------------------------------------------

TEST(Integration, TokenRingPassesValueThroughEveryNode) {
  // Node i spins on word i until it sees i*1000, then writes (i+1)*1000 to
  // word i+1: a dependency chain that only completes if every coherence
  // handoff delivers the freshest data.
  constexpr Addr kBase = 0x600000;
  constexpr std::size_t kNodes = 4;

  class RingProgram final : public ThreadProgram {
   public:
    explicit RingProgram(NodeId self) : self_(self) {}
    std::optional<Instr> next() override {
      if (done_ || waiting_) return std::nullopt;
      if (self_ == 0 && !kicked_) {
        kicked_ = true;
        return Instr::store(kBase + 1 * 8, 1000);
      }
      if (!observed_) {
        waiting_ = true;
        return Instr::load(kBase + (self_ + 1) * 8, 1);
      }
      done_ = true;
      if (self_ + 1 < kNodes) {
        return Instr::store(kBase + (self_ + 2) * 8,
                            (self_ + 2) * 1000ull);
      }
      return std::nullopt;
    }
    void onResult(std::uint64_t, std::uint64_t v) override {
      waiting_ = false;
      if (v == (self_ + 1) * 1000ull) observed_ = true;
    }
    bool finished() const override { return done_; }
    std::uint64_t transactionsCompleted() const override { return done_; }
    std::unique_ptr<ThreadProgram> clone() const override {
      return std::make_unique<RingProgram>(*this);
    }

   private:
    NodeId self_;
    bool kicked_ = false;
    bool waiting_ = false;
    bool observed_ = false;
    bool done_ = false;
  };

  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    SystemConfig cfg = SystemConfig::withDvmc(p, ConsistencyModel::kTSO);
    cfg.numNodes = kNodes;
    cfg.berEnabled = false;
    cfg.maxCycles = 3'000'000;
    cfg.programFactory = [](NodeId n) {
      return std::unique_ptr<ThreadProgram>(new RingProgram(n));
    };
    System sys(cfg);
    RunResult r = sys.run();
    EXPECT_TRUE(r.completed) << protocolName(p);
    EXPECT_EQ(r.detections, 0u) << protocolName(p);
  }
}

TEST(Integration, CriticalSectionCounterIsExact) {
  // Each node increments a shared counter under a swap lock K times; the
  // final value must be exactly nodes * K (mutual exclusion + coherence).
  constexpr Addr kLock = 0x10000;
  constexpr Addr kCounter = 0x600000;
  constexpr int kIncrements = 12;

  class Incrementer final : public ThreadProgram {
   public:
    Incrementer(NodeId self, ConsistencyModel model)
        : self_(self), model_(model) {}
    std::optional<Instr> next() override {
      if (waiting_) return std::nullopt;
      switch (state_) {
        case 0:  // try to take the lock (CAS: failures leave it intact)
          waiting_ = true;
          state_ = 1;
          return Instr::cas(kLock, 0, self_ + 1, 1);
        case 2:  // read the counter
          waiting_ = true;
          state_ = 3;
          return Instr::load(kCounter, 2);
        case 4:  // write counter+1
          state_ = 7;
          return Instr::store(kCounter, counter_ + 1);
        case 7:  // release barrier (RMO: stores must not pass the unlock)
          state_ = 5;
          if (model_ == ConsistencyModel::kRMO) {
            return Instr::membar(membar::kLoadStore | membar::kStoreStore);
          }
          [[fallthrough]];
        case 5:  // release
          state_ = done_ + 1 <= kIncrements && ++done_ < kIncrements ? 0 : 6;
          return Instr::store(kLock, 0);
        default:
          return std::nullopt;
      }
    }
    void onResult(std::uint64_t token, std::uint64_t v) override {
      waiting_ = false;
      if (token == 1) {
        state_ = (v == 0 || v == self_ + 1) ? 2 : 0;  // retry when held
      } else {
        counter_ = v;
        state_ = 4;
      }
    }
    bool finished() const override { return state_ == 6; }
    std::uint64_t transactionsCompleted() const override { return done_; }
    std::unique_ptr<ThreadProgram> clone() const override {
      return std::make_unique<Incrementer>(*this);
    }

   private:
    NodeId self_;
    ConsistencyModel model_;
    int state_ = 0;
    bool waiting_ = false;
    std::uint64_t counter_ = 0;
    int done_ = 0;
  };

  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    for (ConsistencyModel m :
         {ConsistencyModel::kTSO, ConsistencyModel::kRMO}) {
      SystemConfig cfg = SystemConfig::withDvmc(p, m);
      cfg.numNodes = 4;
      cfg.berEnabled = false;
      cfg.maxCycles = 20'000'000;
      cfg.programFactory = [m](NodeId n) {
        return std::unique_ptr<ThreadProgram>(new Incrementer(n, m));
      };
      System sys(cfg);
      StoreImage image;
      sys.setStoreAuditHook([&image](NodeId, Addr addr, std::uint64_t value) {
        applyStore(image, addr, value);
      });
      RunResult r = sys.run();
      ASSERT_TRUE(r.completed) << protocolName(p) << "/" << modelName(m);
      EXPECT_EQ(r.detections, 0u) << protocolName(p) << "/" << modelName(m);
      // The authoritative value lives wherever the last owner is; check
      // through the image the performed stores built: every store passed
      // through the audit hook, so the image carries the result.
      const Addr blk = blockAddr(kCounter);
      ASSERT_TRUE(image.count(blk));
      const std::uint64_t init =
          MemoryStorage::initialPattern(blk).read(blockOffset(kCounter));
      EXPECT_EQ(image.at(blk).read(blockOffset(kCounter)),
                init + 4u * kIncrements)
          << protocolName(p) << "/" << modelName(m)
          << " lost an increment (mutual exclusion broken?)";
    }
  }
}

// ---------------------------------------------------------------------------
// Checker-activity invariants
// ---------------------------------------------------------------------------

TEST(Integration, InformTrafficProportionalToCoherence) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 100;
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  std::uint64_t epochBegins = 0;
  std::uint64_t informs = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    epochBegins += sys.cet(n)->stats().get("cet.beginRO") +
                   sys.cet(n)->stats().get("cet.beginRW");
    informs += sys.cet(n)->stats().get("cet.informEpoch") +
               sys.cet(n)->stats().get("cet.informClosed");
  }
  EXPECT_GT(epochBegins, 0u);
  // Every ended epoch produced exactly one inform; open epochs at the end
  // of the run account for the difference.
  std::uint64_t stillOpen = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    stillOpen += sys.cet(n)->openEpochs();
  }
  EXPECT_EQ(epochBegins, informs + stillOpen);
}

TEST(Integration, DisabledCheckersStaySilent) {
  SystemConfig cfg = SystemConfig::unprotected(Protocol::kDirectory,
                                               ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kApache;
  cfg.targetTransactions = 60;
  System sys(cfg);
  RunResult r = sys.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sys.cet(0), nullptr);
  EXPECT_EQ(sys.met(0), nullptr);
  EXPECT_EQ(sys.ber(), nullptr);
  EXPECT_EQ(r.detections, 0u);
}

TEST(Integration, DvmcAddsInterconnectTraffic) {
  SystemConfig base = SystemConfig::unprotected(Protocol::kDirectory,
                                                ConsistencyModel::kTSO);
  base.numNodes = 4;
  base.workload = WorkloadKind::kOltp;
  base.targetTransactions = 100;
  const RunResult rb = runSystem(base);

  SystemConfig dvmc = SystemConfig::withDvmc(Protocol::kDirectory,
                                             ConsistencyModel::kTSO);
  dvmc.numNodes = 4;
  dvmc.workload = WorkloadKind::kOltp;
  dvmc.targetTransactions = 100;
  const RunResult rd = runSystem(dvmc);

  const double perCycleBase =
      static_cast<double>(rb.metrics.value("net.totalBytes")) / rb.cycles;
  const double perCycleDvmc =
      static_cast<double>(rd.metrics.value("net.totalBytes")) / rd.cycles;
  EXPECT_GT(perCycleDvmc, perCycleBase);
}

// ---------------------------------------------------------------------------
// Property sweep: every model/protocol pair behaves across cache sizes
// ---------------------------------------------------------------------------

struct SweepCase {
  Protocol protocol;
  ConsistencyModel model;
  std::size_t l2Sets;
};

class ConfigSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConfigSweep, CompletesCleanly) {
  const SweepCase& c = GetParam();
  SystemConfig cfg = SystemConfig::withDvmc(c.protocol, c.model);
  cfg.numNodes = 4;
  cfg.l2 = {c.l2Sets, 4};
  cfg.workload = WorkloadKind::kMicroMix;
  cfg.targetTransactions = 60;
  cfg.maxCycles = 40'000'000;
  System sys(cfg);
  RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.detections, 0u)
      << (sys.sink().any() ? sys.sink().first().what : "");
}

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> v;
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    for (ConsistencyModel m :
         {ConsistencyModel::kSC, ConsistencyModel::kTSO,
          ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
      for (std::size_t sets : {8u, 64u}) {  // tiny cache = eviction storm
        v.push_back({p, m, sets});
      }
    }
  }
  return v;
}

std::string sweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::string(protocolName(info.param.protocol)) + "_" +
         modelName(info.param.model) + "_sets" +
         std::to_string(info.param.l2Sets);
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, ConfigSweep,
                         ::testing::ValuesIn(sweepCases()), sweepName);


// ---------------------------------------------------------------------------
// Value lineage: every word of the final architectural memory must be a
// value some store actually wrote (observed through the audit hook) or the
// deterministic initial pattern — no fabricated or corrupted data anywhere
// after a full workload on either protocol.
// ---------------------------------------------------------------------------

TEST(Integration, FinalMemoryValuesHaveStoreLineage) {
  for (Protocol p : {Protocol::kDirectory, Protocol::kSnooping}) {
    SystemConfig cfg = SystemConfig::withDvmc(p, ConsistencyModel::kTSO);
    cfg.numNodes = 4;
    cfg.workload = WorkloadKind::kOltp;
    cfg.targetTransactions = 120;
    System sys(cfg);
    std::map<Addr, std::set<std::uint64_t>> written;
    sys.setStoreAuditHook([&written](NodeId, Addr addr, std::uint64_t value) {
      written[wordAddr(addr)].insert(value);
    });
    RunResult r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.detections, 0u);
    ASSERT_FALSE(written.empty());

    std::size_t checked = 0;
    // BER is on: SafetyNet's image is the final architectural memory.
    for (const auto& [blk, data] : sys.ber()->image()) {
      const DataBlock initial = MemoryStorage::initialPattern(blk);
      for (std::size_t w = 0; w < kBlockSizeWords; ++w) {
        const std::size_t off = w * kWordBytes;
        const Addr addr = blk + off;
        const std::uint64_t v = data.read(off);
        if (v == initial.read(off)) continue;  // never stored
        auto it = written.find(addr);
        ASSERT_NE(it, written.end())
            << protocolName(p) << ": word 0x" << std::hex << addr
            << " changed without any store";
        EXPECT_TRUE(it->second.count(v))
            << protocolName(p) << ": word 0x" << std::hex << addr
            << " holds value 0x" << v << " that no store wrote";
        ++checked;
      }
    }
    EXPECT_GT(checked, 100u) << "lineage check exercised too few words";
  }
}

}  // namespace
}  // namespace dvmc
