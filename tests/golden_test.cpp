// Golden run fingerprints: pins the simulated machine across commits.
//
// Each cell is a fixed-seed, 4-node oltp run with the full DVMC checker
// set, SafetyNet and commit-trace capture. The cell hashes (FNV-1a 64)
// only integers and strings: the serialized dvmc-trace, the integer
// RunResult fields, every counter and histogram of the per-node metric
// snapshot, and the detection list. A refactor that claims to leave the
// machine alone must leave every hash unchanged. A change that alters the
// machine on purpose re-baselines the constants below and says why.
//
// Beyond the protocol x model matrix, the cells reach the paths a default
// run never takes: the shadow checker, a tiny L2 whose sets fill with
// in-flight transactions (directory writeback stalls, snooping deferred
// snoops), and one injected fault per protocol that lands in a
// controller's fault handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "system/system.hpp"

namespace dvmc {
namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const std::uint8_t b = static_cast<std::uint8_t>(v >> (8 * i));
      bytes(&b, 1);
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

enum class Variant { kBase, kShadow, kSmallL2, kFaulted };

struct Cell {
  const char* name;
  Protocol protocol;
  ConsistencyModel model;
  Variant variant;
  std::uint64_t expected;
};

// Fixed inputs of every cell.
constexpr std::uint64_t kSeed = 11;
constexpr std::uint64_t kTargetTransactions = 120;
constexpr std::uint64_t kInjectorSeed = 3;
constexpr Cycle kInjectAt = 4'000;

SystemConfig cellConfig(const Cell& c) {
  SystemConfig cfg = SystemConfig::withDvmc(c.protocol, c.model);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.seed = kSeed;
  cfg.targetTransactions = kTargetTransactions;
  cfg.maxCycles = 2'000'000;
  cfg.trace.capture = true;
  if (c.variant == Variant::kShadow) {
    cfg.coherenceChecker = SystemConfig::CoherenceCheckerKind::kShadow;
  }
  if (c.variant == Variant::kSmallL2) {
    cfg.l2 = {8, 2};
    cfg.l1 = {2, 2};
  }
  return cfg;
}

FaultType cellFault(const Cell& c) {
  return c.protocol == Protocol::kDirectory ? FaultType::kCacheStateFlip
                                            : FaultType::kMsgDuplicate;
}

std::uint64_t fingerprint(System& sys, const RunResult& r) {
  Fnv1a h;
  const std::vector<std::uint8_t> trace = r.trace->serialize();
  h.u64(trace.size());
  h.bytes(trace.data(), trace.size());
  for (std::uint64_t v :
       {std::uint64_t{r.completed}, std::uint64_t{r.cycles}, r.transactions,
        r.retiredInstructions, r.memOps, r.memOps32, r.totalNetBytes,
        r.coherenceBytes, r.informBytes, r.ckptBytes, r.regularL1Misses,
        r.replayL1Misses, r.detections, r.recoveries, r.unrecoverable,
        r.squashes, r.uoFlushes}) {
    h.u64(v);
  }
  const MetricSnapshot snap = sys.metricsSnapshot(/*perNode=*/true);
  for (const auto& [name, value] : snap.counters) {
    h.str(name);
    h.u64(value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    h.str(name);
    h.u64(hist.count());
    h.u64(hist.sum());
    h.u64(hist.maxValue());
    for (std::uint64_t b : hist.buckets()) h.u64(b);
  }
  for (const Detection& d : sys.sink().detections()) {
    h.u64(static_cast<std::uint64_t>(d.kind));
    h.u64(d.cycle);
    h.u64(d.node);
    h.u64(d.addr);
    h.str(d.what);
  }
  return h.value();
}

bool detected(System& sys, const std::string& what) {
  for (const Detection& d : sys.sink().detections()) {
    if (d.what == what) return true;
  }
  return false;
}

void PrintTo(const Cell& c, std::ostream* os) { *os << c.name; }

class GoldenFingerprint : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenFingerprint, MatchesBaseline) {
  const Cell& c = GetParam();
  System sys(cellConfig(c));
  RunResult r;
  if (c.variant == Variant::kFaulted) {
    FaultInjector inj(sys, kInjectorSeed);
    sys.runUntil([&] { return sys.sim().now() >= kInjectAt; });
    ASSERT_TRUE(inj.inject(cellFault(c)));
    r = sys.run();
  } else {
    r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.detections, 0u) << sys.sink().first().what;
  }
  ASSERT_NE(r.trace, nullptr);

  // Each special cell must still reach the path it exists for.
  const MetricSnapshot snap = sys.metricsSnapshot();
  if (c.variant == Variant::kSmallL2) {
    EXPECT_GT(snap.value(c.protocol == Protocol::kDirectory
                             ? "l2.wbStall"
                             : "l2.deferredSnoop"),
              0u);
  }
  if (c.variant == Variant::kFaulted) {
    if (c.protocol == Protocol::kDirectory) {
      EXPECT_TRUE(detected(
          sys, "FwdGetS received for a block this node does not own"));
    } else {
      EXPECT_GT(snap.value("l2.strayData"), 0u);
    }
  }

  const std::uint64_t got = fingerprint(sys, r);
  EXPECT_EQ(got, c.expected) << "fingerprint 0x" << std::hex << got;
}

std::string cellName(const ::testing::TestParamInfo<Cell>& info) {
  return info.param.name;
}

using CM = ConsistencyModel;
constexpr Protocol kDir = Protocol::kDirectory;
constexpr Protocol kSnp = Protocol::kSnooping;

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenFingerprint,
    ::testing::Values(
        Cell{"dir_SC", kDir, CM::kSC, Variant::kBase,
             0xef01cd37f065d01cull},
        Cell{"dir_TSO", kDir, CM::kTSO, Variant::kBase,
             0x982d50769755be46ull},
        Cell{"dir_PSO", kDir, CM::kPSO, Variant::kBase,
             0xbe63d106ca921b06ull},
        Cell{"dir_RMO", kDir, CM::kRMO, Variant::kBase,
             0x95093c20ea0c511dull},
        Cell{"snoop_SC", kSnp, CM::kSC, Variant::kBase,
             0x2633f648aa9b5ca2ull},
        Cell{"snoop_TSO", kSnp, CM::kTSO, Variant::kBase,
             0xef661fce52eedbf2ull},
        Cell{"snoop_PSO", kSnp, CM::kPSO, Variant::kBase,
             0x245716fd7ed3406bull},
        Cell{"snoop_RMO", kSnp, CM::kRMO, Variant::kBase,
             0xafd5075f99032912ull},
        Cell{"dir_TSO_shadow", kDir, CM::kTSO, Variant::kShadow,
             0x0a3b0f56beb58dfcull},
        Cell{"snoop_TSO_shadow", kSnp, CM::kTSO, Variant::kShadow,
             0x74bd00cc8ece7a80ull},
        Cell{"dir_TSO_smallL2", kDir, CM::kTSO, Variant::kSmallL2,
             0xd5e0108e12fed253ull},
        Cell{"snoop_TSO_smallL2", kSnp, CM::kTSO, Variant::kSmallL2,
             0x3229d0ac93f495e1ull},
        Cell{"dir_TSO_faulted", kDir, CM::kTSO, Variant::kFaulted,
             0x34f2d27c4a0ca785ull},
        Cell{"snoop_TSO_faulted", kSnp, CM::kTSO, Variant::kFaulted,
             0x42e3f5e07c6dc55bull}),
    cellName);

}  // namespace
}  // namespace dvmc
