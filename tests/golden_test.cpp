// Golden run fingerprints: pins the simulated machine across commits.
//
// Each cell is a fixed-seed, 4-node oltp run with the full DVMC checker
// set, SafetyNet and commit-trace capture. The cell hashes (FNV-1a 64)
// only integers and strings, into two halves:
//   * machine: the serialized dvmc-trace (when captured), the integer
//     RunResult fields except `detections`, and every counter and histogram
//     of the per-node metric snapshot that does not belong to a checker;
//   * checker: the checker metrics (names starting `ar.`, `cet.`, `met.`,
//     `shadow.` or `vc.` after any `nodeN/` prefix), `detections` and the
//     detection list.
// A refactor that claims to leave the machine alone must leave every hash
// unchanged. A change to how a checker judges or counts, without
// recovery, moves only checker halves and shows the machine stayed put. A
// change that alters either on purpose re-baselines the constants below
// and says why.
//
// Beyond the protocol x model matrix, the cells reach the paths a default
// run never takes: the shadow checker, a tiny L2 whose sets fill with
// in-flight transactions (directory writeback stalls, snooping deferred
// snoops), one injected fault per protocol that lands in a controller's
// fault handling, and one injected fault per protocol that a checker
// detects and SafetyNet recovers from. Recovery re-executes in-flight work
// under fresh sequence numbers, which trace capture cannot record, so the
// recovery cells run without a trace and are the only cells that reach
// Core::snapshotState and Core::restoreState.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
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

enum class Variant { kBase, kShadow, kSmallL2, kFaulted, kRecovered };

struct Cell {
  const char* name;
  Protocol protocol;
  ConsistencyModel model;
  Variant variant;
  std::uint64_t machine;
  std::uint64_t checker;
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
  cfg.trace.capture = c.variant != Variant::kRecovered;
  cfg.autoRecover = c.variant == Variant::kRecovered;
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
  if (c.variant == Variant::kRecovered) return FaultType::kCacheStateFlip;
  return c.protocol == Protocol::kDirectory ? FaultType::kCacheStateFlip
                                            : FaultType::kMsgDuplicate;
}

struct Fingerprint {
  std::uint64_t machine;
  std::uint64_t checker;
};

// True for metrics a checker owns; `name` may carry a "nodeN/" prefix.
bool isCheckerMetric(const std::string& name) {
  const std::size_t slash = name.find('/');
  const std::string_view base =
      std::string_view(name).substr(slash == std::string::npos ? 0 : slash + 1);
  for (std::string_view prefix : {"ar.", "cet.", "met.", "shadow.", "vc."}) {
    if (base.starts_with(prefix)) return true;
  }
  return false;
}

Fingerprint fingerprint(System& sys, const RunResult& r) {
  Fnv1a machine;
  Fnv1a checker;
  if (r.trace != nullptr) {
    const std::vector<std::uint8_t> trace = r.trace->serialize();
    machine.u64(trace.size());
    machine.bytes(trace.data(), trace.size());
  }
  for (std::uint64_t v :
       {std::uint64_t{r.completed}, std::uint64_t{r.cycles}, r.transactions,
        r.retiredInstructions, r.memOps, r.memOps32, r.totalNetBytes,
        r.coherenceBytes, r.informBytes, r.ckptBytes, r.regularL1Misses,
        r.replayL1Misses, r.recoveries, r.unrecoverable, r.squashes,
        r.uoFlushes}) {
    machine.u64(v);
  }
  checker.u64(r.detections);
  const MetricSnapshot snap = sys.metricsSnapshot(/*perNode=*/true);
  for (const auto& [name, value] : snap.counters) {
    Fnv1a& h = isCheckerMetric(name) ? checker : machine;
    h.str(name);
    h.u64(value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    Fnv1a& h = isCheckerMetric(name) ? checker : machine;
    h.str(name);
    h.u64(hist.count());
    h.u64(hist.sum());
    h.u64(hist.maxValue());
    for (std::uint64_t b : hist.buckets()) h.u64(b);
  }
  for (const Detection& d : sys.sink().detections()) {
    checker.u64(static_cast<std::uint64_t>(d.kind));
    checker.u64(d.cycle);
    checker.u64(d.node);
    checker.u64(d.addr);
    checker.str(d.what);
  }
  return {machine.value(), checker.value()};
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
  if (c.variant == Variant::kFaulted || c.variant == Variant::kRecovered) {
    FaultInjector inj(sys, kInjectorSeed);
    sys.runTo(kInjectAt);
    ASSERT_TRUE(inj.inject(cellFault(c)));
    r = sys.run();
  } else {
    r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.detections, 0u) << sys.sink().first().what;
  }
  ASSERT_EQ(r.trace != nullptr, c.variant != Variant::kRecovered);

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
  if (c.variant == Variant::kRecovered) {
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_GT(snap.value("cpu.restarts"), 0u);
    EXPECT_TRUE(r.completed);
  }

  const Fingerprint got = fingerprint(sys, r);
  EXPECT_EQ(got.machine, c.machine)
      << "machine fingerprint 0x" << std::hex << got.machine;
  EXPECT_EQ(got.checker, c.checker)
      << "checker fingerprint 0x" << std::hex << got.checker;
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
             0xa02a1b10f19e3748ull, 0x3eceb6d2561f4991ull},
        Cell{"dir_TSO", kDir, CM::kTSO, Variant::kBase,
             0xe961dcf5aea2a48eull, 0xf5d4f6e3426c83c7ull},
        Cell{"dir_PSO", kDir, CM::kPSO, Variant::kBase,
             0xf676347a86241db7ull, 0x84bd33c338ca023bull},
        Cell{"dir_RMO", kDir, CM::kRMO, Variant::kBase,
             0x95dc69c9c83e02f2ull, 0xcf03f8cd01e11d9bull},
        Cell{"snoop_SC", kSnp, CM::kSC, Variant::kBase,
             0xf54a915e1966eca4ull, 0x76b9e0d9e972a06aull},
        Cell{"snoop_TSO", kSnp, CM::kTSO, Variant::kBase,
             0x2e1e64a82ac3111aull, 0xbd6d9d70d8a319f7ull},
        Cell{"snoop_PSO", kSnp, CM::kPSO, Variant::kBase,
             0x545d1f8a6b37f903ull, 0x8922c8cbe3c7fe23ull},
        Cell{"snoop_RMO", kSnp, CM::kRMO, Variant::kBase,
             0xf41aad8fb83722c3ull, 0xda4963d18b951a75ull},
        Cell{"dir_TSO_shadow", kDir, CM::kTSO, Variant::kShadow,
             0x6f28bd95781f6f8dull, 0x4695a4c5c23722e6ull},
        Cell{"snoop_TSO_shadow", kSnp, CM::kTSO, Variant::kShadow,
             0x5440544e8372259eull, 0x3b3b4bf3db44affbull},
        Cell{"dir_TSO_smallL2", kDir, CM::kTSO, Variant::kSmallL2,
             0xeb9fea8270074e38ull, 0xf5f241b0dc04455aull},
        Cell{"snoop_TSO_smallL2", kSnp, CM::kTSO, Variant::kSmallL2,
             0x8b76dba7de74262cull, 0x5ec73b34fcafd838ull},
        Cell{"dir_TSO_faulted", kDir, CM::kTSO, Variant::kFaulted,
             0x91338c2575fed5baull, 0x919963189ceb0f1dull},
        Cell{"snoop_TSO_faulted", kSnp, CM::kTSO, Variant::kFaulted,
             0x90039740b218686dull, 0x292b759c4c2aa896ull},
        Cell{"dir_TSO_recovered", kDir, CM::kTSO, Variant::kRecovered,
             0x08734dee519af40cull, 0x7891eeea5bc21112ull},
        Cell{"snoop_TSO_recovered", kSnp, CM::kTSO, Variant::kRecovered,
             0xe43e405a13643678ull, 0xed7fb00bdb3fb1c5ull}),
    cellName);

}  // namespace
}  // namespace dvmc
