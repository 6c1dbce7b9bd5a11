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
    sys.runUntil([&] { return sys.sim().now() >= kInjectAt; });
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
             0x9a883a123021a46full, 0x54d928d3de459d41ull},
        Cell{"dir_TSO", kDir, CM::kTSO, Variant::kBase,
             0xce8fc37b6edb159cull, 0x389e46eb953526a3ull},
        Cell{"dir_PSO", kDir, CM::kPSO, Variant::kBase,
             0xcd3154204e6ca799ull, 0x4c05566891c3f73bull},
        Cell{"dir_RMO", kDir, CM::kRMO, Variant::kBase,
             0xd4965dcf9fd74e27ull, 0x079a50440e01ba53ull},
        Cell{"snoop_SC", kSnp, CM::kSC, Variant::kBase,
             0x98540086a8730399ull, 0x1f65e837f1abfe78ull},
        Cell{"snoop_TSO", kSnp, CM::kTSO, Variant::kBase,
             0x983243f66fd9b9bbull, 0x7ad4752ca5d30294ull},
        Cell{"snoop_PSO", kSnp, CM::kPSO, Variant::kBase,
             0x348a875a6281e54aull, 0xf5af127589803558ull},
        Cell{"snoop_RMO", kSnp, CM::kRMO, Variant::kBase,
             0x6937bceed3151820ull, 0x9e472d69336a3953ull},
        Cell{"dir_TSO_shadow", kDir, CM::kTSO, Variant::kShadow,
             0x6ba9d4eadef15685ull, 0x1b783d241ee85038ull},
        Cell{"snoop_TSO_shadow", kSnp, CM::kTSO, Variant::kShadow,
             0xf54428d269048402ull, 0x7a5b36f232b83ad5ull},
        Cell{"dir_TSO_smallL2", kDir, CM::kTSO, Variant::kSmallL2,
             0x8be5b55121b96d42ull, 0xb551ad15d1792f7dull},
        Cell{"snoop_TSO_smallL2", kSnp, CM::kTSO, Variant::kSmallL2,
             0xdedf0acebd7b6913ull, 0x7022b719cd85b222ull},
        Cell{"dir_TSO_faulted", kDir, CM::kTSO, Variant::kFaulted,
             0x96d4ff183a88f5d4ull, 0x71c90c8fda74ecb7ull},
        Cell{"snoop_TSO_faulted", kSnp, CM::kTSO, Variant::kFaulted,
             0x06e215c8e493d6e0ull, 0x7ad4752ca5d30294ull},
        Cell{"dir_TSO_recovered", kDir, CM::kTSO, Variant::kRecovered,
             0xf8e12b94aa5aa35full, 0x9f010397676b6e73ull},
        Cell{"snoop_TSO_recovered", kSnp, CM::kTSO, Variant::kRecovered,
             0x72a8d038589bfb00ull, 0x5db5a9626935d17aull}),
    cellName);

}  // namespace
}  // namespace dvmc
