// Microbenchmarks (google-benchmark) for the offline oracle data paths:
// commit-trace recording (the only per-operation cost a capturing run
// pays), dvmc-trace serialize/parse, and verify::checkTrace end-to-end on
// synthetic sequentially consistent interleavings. These bound the capture
// overhead of --capture-trace and the oracle cost per campaign case.
//
// Accepts `--json <path>` in addition to the usual --benchmark_* flags:
// writes a dvmc-bench document that the CI perf gate diffs against
// bench/baseline/bench_micro_oracle.json.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "consistency/op.hpp"
#include "verify/oracle.hpp"
#include "verify/trace.hpp"

namespace dvmc {
namespace {

using verify::CapturedTrace;
using verify::TraceOp;
using verify::TraceRecord;
using verify::TraceRecorder;

// A coherent interleaved history: cores round-robin over a small location
// set, every store writes a globally unique value, every load observes the
// latest store (or the zero initial value). Consistent under every model,
// so checkTrace walks the full graph without early-exiting on a violation.
CapturedTrace syntheticTrace(std::size_t records, std::uint32_t cores,
                             ConsistencyModel model) {
  CapturedTrace t;
  t.declaredModel = static_cast<std::uint8_t>(model);
  t.numCores = cores;
  t.seed = 42;
  constexpr std::size_t kLocs = 64;
  std::uint64_t mem[kLocs] = {};
  std::vector<SeqNum> seq(cores, 0);
  std::uint64_t nextVal = 1;
  Rng rng(0x0AC1E);
  t.records.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    TraceRecord r;
    r.node = static_cast<std::uint8_t>(i % cores);
    r.model = t.declaredModel;
    r.seq = ++seq[r.node];
    r.flags = verify::kFlagPerformed;
    r.performCycle = 10 + i;
    if (rng.chance(0.05)) {
      r.op = TraceOp::kMembar;
      r.membarMask = membar::kAll;
    } else {
      const std::size_t loc = rng.below(kLocs);
      r.addr = 0x1000 + loc * 8;
      if (rng.chance(0.4)) {
        r.op = TraceOp::kStore;
        r.value = nextVal++;
        mem[loc] = r.value;
      } else {
        r.op = TraceOp::kLoad;
        r.value = mem[loc];
        r.readValue = r.value;
      }
    }
    t.records.push_back(r);
  }
  return t;
}

// Per-operation cost of capture on the commit path: a buffered store's
// onCommit plus its later storePerformed patch (the worst case; loads pay
// a single onCommit).
void BM_TraceRecorderStoreLifecycle(benchmark::State& state) {
  TraceRecorder rec(4, ConsistencyModel::kTSO, 0, 1,
                    std::size_t{1} << 28);
  TraceRecord r;
  r.op = TraceOp::kStore;
  SeqNum seq = 0;
  for (auto _ : state) {
    r.seq = ++seq;
    r.addr = 0x1000 + (seq % 64) * 8;
    r.value = seq;
    rec.onCommit(r);
    rec.storePerformed(0, seq, seq);
  }
  benchmark::DoNotOptimize(rec.trace());
}
BENCHMARK(BM_TraceRecorderStoreLifecycle);

void BM_TraceSerialize(benchmark::State& state) {
  const CapturedTrace t = syntheticTrace(
      static_cast<std::size_t>(state.range(0)), 4, ConsistencyModel::kTSO);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.serialize());
  }
}
BENCHMARK(BM_TraceSerialize)->Arg(16384);

void BM_TraceParse(benchmark::State& state) {
  const std::vector<std::uint8_t> bytes =
      syntheticTrace(static_cast<std::size_t>(state.range(0)), 4,
                     ConsistencyModel::kTSO)
          .serialize();
  for (auto _ : state) {
    CapturedTrace out;
    std::string err;
    benchmark::DoNotOptimize(
        CapturedTrace::parse(bytes.data(), bytes.size(), &out, &err));
  }
}
BENCHMARK(BM_TraceParse)->Arg(16384);

// Full oracle check — write serialization, value resolution, edge
// derivation, topological sort — per trace. One iteration checks
// state.range(0) records.
void BM_OracleCheck(benchmark::State& state) {
  const CapturedTrace t = syntheticTrace(
      static_cast<std::size_t>(state.range(0)), 4, ConsistencyModel::kTSO);
  for (auto _ : state) {
    const verify::OracleResult o = verify::checkTrace(t);
    benchmark::DoNotOptimize(o.clean);
  }
}
BENCHMARK(BM_OracleCheck)->Arg(4096)->Arg(32768);

// RMO drops the load-ordering (CoRR) edges; SC adds the most po edges.
// Bracket the model range at the larger trace size.
void BM_OracleCheckSc(benchmark::State& state) {
  const CapturedTrace t =
      syntheticTrace(32768, 8, ConsistencyModel::kSC);
  for (auto _ : state) {
    const verify::OracleResult o = verify::checkTrace(t);
    benchmark::DoNotOptimize(o.clean);
  }
}
BENCHMARK(BM_OracleCheckSc);

void BM_OracleCheckRmo(benchmark::State& state) {
  const CapturedTrace t =
      syntheticTrace(32768, 8, ConsistencyModel::kRMO);
  for (auto _ : state) {
    const verify::OracleResult o = verify::checkTrace(t);
    benchmark::DoNotOptimize(o.clean);
  }
}
BENCHMARK(BM_OracleCheckRmo);

// Console reporter that additionally records every iteration run into the
// dvmc-bench row collector (same convention as bench_micro_checkers:
// events/sec = benchmark iterations per wall second).
class RecordingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const double wallSec = r.real_accumulated_time;
      const double eps =
          wallSec > 0 ? static_cast<double>(r.iterations) / wallSec : 0;
      bench::recordBenchResult(r.benchmark_name(), eps, wallSec * 1e3);
    }
  }
};

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_micro_oracle",
      "microbenchmarks for the trace capture and oracle data paths",
      /*gbenchPassthrough=*/true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dvmc::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  dvmc::bench::writeBenchJson("bench_micro_oracle");
  return 0;
}
