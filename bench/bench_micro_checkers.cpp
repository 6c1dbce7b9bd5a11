// Microbenchmarks (google-benchmark) for the DVMC checker data paths:
// CRC-16 block hashing, CET transitions, MET inform processing with the
// sorting queue, AR checker perform events, and VC operations. These bound
// the per-event software cost of the simulated hardware structures.
//
// Accepts `--json <path>` in addition to the usual --benchmark_* flags:
// writes a dvmc-bench document (one row per benchmark: name, iterations
// per second, measured wall ms) that the CI perf gate diffs against
// bench/baseline/bench_micro_checkers.json.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/crc16.hpp"
#include "dvmc/cache_epoch_checker.hpp"
#include "dvmc/memory_epoch_checker.hpp"
#include "dvmc/reorder_checker.hpp"
#include "dvmc/shadow_checker.hpp"
#include "dvmc/verification_cache.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

void BM_Crc16Block(benchmark::State& state) {
  DataBlock d;
  for (std::size_t w = 0; w < kBlockSizeWords; ++w) {
    d.write(w * kWordBytes, w);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashBlock(d));
  }
}
BENCHMARK(BM_Crc16Block);

void BM_CetEpochCycle(benchmark::State& state) {
  Simulator sim;
  DvmcConfig cfg;
  ErrorSink sink;
  std::uint64_t sentCount = 0;
  CacheEpochChecker cet(sim, 0, cfg, &sink,
                        [&sentCount](Message) { ++sentCount; });
  DataBlock d;
  std::uint64_t t = 0;
  for (auto _ : state) {
    const Addr blk = ((t % 1024) + 1) * kBlockSizeBytes;
    cet.onEpochBegin(blk, t % 2 == 0, d, t);
    cet.onPerformAccess(blk, false);
    cet.onEpochEnd(blk, d, t + 1);
    ++t;
  }
  benchmark::DoNotOptimize(sentCount);
}
BENCHMARK(BM_CetEpochCycle);

void BM_MetInformProcessing(benchmark::State& state) {
  Simulator sim;
  DvmcConfig cfg;
  cfg.informQueueCapacity = static_cast<std::size_t>(state.range(0));
  ErrorSink sink;
  class FixedClock final : public LogicalClock {
   public:
    std::uint64_t now() override { return 0; }
  } clock;
  MemoryEpochChecker met(sim, 0, cfg, &sink, clock);
  DataBlock d;
  met.onHomeRequest(0x1000, d);
  std::uint64_t t = 0;
  Message m;
  m.type = MsgType::kInformEpoch;
  m.src = 1;
  m.addr = 0x1000;
  m.epoch.beginHash = hashBlock(d);
  m.epoch.endHash = m.epoch.beginHash;
  for (auto _ : state) {
    m.epoch.readWrite = (t % 2) == 0;
    m.epoch.begin = ltimeTruncate(t);
    m.epoch.end = ltimeTruncate(t + 1);
    met.onInform(m);
    t += 2;
  }
  met.drain();
}
BENCHMARK(BM_MetInformProcessing)->Arg(16)->Arg(256);

void BM_ArCheckerPerform(benchmark::State& state) {
  Simulator sim;
  ErrorSink sink;
  ReorderChecker ar(sim, 0, &sink);
  const OrderingTable t = OrderingTable::forModel(ConsistencyModel::kTSO);
  SeqNum seq = 1;
  for (auto _ : state) {
    ar.onCommit(OpType::kStore, seq);
    ar.onPerform(OpType::kStore, 0, seq, t);
    ++seq;
  }
}
BENCHMARK(BM_ArCheckerPerform);

void BM_VcStoreLifecycle(benchmark::State& state) {
  ErrorSink sink;
  VerificationCache vc(0, kVcWordCapacity, &sink);
  Addr a = 0x1000;
  for (auto _ : state) {
    vc.storeCommit(a, 42);
    benchmark::DoNotOptimize(vc.lookupStore(a));
    vc.storePerformed(a, 42, 0);
    a += kWordBytes;
    if (a > 0x2000) a = 0x1000;
  }
}
BENCHMARK(BM_VcStoreLifecycle);

void BM_ShadowCheckerCycle(benchmark::State& state) {
  Simulator sim;
  ErrorSink sink;
  ShadowCacheChecker sc(sim, 0, &sink);
  DataBlock d;
  std::uint64_t t = 0;
  for (auto _ : state) {
    const Addr blk = ((t % 1024) + 1) * kBlockSizeBytes;
    sc.onEpochBegin(blk, t % 2 == 0, d, t);
    sc.onPerformAccess(blk, false);
    sc.onEpochEnd(blk, d, t + 1);
    ++t;
  }
}
BENCHMARK(BM_ShadowCheckerCycle);

void BM_ShadowHomeGrantWriteback(benchmark::State& state) {
  Simulator sim;
  ErrorSink sink;
  ShadowHomeChecker sh(sim, 0, &sink);
  DataBlock d;
  sh.onHomeRequest(0x1000, d);
  const std::uint16_t h = hashBlock(d);
  NodeId n = 0;
  for (auto _ : state) {
    sh.onHomeGrant(0x1000, n % 8, true, true, h);
    sh.onHomeWriteback(0x1000, n % 8, h, true);
    ++n;
  }
}
BENCHMARK(BM_ShadowHomeGrantWriteback);

void BM_OrderingTableQuery(benchmark::State& state) {
  const OrderingTable t = OrderingTable::forModel(ConsistencyModel::kRMO);
  std::uint8_t m = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.requiresOrder(OpType::kLoad, 0, OpType::kMembar, m));
    m = static_cast<std::uint8_t>((m % 15) + 1);
  }
}
BENCHMARK(BM_OrderingTableQuery);

// Console reporter that additionally records every iteration run into the
// dvmc-bench row collector (events/sec = benchmark iterations per wall
// second; each iteration is one checker event).
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
      argc, argv, "bench_micro_checkers",
      "microbenchmarks for the DVMC checker data paths",
      /*gbenchPassthrough=*/true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dvmc::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  dvmc::bench::writeBenchJson("bench_micro_checkers");
  return 0;
}
