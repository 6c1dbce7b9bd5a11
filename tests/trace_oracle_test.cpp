// The offline consistency oracle (verify/): serialization round-trips,
// malformed-input rejection, a hand-built litmus conformance suite
// (forbidden outcomes rejected, allowed outcomes accepted, per model), and
// the differential contract against live runs — fault-free captures come
// back CONSISTENT, and a memory-corrupting fault the checkers detect is
// independently provable from the trace alone, through a file round-trip
// (exactly what `dvmc_oracle check` does with a CI escape artifact).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "consistency/op.hpp"
#include "faults/injector.hpp"
#include "system/runner.hpp"
#include "system/system.hpp"
#include "verify/oracle.hpp"
#include "verify/streaming_oracle.hpp"
#include "verify/trace.hpp"
#include "verify/trace_sink.hpp"
#include "workload/fuzz_config.hpp"

namespace dvmc {
namespace {

using verify::CapturedTrace;
using verify::TraceOp;
using verify::TraceRecord;

// Addresses below kZeroInitBoundary read 0 before any write.
constexpr Addr kX = 0x1000;
constexpr Addr kY = 0x1040;

TraceRecord rec(TraceOp op, NodeId node, SeqNum seq, ConsistencyModel m,
                Addr addr, std::uint64_t value, Cycle pc) {
  TraceRecord r;
  r.op = op;
  r.node = std::uint8_t(node);
  r.seq = seq;
  r.model = std::uint8_t(m);
  r.addr = addr;
  r.value = value;
  r.readValue = value;
  r.performCycle = pc;
  r.flags = verify::kFlagPerformed;
  return r;
}

TraceRecord membarRec(NodeId node, SeqNum seq, ConsistencyModel m,
                      std::uint8_t mask, Cycle pc) {
  TraceRecord r = rec(TraceOp::kMembar, node, seq, m, 0, 0, pc);
  r.membarMask = mask;
  return r;
}

CapturedTrace makeTrace(ConsistencyModel declared, std::uint32_t cores,
                        std::vector<TraceRecord> records) {
  CapturedTrace t;
  t.declaredModel = std::uint8_t(declared);
  t.protocol = 0;
  t.numCores = cores;
  t.seed = 42;
  t.records = std::move(records);
  return t;
}

// --- serialization ---------------------------------------------------------

TEST(TraceSerialization, RoundTripsBitExactly) {
  CapturedTrace t = makeTrace(
      ConsistencyModel::kPSO, 2,
      {rec(TraceOp::kStore, 0, 1, ConsistencyModel::kPSO, kX, 7, 10),
       membarRec(0, 2, ConsistencyModel::kPSO, membar::kStbar, 12),
       rec(TraceOp::kSwap, 1, 1, ConsistencyModel::kTSO, kY, 9, 20)});
  t.records[2].readValue = 3;
  t.records[2].flags |= verify::kFlag32Bit;

  const std::vector<std::uint8_t> bytes = t.serialize();
  ASSERT_EQ(bytes.size(), CapturedTrace::byteOffset(t.records.size()));

  CapturedTrace back;
  std::string err;
  ASSERT_TRUE(CapturedTrace::parse(bytes.data(), bytes.size(), &back, &err))
      << err;
  EXPECT_EQ(back.declaredModel, t.declaredModel);
  EXPECT_EQ(back.numCores, t.numCores);
  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.truncated, t.truncated);
  ASSERT_EQ(back.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back.records[i], &t.records[i],
                          sizeof(TraceRecord)),
              0)
        << "record " << i;
  }
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(TraceSerialization, RejectsCorruptInput) {
  CapturedTrace t = makeTrace(
      ConsistencyModel::kSC, 1,
      {rec(TraceOp::kLoad, 0, 1, ConsistencyModel::kSC, kX, 0, 5)});
  std::vector<std::uint8_t> bytes = t.serialize();

  CapturedTrace out;
  std::string err;
  EXPECT_FALSE(CapturedTrace::parse(bytes.data(), 10, &out, &err));
  EXPECT_NE(err.find("byte"), std::string::npos) << err;

  std::vector<std::uint8_t> badMagic = bytes;
  badMagic[0] ^= 0xFF;
  EXPECT_FALSE(
      CapturedTrace::parse(badMagic.data(), badMagic.size(), &out, &err));

  std::vector<std::uint8_t> badVersion = bytes;
  badVersion[8] = 0xEE;
  EXPECT_FALSE(
      CapturedTrace::parse(badVersion.data(), badVersion.size(), &out, &err));

  std::vector<std::uint8_t> shortRecord = bytes;
  shortRecord.pop_back();
  EXPECT_FALSE(CapturedTrace::parse(shortRecord.data(), shortRecord.size(),
                                    &out, &err));
}

TEST(TraceOracle, RefusesTruncatedCapture) {
  CapturedTrace t = makeTrace(
      ConsistencyModel::kTSO, 1,
      {rec(TraceOp::kLoad, 0, 1, ConsistencyModel::kTSO, kX, 0, 5)});
  t.truncated = true;
  const verify::OracleResult res = verify::checkTrace(t);
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kMalformed);
}

TEST(TraceOracle, RejectsNonMonotoneSequenceNumbers) {
  CapturedTrace t = makeTrace(
      ConsistencyModel::kTSO, 1,
      {rec(TraceOp::kLoad, 0, 5, ConsistencyModel::kTSO, kX, 0, 5),
       rec(TraceOp::kLoad, 0, 5, ConsistencyModel::kTSO, kX, 0, 9)});
  const verify::OracleResult res = verify::checkTrace(t);
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kMalformed);
}

// Perform cycles need not follow trace order: a record performing 999,990
// cycles before the record ahead of it is clean.
TEST(TraceOracle, RecordPerformingFarBehindAnotherIsClean) {
  const ConsistencyModel m = ConsistencyModel::kRMO;
  CapturedTrace t = makeTrace(
      m, 2,
      {rec(TraceOp::kStore, 0, 1, m, kX, 1, 1'000'000),
       rec(TraceOp::kLoad, 1, 1, m, kY, 0, 10)});
  EXPECT_TRUE(verify::checkTrace(t).clean);
}

// Two remote writers of the value a read observed leave its writer
// unknown: the read is accepted without rf/fr edges and counted ambiguous.
TEST(TraceOracle, ReadWithTwoSameValueRemoteWritersIsAmbiguous) {
  const ConsistencyModel m = ConsistencyModel::kRMO;
  CapturedTrace t = makeTrace(
      m, 3,
      {rec(TraceOp::kStore, 0, 1, m, kX, 5, 20),
       rec(TraceOp::kLoad, 1, 1, m, kX, 5, 30),
       rec(TraceOp::kLoad, 1, 2, m, kY, 0, 60),
       rec(TraceOp::kStore, 2, 1, m, kX, 5, 100)});
  const verify::OracleResult res = verify::checkTrace(t);
  EXPECT_TRUE(res.clean);
  EXPECT_EQ(res.stats.ambiguousReads, 1u);
}

// --- litmus conformance ----------------------------------------------------

// Store buffering (SB): both cores buffer their store past their load.
//   n0: x = 1; r0 = y (0)        n1: y = 1; r1 = x (0)
// r0 == r1 == 0 is forbidden under SC, allowed under TSO and weaker.
CapturedTrace storeBuffering(ConsistencyModel m) {
  return makeTrace(
      m, 2,
      {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
       rec(TraceOp::kLoad, 0, 2, m, kY, 0, 50),
       rec(TraceOp::kStore, 1, 1, m, kY, 1, 101),
       rec(TraceOp::kLoad, 1, 2, m, kX, 0, 51)});
}

TEST(LitmusConformance, StoreBufferingForbiddenUnderSC) {
  const verify::OracleResult res = verify::checkTrace(
      storeBuffering(ConsistencyModel::kSC));
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kCycle);
}

TEST(LitmusConformance, StoreBufferingAllowedUnderTSO) {
  EXPECT_TRUE(
      verify::checkTrace(storeBuffering(ConsistencyModel::kTSO)).clean);
  EXPECT_TRUE(
      verify::checkTrace(storeBuffering(ConsistencyModel::kPSO)).clean);
  EXPECT_TRUE(
      verify::checkTrace(storeBuffering(ConsistencyModel::kRMO)).clean);
}

// SB with Membar #StoreLoad between store and load on both cores: the
// relaxed outcome becomes forbidden again on every model.
TEST(LitmusConformance, StoreBufferingWithMembarForbiddenUnderTSO) {
  const ConsistencyModel m = ConsistencyModel::kTSO;
  CapturedTrace t = makeTrace(
      m, 2,
      {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
       membarRec(0, 2, m, membar::kStoreLoad, 110),
       rec(TraceOp::kLoad, 0, 3, m, kY, 0, 120),
       rec(TraceOp::kStore, 1, 1, m, kY, 1, 101),
       membarRec(1, 2, m, membar::kStoreLoad, 111),
       rec(TraceOp::kLoad, 1, 3, m, kX, 0, 121)});
  const verify::OracleResult res = verify::checkTrace(t);
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kCycle);
  // The cycle runs through a membar's barrier node, named by the membar.
  bool viaBarrier = false;
  for (const auto& step : res.violations[0].cycle) {
    if (!step.barrier) continue;
    viaBarrier = true;
    EXPECT_EQ(t.records[step.record].op, TraceOp::kMembar);
  }
  EXPECT_TRUE(viaBarrier);
}

// The violation lists the whole cycle for `dvmc_oracle explain`: SB is
// store -po-> load -fr-> remote store -po-> remote load -fr-> back.
TEST(LitmusConformance, CycleViolationListsEveryNodeAndEdge) {
  const verify::OracleResult res = verify::checkTrace(
      storeBuffering(ConsistencyModel::kSC));
  ASSERT_FALSE(res.clean);
  const auto& cycle = res.violations[0].cycle;
  ASSERT_EQ(cycle.size(), 4u);
  std::vector<std::size_t> records;
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    EXPECT_FALSE(cycle[k].barrier);
    records.push_back(cycle[k].record);
    const std::string edge = cycle[k].edge;
    const std::string next = cycle[(k + 1) % cycle.size()].edge;
    EXPECT_TRUE(edge == "po" || edge == "fr") << edge;
    EXPECT_NE(edge, next);
  }
  std::sort(records.begin(), records.end());
  EXPECT_EQ(records, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// Message passing (MP): n0 publishes data then sets a flag; n1 sees the
// flag but stale data. Forbidden while stores and loads stay ordered
// (SC/TSO); allowed once stores reorder (PSO) or loads reorder (RMO).
CapturedTrace messagePassing(ConsistencyModel m, bool stbar) {
  std::vector<TraceRecord> recs;
  recs.push_back(rec(TraceOp::kStore, 0, 1, m, kX, 1, 100));  // data
  if (stbar) recs.push_back(membarRec(0, 2, m, membar::kStbar, 105));
  recs.push_back(rec(TraceOp::kStore, 0, 3, m, kY, 1, 90));   // flag first!
  recs.push_back(rec(TraceOp::kLoad, 1, 1, m, kY, 1, 95));    // sees flag
  recs.push_back(rec(TraceOp::kLoad, 1, 2, m, kX, 0, 97));    // stale data
  return makeTrace(m, 2, std::move(recs));
}

TEST(LitmusConformance, MessagePassingForbiddenUnderTSO) {
  const verify::OracleResult res = verify::checkTrace(
      messagePassing(ConsistencyModel::kTSO, false));
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kCycle);
}

TEST(LitmusConformance, MessagePassingAllowedUnderPSO) {
  EXPECT_TRUE(verify::checkTrace(
                  messagePassing(ConsistencyModel::kPSO, false))
                  .clean);
}

TEST(LitmusConformance, MessagePassingWithStbarForbiddenUnderPSO) {
  const verify::OracleResult res = verify::checkTrace(
      messagePassing(ConsistencyModel::kPSO, true));
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kCycle);
}

TEST(LitmusConformance, MessagePassingAllowedUnderRMO) {
  // RMO reorders the reader's loads, so even the Stbar'd writer cannot
  // make the stale read illegal.
  EXPECT_TRUE(verify::checkTrace(
                  messagePassing(ConsistencyModel::kRMO, true))
                  .clean);
}

// Coherent read-read (CoRR): one core reads the new value then the old one.
// Models that order loads forbid it; RMO does not.
CapturedTrace coRR(ConsistencyModel m) {
  return makeTrace(
      m, 2,
      {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
       rec(TraceOp::kLoad, 1, 1, m, kX, 1, 110),
       rec(TraceOp::kLoad, 1, 2, m, kX, 0, 120)});
}

TEST(LitmusConformance, CoRRForbiddenWhenLoadsOrdered) {
  for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kTSO,
                             ConsistencyModel::kPSO}) {
    const verify::OracleResult res = verify::checkTrace(coRR(m));
    ASSERT_FALSE(res.clean) << modelName(m);
    EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kCycle)
        << modelName(m);
  }
}

TEST(LitmusConformance, CoRRAllowedUnderRMO) {
  EXPECT_TRUE(verify::checkTrace(coRR(ConsistencyModel::kRMO)).clean);
}

// IRIW: two writers, two readers observing the writes in opposite orders.
// Forbidden under SC (no single memory order explains both readers).
TEST(LitmusConformance, IriwForbiddenUnderSC) {
  const ConsistencyModel m = ConsistencyModel::kSC;
  CapturedTrace t = makeTrace(
      m, 4,
      {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
       rec(TraceOp::kStore, 1, 1, m, kY, 1, 101),
       rec(TraceOp::kLoad, 2, 1, m, kX, 1, 110),
       rec(TraceOp::kLoad, 2, 2, m, kY, 0, 111),
       rec(TraceOp::kLoad, 3, 1, m, kY, 1, 110),
       rec(TraceOp::kLoad, 3, 2, m, kX, 0, 111)});
  const verify::OracleResult res = verify::checkTrace(t);
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind, verify::OracleViolation::Kind::kCycle);
}

// A value no write (and not the initial pattern) ever produced: the
// wrong-data verdict that mirrors a data-corruption detection.
TEST(LitmusConformance, NeverWrittenValueIsFlagged) {
  const ConsistencyModel m = ConsistencyModel::kTSO;
  CapturedTrace t = makeTrace(
      m, 2,
      {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
       rec(TraceOp::kLoad, 1, 1, m, kX, 0xDEAD, 110)});
  const verify::OracleResult res = verify::checkTrace(t);
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind,
            verify::OracleViolation::Kind::kBadReadValue);
  EXPECT_EQ(res.violations[0].recordA, 1u);
  EXPECT_EQ(res.violations[0].byteA, CapturedTrace::byteOffset(1));
}

// Atomics serialize: a CAS that observed the store's value is ordered
// after it even where plain loads would not be.
TEST(LitmusConformance, AtomicReadValueParticipates) {
  const ConsistencyModel m = ConsistencyModel::kTSO;
  CapturedTrace t = makeTrace(
      m, 2,
      {rec(TraceOp::kStore, 0, 1, m, kX, 5, 100),
       rec(TraceOp::kSwap, 1, 1, m, kX, 7, 110)});
  t.records[1].readValue = 5;  // swap read the store's value, wrote 7
  EXPECT_TRUE(verify::checkTrace(t).clean);

  t.records[1].readValue = 0xBAD;
  const verify::OracleResult res = verify::checkTrace(t);
  ASSERT_FALSE(res.clean);
  EXPECT_EQ(res.violations[0].kind,
            verify::OracleViolation::Kind::kBadReadValue);
}

// --- live differential -----------------------------------------------------

// Fault-free litmus-style runs across every model capture a trace the
// oracle accepts (the differential property's clean half, on the curated
// configs rather than the fuzz sweep's random ones).
TEST(LiveDifferential, FaultFreeCapturesAreConsistent) {
  for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kTSO,
                             ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
    SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory, m);
    cfg.numNodes = 4;
    cfg.workload = WorkloadKind::kOltp;
    cfg.targetTransactions = 30;
    cfg.maxCycles = 5'000'000;
    cfg.trace.capture = true;
    System sys(cfg);
    const RunResult r = sys.run();
    ASSERT_TRUE(r.completed) << modelName(m);
    EXPECT_EQ(r.detections, 0u) << modelName(m);
    ASSERT_NE(r.trace, nullptr) << modelName(m);
    EXPECT_GT(r.trace->records.size(), 0u) << modelName(m);
    const verify::OracleResult o = verify::checkTrace(*r.trace);
    EXPECT_TRUE(o.clean)
        << modelName(m) << ": "
        << (o.violations.empty() ? "?" : o.violations[0].message);
  }
}

// The acceptance round-trip: inject memory corruption until the checkers
// detect it AND the corrupt value reaches a committed load, write the
// trace to disk, read it back, and require the oracle to flag the same
// execution — the `dvmc_oracle check escape.trace` workflow.
TEST(LiveDifferential, MemoryCorruptionRoundTripsThroughTraceFile) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 1'000'000;  // effectively unbounded
  cfg.maxCycles = 30'000'000;
  cfg.trace.capture = true;
  System sys(cfg);
  FaultInjector inj(sys, 0x0D15EA5E);

  sys.runTo(20'000);
  ASSERT_EQ(sys.sink().count(), 0u);

  // Re-inject until the corruption is both detected and visible to the
  // oracle (a corrupted block must be read back by a committed load).
  bool flagged = false;
  verify::OracleResult offline;
  for (int round = 0; round < 80 && !flagged; ++round) {
    inj.inject(FaultType::kMemoryDataMultiBit);
    const Cycle until = sys.sim().now() + 25'000;
    sys.runTo(until);
    const RunResult r = sys.collectResult(false, sys.sim().now());
    ASSERT_NE(r.trace, nullptr);
    offline = verify::checkTrace(*r.trace);
    flagged = !offline.clean;
  }
  ASSERT_TRUE(flagged) << "corruption never reached a committed load";
  // Differential contract: the oracle only ever flags what the runtime
  // checkers (here: the ECC model feeding the sink) also caught.
  EXPECT_GT(sys.sink().count(), 0u)
      << "oracle violation without a checker detection (escape): "
      << offline.violations[0].message;
  EXPECT_EQ(offline.violations[0].kind,
            verify::OracleViolation::Kind::kBadReadValue);

  // File round-trip, as the nightly escape artifact would be replayed.
  const RunResult r = sys.collectResult(false, sys.sim().now());
  const std::string path = ::testing::TempDir() + "oracle_roundtrip.trace";
  std::string err;
  ASSERT_TRUE(verify::writeTraceFile(path, *r.trace, &err)) << err;
  CapturedTrace back;
  ASSERT_TRUE(verify::readTraceFile(path, &back, &err)) << err;
  EXPECT_EQ(back.serialize(), r.trace->serialize());
  const verify::OracleResult replay = verify::checkTrace(back);
  ASSERT_FALSE(replay.clean);
  EXPECT_EQ(replay.violations[0].kind,
            verify::OracleViolation::Kind::kBadReadValue);
  EXPECT_EQ(replay.violations[0].message, offline.violations[0].message);
  std::remove(path.c_str());
}

// Fuzz-config capture determinism: the same parameter yields a
// bit-identical serialized trace run to run (the repro contract behind
// replaying a nightly campaign escape locally).
TEST(LiveDifferential, SameConfigSameTraceBytes) {
  SystemConfig cfg = makeFuzzConfig(3);
  cfg.trace.capture = true;
  System a(cfg);
  const RunResult ra = a.run();
  System b(cfg);
  const RunResult rb = b.run();
  ASSERT_NE(ra.trace, nullptr);
  ASSERT_NE(rb.trace, nullptr);
  EXPECT_EQ(ra.trace->serialize(), rb.trace->serialize());
}

// Event-kernel determinism contract: the inline-task/pooled-message event
// kernel must produce the same execution — and therefore byte-identical
// captured dvmc-traces — for a fixed seed no matter how many workers fan
// the seeds out. This is the regression tripwire for any future scheduling
// change that reorders same-cycle events (the fig3/fig4 bit-identity check
// in the perf docs is the manual end-to-end variant of this assertion).
TEST(LiveDifferential, CapturedTraceBitIdenticalAcrossJobs) {
  SystemConfig cfg = SystemConfig::withDvmc(Protocol::kDirectory,
                                            ConsistencyModel::kTSO);
  cfg.numNodes = 4;
  cfg.workload = WorkloadKind::kOltp;
  cfg.targetTransactions = 25;
  cfg.maxCycles = 5'000'000;
  cfg.trace.capture = true;

  cfg.jobs = 1;
  const MultiRunResult serial = runSeeds(cfg, 3);
  cfg.jobs = 4;
  const MultiRunResult parallel = runSeeds(cfg, 3);

  ASSERT_TRUE(serial.allCompleted);
  ASSERT_TRUE(parallel.allCompleted);
  ASSERT_EQ(serial.traces.size(), 3u);
  ASSERT_EQ(parallel.traces.size(), 3u);
  for (std::size_t s = 0; s < serial.traces.size(); ++s) {
    ASSERT_NE(serial.traces[s], nullptr) << "seed " << s;
    ASSERT_NE(parallel.traces[s], nullptr) << "seed " << s;
    EXPECT_EQ(serial.traces[s]->serialize(), parallel.traces[s]->serialize())
        << "seed " << s;
  }
}

TEST(TraceOptions, ValidateRejectsInconsistentCombinations) {
  SystemConfig::TraceOptions t;
  EXPECT_EQ(t.validate(), nullptr);  // defaults are consistent
  verify::MemoryTraceSink sink;
  t.sink = &sink;
  EXPECT_NE(t.validate(), nullptr);  // sink without capture
  t.capture = true;
  EXPECT_EQ(t.validate(), nullptr);
  t.sink = nullptr;
  t.keepInMemory = false;
  EXPECT_NE(t.validate(), nullptr);  // capture that discards every record
  t.captureLimit = 0;
  t.keepInMemory = true;
  EXPECT_NE(t.validate(), nullptr);
}

// A sink attached to a run receives the finished capture when run()
// returns, byte-identical to an in-memory capture of the same seed; with
// keepInMemory off the sink holds the only copy.
TEST(TraceOptions, SinkReceivesTheFinishedCapture) {
  SystemConfig cfg = makeFuzzConfig(11);
  cfg.trace.capture = true;
  System mem(cfg);
  const RunResult rm = mem.run();
  ASSERT_NE(rm.trace, nullptr);

  verify::MemoryTraceSink sink;
  cfg.trace.sink = &sink;
  cfg.trace.keepInMemory = false;
  System fed(cfg);
  const RunResult rs = fed.run();
  EXPECT_EQ(rs.trace, nullptr);  // only the sink got the capture
  EXPECT_EQ(sink.trace()->serialize(), rm.trace->serialize());
  fed.finishTraceCapture();  // idempotent: the sink is fed once
  EXPECT_EQ(sink.trace()->records.size(), rm.trace->records.size());
}

// --- live-capture sink -------------------------------------------------------

void expectSameResult(const verify::OracleResult& got,
                      const verify::OracleResult& want) {
  EXPECT_EQ(got.clean, want.clean);
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    const verify::OracleViolation& g = got.violations[i];
    const verify::OracleViolation& w = want.violations[i];
    EXPECT_EQ(g.kind, w.kind) << "violation " << i;
    EXPECT_EQ(g.recordA, w.recordA) << "violation " << i;
    EXPECT_EQ(g.recordB, w.recordB) << "violation " << i;
    EXPECT_EQ(g.byteA, w.byteA) << "violation " << i;
    EXPECT_EQ(g.byteB, w.byteB) << "violation " << i;
    EXPECT_EQ(g.message, w.message) << "violation " << i;
  }
  EXPECT_EQ(got.stats.records, want.stats.records);
  EXPECT_EQ(got.stats.reads, want.stats.reads);
  EXPECT_EQ(got.stats.writes, want.stats.writes);
  EXPECT_EQ(got.stats.membars, want.stats.membars);
  EXPECT_EQ(got.stats.virtualNodes, want.stats.virtualNodes);
  EXPECT_EQ(got.stats.edges, want.stats.edges);
  EXPECT_EQ(got.stats.rfEdges, want.stats.rfEdges);
  EXPECT_EQ(got.stats.wsEdges, want.stats.wsEdges);
  EXPECT_EQ(got.stats.frEdges, want.stats.frEdges);
  EXPECT_EQ(got.stats.forwardedReads, want.stats.forwardedReads);
  EXPECT_EQ(got.stats.initReads, want.stats.initReads);
  EXPECT_EQ(got.stats.ambiguousReads, want.stats.ambiguousReads);
}

std::vector<std::pair<std::string, CapturedTrace>> conformanceSuite() {
  std::vector<std::pair<std::string, CapturedTrace>> suite;
  for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kTSO,
                             ConsistencyModel::kPSO, ConsistencyModel::kRMO}) {
    suite.emplace_back(std::string("SB/") + modelName(m), storeBuffering(m));
    suite.emplace_back(std::string("CoRR/") + modelName(m), coRR(m));
    suite.emplace_back(std::string("MP/") + modelName(m),
                       messagePassing(m, false));
    suite.emplace_back(std::string("MP+stbar/") + modelName(m),
                       messagePassing(m, true));
  }
  {
    const ConsistencyModel m = ConsistencyModel::kTSO;
    suite.emplace_back(
        "SB+membar/TSO",
        makeTrace(m, 2,
                  {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
                   membarRec(0, 2, m, membar::kStoreLoad, 110),
                   rec(TraceOp::kLoad, 0, 3, m, kY, 0, 120),
                   rec(TraceOp::kStore, 1, 1, m, kY, 1, 101),
                   membarRec(1, 2, m, membar::kStoreLoad, 111),
                   rec(TraceOp::kLoad, 1, 3, m, kX, 0, 121)}));
  }
  {
    const ConsistencyModel m = ConsistencyModel::kSC;
    suite.emplace_back(
        "IRIW/SC",
        makeTrace(m, 4,
                  {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
                   rec(TraceOp::kStore, 1, 1, m, kY, 1, 101),
                   rec(TraceOp::kLoad, 2, 1, m, kX, 1, 110),
                   rec(TraceOp::kLoad, 2, 2, m, kY, 0, 111),
                   rec(TraceOp::kLoad, 3, 1, m, kY, 1, 110),
                   rec(TraceOp::kLoad, 3, 2, m, kX, 0, 111)}));
  }
  {
    const ConsistencyModel m = ConsistencyModel::kTSO;
    suite.emplace_back(
        "NeverWritten/TSO",
        makeTrace(m, 2,
                  {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
                   rec(TraceOp::kLoad, 1, 1, m, kX, 0xDEAD, 110)}));
    CapturedTrace atomicGood = makeTrace(
        m, 2,
        {rec(TraceOp::kStore, 0, 1, m, kX, 5, 100),
         rec(TraceOp::kSwap, 1, 1, m, kX, 7, 110)});
    atomicGood.records[1].readValue = 5;
    suite.emplace_back("AtomicRf/TSO", atomicGood);
    CapturedTrace atomicBad = atomicGood;
    atomicBad.records[1].readValue = 0xBAD;
    suite.emplace_back("AtomicBadRead/TSO", atomicBad);
    suite.emplace_back(
        "NonMonotoneSeq/TSO",
        makeTrace(m, 1,
                  {rec(TraceOp::kLoad, 0, 5, m, kX, 0, 5),
                   rec(TraceOp::kLoad, 0, 5, m, kX, 0, 9)}));
    CapturedTrace trunc = makeTrace(
        m, 1, {rec(TraceOp::kLoad, 0, 1, m, kX, 0, 5)});
    trunc.truncated = true;
    suite.emplace_back("Truncated/TSO", trunc);
  }
  return suite;
}

// StreamingOracle, the sink a run streams its capture into, judges the
// reassembled trace with checkTrace(): whatever the chunking, its verdict,
// violations and statistics are checkTrace()'s, must-flag cases included.
TEST(StreamingOracleSink, ConformanceSuiteMatchesCheckTrace) {
  verify::OracleOptions o;
  o.maxViolations = 16;
  for (const auto& [name, t] : conformanceSuite()) {
    const verify::OracleResult want = verify::checkTrace(t, o);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{2},
                              std::size_t{4096}}) {
      SCOPED_TRACE(name + " chunk=" + std::to_string(chunk));
      verify::StreamingOracle sink(o);
      verify::streamCapturedTrace(t, sink, chunk);
      expectSameResult(sink.finish(), want);
      EXPECT_FALSE(sink.windowExceeded());
      EXPECT_EQ(sink.peakResidentRecords(), t.records.size());
    }
  }
}

// --- recorder ----------------------------------------------------------------

TEST(TraceRecorder, PatchesBufferedStoresInPlace) {
  // Drive a recorder by hand through the commit/patch lifecycle: a store
  // coalesced away, one that performs after younger records committed,
  // and one still buffered at the end of the run.
  verify::TraceRecorder recorder(2, ConsistencyModel::kTSO, 1, 99, 1 << 20);
  auto commitStore = [&](NodeId n, SeqNum s, Addr a, std::uint64_t v) {
    TraceRecord r;
    r.op = TraceOp::kStore;
    r.node = std::uint8_t(n);
    r.seq = s;
    r.model = std::uint8_t(ConsistencyModel::kTSO);
    r.addr = a;
    r.value = v;
    recorder.onCommit(r);  // buffered: not yet performed
  };
  auto commitLoad = [&](NodeId n, SeqNum s, Addr a, std::uint64_t v,
                        Cycle c) {
    recorder.onCommit(rec(TraceOp::kLoad, n, s, ConsistencyModel::kTSO, a, v,
                          c));
  };
  commitStore(0, 1, kX, 1);
  commitLoad(1, 1, kX, 0, 5);
  commitStore(0, 2, kX, 2);
  commitLoad(1, 2, kY, 0, 9);
  recorder.storeSuperseded(0, 1, 11);  // coalesced into seq 2
  recorder.storePerformed(0, 2, 14);
  commitStore(1, 3, kY, 3);  // still pending at end of run

  const CapturedTrace& t = *recorder.trace();
  ASSERT_EQ(t.records.size(), 5u);
  EXPECT_TRUE(t.records[0].superseded());
  EXPECT_FALSE(t.records[0].performed());
  EXPECT_TRUE(t.records[2].performed());
  EXPECT_EQ(t.records[2].performCycle, 14u);
  EXPECT_FALSE(t.records[4].performed());
  EXPECT_EQ(t.records[4].performCycle, verify::kNotPerformed);
  EXPECT_FALSE(t.truncated);

  // A sink fed the capture reassembles it bit for bit.
  verify::MemoryTraceSink sink;
  verify::streamCapturedTrace(t, sink, 2);  // odd tail chunk included
  EXPECT_EQ(sink.trace()->serialize(), t.serialize());
}

// The oracle's byte offsets point into the file it read, and the file
// format has exactly one version.
TEST(TraceSerialization, ViolationOffsetsAddressTheFile) {
  const ConsistencyModel m = ConsistencyModel::kTSO;
  const CapturedTrace t = makeTrace(
      m, 2,
      {rec(TraceOp::kStore, 0, 1, m, kX, 1, 100),
       rec(TraceOp::kLoad, 1, 1, m, kX, 1, 110),
       rec(TraceOp::kStore, 0, 2, m, kY, 2, 115),
       rec(TraceOp::kLoad, 1, 2, m, kY, 0xDEAD, 120)});
  const std::string path = ::testing::TempDir() + "offsets.trace";
  std::string err;
  ASSERT_TRUE(verify::writeTraceFile(path, t, &err)) << err;
  CapturedTrace back;
  ASSERT_TRUE(verify::readTraceFile(path, &back, &err)) << err;
  const verify::OracleResult res = verify::checkTrace(back);
  ASSERT_FALSE(res.clean);
  const verify::OracleViolation& v = res.violations[0];
  EXPECT_EQ(v.kind, verify::OracleViolation::Kind::kBadReadValue);
  ASSERT_EQ(v.recordA, 3u);

  std::vector<std::uint8_t> file;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) file.push_back(std::uint8_t(c));
    std::fclose(f);
  }
  ASSERT_LE(v.byteA + CapturedTrace::kRecordBytes, file.size());
  // Decode the 48 bytes at byteA as a one-record trace under the file's
  // own header.
  std::vector<std::uint8_t> one(file.begin(),
                                file.begin() + CapturedTrace::kHeaderBytes);
  one[32] = 1;
  for (int i = 33; i < 40; ++i) one[i] = 0;  // record count = 1
  one.insert(one.end(), file.begin() + std::ptrdiff_t(v.byteA),
             file.begin() + std::ptrdiff_t(v.byteA + CapturedTrace::kRecordBytes));
  CapturedTrace decoded;
  ASSERT_TRUE(CapturedTrace::parse(one.data(), one.size(), &decoded, &err))
      << err;
  CapturedTrace want = t;
  want.records = {t.records[v.recordA]};
  EXPECT_EQ(decoded.serialize(), want.serialize());

  // A header that claims version 2 is refused, not re-interpreted.
  file[8] = 2;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
  }
  EXPECT_FALSE(verify::readTraceFile(path, &back, &err));
  EXPECT_EQ(err, "byte 8: unsupported dvmc-trace version");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dvmc
