// Checker microscope: drives the Cache Coherence checker's data structures
// directly (no simulator in the loop) to show the epoch life cycle from
// Section 4.3 — CET entries, Inform-Epoch messages on the wire, MET
// processing with the begin-time sorting queue, rule violations, and the
// 16-bit wraparound scrubbing handshake.
#include <cstdio>
#include <vector>

#include "common/crc16.hpp"
#include "dvmc/cache_epoch_checker.hpp"
#include "dvmc/memory_epoch_checker.hpp"
#include "sim/simulator.hpp"
#include "obs/run_report.hpp"

using namespace dvmc;

namespace {

class ManualClock final : public LogicalClock {
 public:
  std::uint64_t now() override { return value; }
  std::uint64_t value = 0;
};

DataBlock block(std::uint64_t v) {
  DataBlock d;
  d.write(0, v);
  return d;
}

const char* typeName(MsgType t) { return msgTypeName(t); }

}  // namespace

int runMicroscope() {
  Simulator sim;
  sim.setTracer(dvmc::obs::activeTracer());
  DvmcConfig cfg;
  cfg.scrubAgeTicks = 64;  // tiny so the demo shows scrubbing quickly
  ErrorSink sink;
  ManualClock clock;

  std::vector<Message> wire;
  CacheEpochChecker cet(sim, /*node=*/0, cfg, &sink,
                        [&wire](Message m) { wire.push_back(m); });
  MemoryEpochChecker met(sim, /*node=*/1, cfg, &sink, clock);

  auto shipInforms = [&] {
    for (Message& m : wire) {
      std::printf("    wire: %-18s begin=%-5u end=%-5u rw=%d beginHash=%04x "
                  "endHash=%04x\n",
                  typeName(m.type), m.epoch.begin, m.epoch.end,
                  m.epoch.readWrite, m.epoch.beginHash, m.epoch.endHash);
      met.onInform(m);
    }
    wire.clear();
    met.drain();
  };

  std::printf("== 1. a block's life: memory -> RW epoch -> RO epoch ==\n");
  const Addr blk = 0x1000;
  met.onHomeRequest(blk, block(0));  // MET entry seeded from memory image
  std::printf("  MET seeded: entries=%zu\n", met.metEntries());

  cet.onEpochBegin(blk, /*rw=*/true, block(0), 10);
  cet.onPerformAccess(blk, /*isWrite=*/true);  // rule 1: fine in RW
  std::printf("  RW epoch open at the cache; store checked against CET\n");
  cet.onEpochEnd(blk, block(42), 25);
  shipInforms();

  cet.onEpochBegin(blk, /*rw=*/false, block(42), 26);
  cet.onPerformAccess(blk, /*isWrite=*/false);
  cet.onEpochEnd(blk, block(42), 40);
  shipInforms();
  std::printf("  violations so far: %zu (clean handoff)\n\n", sink.count());

  std::printf("== 2. rule 1: a store in a Read-Only epoch ==\n");
  cet.onEpochBegin(blk, /*rw=*/false, block(42), 50);
  cet.onPerformAccess(blk, /*isWrite=*/true);
  std::printf("  -> %s\n", sink.any() ? sink.detections().back().what.c_str()
                                      : "(missed!)");
  cet.onEpochEnd(blk, block(42), 55);
  shipInforms();

  std::printf("\n== 3. rule 3: data propagation mismatch ==\n");
  cet.onEpochBegin(blk, /*rw=*/false, block(999), 60);  // corrupted begin
  cet.onEpochEnd(blk, block(999), 70);
  const std::size_t before = sink.count();
  shipInforms();
  std::printf("  -> %s\n", sink.count() > before
                               ? sink.detections().back().what.c_str()
                               : "(missed!)");

  std::printf("\n== 4. rule 2: overlapping Read-Write epochs ==\n");
  Message fake;
  fake.type = MsgType::kInformEpoch;
  fake.src = 2;
  fake.addr = blk;
  fake.epoch.readWrite = true;
  fake.epoch.begin = 60;  // overlaps the RO epoch that ended at 70
  fake.epoch.end = 80;
  fake.epoch.beginHash = hashBlock(block(42));  // data itself is fine
  fake.epoch.endHash = fake.epoch.beginHash;
  const std::size_t before2 = sink.count();
  met.onInform(fake);
  met.drain();
  std::printf("  -> %s\n", sink.count() > before2
                               ? sink.detections().back().what.c_str()
                               : "(missed!)");

  std::printf("\n== 5. wraparound scrubbing: a long-lived epoch ==\n");
  const Addr longBlk = 0x2000;
  met.onHomeRequest(longBlk, block(7));
  cet.onEpochBegin(longBlk, /*rw=*/true, block(7), 100);
  // Time marches on (other blocks churn); the scrub sweep announces the
  // still-open epoch before its 16-bit timestamp could wrap.
  cet.onEpochBegin(0x3000, false, block(1), 100 + cfg.scrubAgeTicks + 1);
  sim.run(1'000'000);  // run the periodic scrub sweeps
  shipInforms();
  std::printf("  after sweep: open epochs tracked at MET via "
              "Inform-Open-Epoch\n");
  cet.onEpochEnd(longBlk, block(8), 300);
  shipInforms();
  std::printf("  epoch finally closed with a short Inform-Closed-Epoch\n");

  std::printf("\ntotal violations reported: %zu (three staged, zero "
              "spurious)\n",
              sink.count());
  return sink.count() == 3 ? 0 : 1;
}

int main(int argc, char** argv) {
  dvmc::CliParser cli("checker_microscope",
                      "drives the coherence checker's CET/MET data "
                      "structures directly through the epoch life cycle");
  cli.noPositionals();
  dvmc::obs::addObsFlags(cli);
  argc = cli.parse(argc, argv);
  (void)argc;
  (void)argv;
  const int rc = runMicroscope();
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
