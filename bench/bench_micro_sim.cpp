// Microbenchmarks for the event kernel and the network hot paths — the
// ones the zero-allocation work targets. Five rows:
//
//   SimDispatchSteadyState   schedule/dispatch churn entirely inside the
//                            64-cycle calendar window (the shape of cache
//                            and link latencies). The perf gate requires
//                            allocsPerEvent == 0 here: captures live in
//                            the slab event node, so the steady state may
//                            not touch the heap at all.
//   SimDispatchFarFutureMix  same churn with ~3/4 of delays past the
//                            window (up to 256 cycles, the shape of memory
//                            replies and queued link hops), exercising the
//                            second level's first round.
//   SimDispatchLaterRounds   same churn with ~3/4 of delays past the
//                            second level's 4,096-cycle reach (up to
//                            16,384 cycles), so most events wait in their
//                            slot for later rounds.
//   TorusMessageRouting      16-node torus, 16 messages (a 1:3 data/
//                            control mix) ping-ponging between corner
//                            pairs; every hop is an event carrying a
//                            pooled message handle.
//   BroadcastFanOut          16-leaf ordered broadcast tree with one leaf
//                            rebroadcasting, sustaining a serialized
//                            stream of fan-out deliveries.
//
// Unlike the gbench micros, timing is hand-rolled (warmup, then a timed
// event-count window) because each row also reports *counted* heap
// allocations per executed event: DVMC_BENCH_ALLOC_HOOK below replaces
// the global allocation functions in this binary with counting wrappers
// (see bench_common.hpp). The dvmc-bench JSON rows carry allocsPerEvent,
// and tools/check_perf.py fails the gate on any regression against
// bench/baseline/bench_micro_sim.json.
#define DVMC_BENCH_ALLOC_HOOK 1

#include "bench_common.hpp"
#include "net/broadcast_tree.hpp"
#include "net/torus.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Measurement harness
// ---------------------------------------------------------------------------

/// Runs the kernel until `events` more events have executed, reporting
/// throughput and the counted heap allocations per event over exactly
/// that window. Callers run their own warmup first so slab/heap/pool
/// growth is paid before the counter resets.
void measureEvents(const char* name, Simulator& sim, std::uint64_t events) {
  const std::uint64_t goal = sim.eventsExecuted() + events;
  bench::resetAllocCount();
  const auto t0 = SteadyClock::now();
  while (sim.eventsExecuted() < goal) {
    if (!sim.step()) break;  // drained early: a bench wiring bug
  }
  const auto t1 = SteadyClock::now();
  const std::uint64_t allocs = bench::allocCount();
  const double sec = std::chrono::duration<double>(t1 - t0).count();
  const double wallMs = sec * 1e3;
  const double eps = sec > 0 ? static_cast<double>(events) / sec : 0;
  const double ape = static_cast<double>(allocs) / static_cast<double>(events);
  std::printf("  %-24s %12.0f events/s  %8.2f ms  %10.6f allocs/event\n",
              name, eps, wallMs, ape);
  bench::recordBenchResult(name, eps, wallMs, ape);
}

// ---------------------------------------------------------------------------
// Kernel dispatch rows
// ---------------------------------------------------------------------------

/// Self-perpetuating scheduler: each dispatch mixes its payload and
/// reschedules itself. The capture (this + 28 payload bytes) is shaped
/// like the mid-size hot-path captures; delayMask picks the delay
/// distribution (7 -> all within the calendar window, 255 -> ~3/4 in the
/// second level, 16383 -> ~3/4 past its first round).
class DispatchAgent {
 public:
  DispatchAgent(Simulator& sim, std::uint64_t seed, std::uint64_t delayMask)
      : sim_(sim), x_(seed | 1), delayMask_(delayMask) {}

  void pump() {
    const std::uint64_t a = x_ ^ 0x9e3779b97f4a7c15ull;
    const std::uint64_t b = x_ * 0x2545f4914f6cdd1dull;
    const std::uint64_t c = x_ + 0x632be59bd9b4e019ull;
    const std::uint32_t d = static_cast<std::uint32_t>(x_ >> 17);
    sim_.schedule(1 + (x_ & delayMask_), [this, a, b, c, d] {
      x_ = a ^ (b >> 7) ^ (c << 3) ^ d;
      pump();
    });
  }

  std::uint64_t value() const { return x_; }

 private:
  Simulator& sim_;
  std::uint64_t x_;
  std::uint64_t delayMask_;
};

void benchDispatch(const char* name, std::uint64_t delayMask,
                   std::uint64_t warmupEvents, std::uint64_t events) {
  Simulator sim;
  std::vector<DispatchAgent> agents;
  agents.reserve(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    agents.emplace_back(sim, 0x5eed0000 + i * 7919, delayMask);
  }
  for (auto& a : agents) a.pump();
  while (sim.eventsExecuted() < warmupEvents) sim.step();
  measureEvents(name, sim, events);
  std::uint64_t sink = 0;
  for (const auto& a : agents) sink ^= a.value();
  if (sink == 0xdeadbeef) std::printf("(unlikely)\n");  // keep agents live
}

// ---------------------------------------------------------------------------
// Torus routing row
// ---------------------------------------------------------------------------

/// Bounces every delivery straight back to its sender, keeping a fixed
/// population of messages in flight forever.
class PingPongEndpoint final : public NetworkEndpoint {
 public:
  explicit PingPongEndpoint(TorusNetwork& net) : net_(&net) {}

  void onMessage(const Message& msg) override {
    Message reply = msg;
    reply.src = msg.dest;
    reply.dest = msg.src;
    net_->send(std::move(reply));
  }

 private:
  TorusNetwork* net_;
};

void benchTorus(std::uint64_t warmupEvents, std::uint64_t events) {
  Simulator sim;
  TorusNetwork net(sim, 16);  // 4x4
  std::vector<PingPongEndpoint> eps(16, PingPongEndpoint(net));
  for (NodeId n = 0; n < 16; ++n) net.attach(n, &eps[n]);
  // One message per node — every fourth carries a data block, the rest
  // are control-sized, roughly a coherence protocol's mix — each headed
  // for the opposite corner of its 4x4 quadrant-pair: (n + 10) % 16 is
  // +2 in x and +2 in y, so every flight is 4 hops and the 16 flights
  // cover every link direction.
  for (NodeId n = 0; n < 16; ++n) {
    Message m;
    m.type = (n % 4 == 0) ? MsgType::kData : MsgType::kGetS;
    m.src = n;
    m.dest = static_cast<NodeId>((n + 10) % 16);
    m.addr = static_cast<Addr>(n) * kBlockSizeBytes;
    m.hasData = (n % 4 == 0);
    m.data.write(0, n);
    net.send(std::move(m));
  }
  while (sim.eventsExecuted() < warmupEvents) sim.step();
  measureEvents("TorusMessageRouting", sim, events);
}

// ---------------------------------------------------------------------------
// Broadcast fan-out row
// ---------------------------------------------------------------------------

class FanOutLeaf final : public NetworkEndpoint {
 public:
  /// Pass the tree only to the one leaf that sustains the stream by
  /// rebroadcasting everything it observes.
  explicit FanOutLeaf(BroadcastTree* tree = nullptr) : tree_(tree) {}

  void onMessage(const Message& msg) override {
    ++delivered_;
    if (tree_ != nullptr) {
      Message next = msg;
      next.src = 0;
      tree_->broadcast(std::move(next));
    }
  }

  std::uint64_t delivered() const { return delivered_; }

 private:
  BroadcastTree* tree_;
  std::uint64_t delivered_ = 0;
};

void benchBroadcast(std::uint64_t warmupEvents, std::uint64_t events) {
  Simulator sim;
  BroadcastTree tree(sim, 16, TorusConfig{}.bytesPerCycle);
  std::vector<FanOutLeaf> leaves;
  leaves.reserve(16);
  leaves.emplace_back(&tree);  // leaf 0 rebroadcasts
  for (int i = 1; i < 16; ++i) leaves.emplace_back();
  for (NodeId n = 0; n < 16; ++n) tree.attach(n, &leaves[n]);
  Message m;
  m.type = MsgType::kSnpGetS;
  m.src = 0;
  m.addr = 0x1000;
  tree.broadcast(std::move(m));
  while (sim.eventsExecuted() < warmupEvents) sim.step();
  measureEvents("BroadcastFanOut", sim, events);
  if (leaves[7].delivered() == 0) std::printf("(fan-out broken)\n");
}

int runAll() {
  std::printf("==========================================================\n");
  std::printf("bench_micro_sim — event kernel / network hot paths\n");
  std::printf("  allocation counting: active (DVMC_BENCH_ALLOC_HOOK)\n");
  std::printf("==========================================================\n");
  benchDispatch("SimDispatchSteadyState", /*delayMask=*/7,
                /*warmupEvents=*/1'000'000, /*events=*/4'000'000);
  benchDispatch("SimDispatchFarFutureMix", /*delayMask=*/255,
                /*warmupEvents=*/500'000, /*events=*/2'000'000);
  benchDispatch("SimDispatchLaterRounds", /*delayMask=*/16383,
                /*warmupEvents=*/500'000, /*events=*/2'000'000);
  benchTorus(/*warmupEvents=*/200'000, /*events=*/1'000'000);
  benchBroadcast(/*warmupEvents=*/50'000, /*events=*/200'000);
  return 0;
}

}  // namespace
}  // namespace dvmc

int main(int argc, char** argv) {
  argc = dvmc::bench::parseStandardFlags(
      argc, argv, "bench_micro_sim",
      "event-kernel and network microbenchmarks with counted heap "
      "allocations per event");
  const int rc = dvmc::runAll();
  if (rc == 0) dvmc::bench::writeBenchJson("bench_micro_sim");
  const int obsRc = dvmc::obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
