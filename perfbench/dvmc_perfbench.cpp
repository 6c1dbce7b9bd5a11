// End-to-end benchmark of the DVMC simulator (README.md beside this file
// explains the workloads, the metrics and the guard rails on their sizes).
//
//   dvmc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// A repetition simulates one fixed, seeded unit of work through the public
// System and verify API and checks its outcome: the unit completed, no
// checker raised a detection, and (verify workload) the oracle verdict is
// clean. Repetitions repeat while another one fits in S seconds. --trace 0 prints
// the end-to-end metrics; --trace 1 prints the per-layer metrics, timing
// each layer from outside through the public program, notifier, observer
// and trace-sink hooks. The last stdout line is one JSON object; the exit
// code is non-zero when any repetition failed.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "faults/injector.hpp"
#include "obs/json.hpp"
#include "system/system.hpp"
#include "verify/oracle.hpp"
#include "verify/streaming_oracle.hpp"
#include "workload/synthetic.hpp"

// --- allocation counting ----------------------------------------------------
//
// The binary replaces the global allocation functions, as bench_common.hpp's
// DVMC_BENCH_ALLOC_HOOK does, so system.allocs_per_memop and
// system.setup_allocs are counted, not estimated. The hook is repeated here
// so that the benchmark depends on nothing outside src/ and this directory.
// GCC cannot see that the replacement operator new is malloc, so free() in
// the matching deletes would warn as -Wmismatched-new-delete.

namespace {
std::atomic<std::uint64_t> gAllocs{0};
std::uint64_t allocCount() { return gAllocs.load(std::memory_order_relaxed); }
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

using namespace dvmc;

namespace {

// --- workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  Protocol protocol;
  ConsistencyModel model;
  WorkloadKind program;
  bool protectedRun;  // all three checkers + SafetyNet, drained at the end
  bool verifyTrace;   // commit trace into the streaming oracle (+ batch)
  FaultType selfTestFault;
};

// Unit of work: kSimsPerUnit simulations of kNodes threads, each thread
// running a finite program of kTxPerThread transactions. The sizes are fixed
// on purpose (README.md, "Guard rails"): the host cost per memop of the
// protected workload grows with run length, its runs must end long before
// the directory logical clock reaches ~2^15 ticks, and one simulation's
// cost per memop varies too much from seed to seed to be measured alone.
constexpr std::size_t kNodes = 8;
constexpr std::uint64_t kTxPerThread = 16;
constexpr int kSimsPerUnit = 32;
constexpr Cycle kMaxCycles = 2'000'000;

constexpr WorkloadSpec kWorkloads[] = {
    {"dir-tso-oltp-dvmc", Protocol::kDirectory, ConsistencyModel::kTSO,
     WorkloadKind::kOltp, true, false, FaultType::kCacheDataMultiBit},
    {"snoop-sc-jbb-base", Protocol::kSnooping, ConsistencyModel::kSC,
     WorkloadKind::kJbb, false, false, FaultType::kMsgDrop},
    {"dir-pso-oltp-verify", Protocol::kDirectory, ConsistencyModel::kPSO,
     WorkloadKind::kOltp, false, true, FaultType::kWbValueCorrupt},
};

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

SystemConfig makeConfig(const WorkloadSpec& w, std::uint64_t seed) {
  SystemConfig cfg = w.protectedRun ? SystemConfig::withDvmc(w.protocol, w.model)
                                    : SystemConfig::unprotected(w.protocol,
                                                                w.model);
  cfg.numNodes = kNodes;
  cfg.seed = seed;
  WorkloadParams p = workloadPreset(w.program);
  p.maxTransactions = kTxPerThread;
  cfg.workloadOverride = p;
  // Finite programs end the run (System::run stops once every core is
  // done); the global transaction target must never fire first.
  cfg.targetTransactions = ~std::uint64_t{0};
  cfg.maxCycles = kMaxCycles;
  return cfg;
}

// --- host clocks --------------------------------------------------------------

std::int64_t threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t wallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- outside-in layer timing (--trace 1) --------------------------------------

enum Layer : int { kWorkload, kCpuNotify, kCet, kMetHome, kStream, kNumLayers };

/// Self time per layer: a timed call charges its duration to its layer,
/// minus the time spent in timed calls nested inside it.
class LayerClock {
 public:
  template <typename F>
  decltype(auto) time(Layer layer, F&& f) {
    Scope s(*this, layer);
    return f();
  }
  std::int64_t ns(Layer l) const { return ns_[l]; }

 private:
  struct Scope {
    Scope(LayerClock& c, int layer) : clock(c), outer(c.active_) {
      clock.switchTo(layer);
    }
    ~Scope() { clock.switchTo(outer); }
    LayerClock& clock;
    int outer;
  };
  void switchTo(int layer) {
    const std::int64_t t = wallNs();
    if (active_ >= 0) ns_[active_] += t - since_;
    active_ = layer;
    since_ = t;
  }

  std::array<std::int64_t, kNumLayers> ns_{};
  int active_ = -1;
  std::int64_t since_ = 0;
};

/// Wraps the per-thread generator (SystemConfig::programFactory).
class TimedProgram final : public ThreadProgram {
 public:
  TimedProgram(std::unique_ptr<SyntheticWorkload> inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}
  std::optional<Instr> next() override {
    return clock_.time(kWorkload, [&] { return inner_->next(); });
  }
  void onResult(std::uint64_t token, std::uint64_t value) override {
    clock_.time(kWorkload, [&] { inner_->onResult(token, value); });
  }
  bool finished() const override { return inner_->finished(); }
  std::uint64_t transactionsCompleted() const override {
    return inner_->transactionsCompleted();
  }
  std::unique_ptr<ThreadProgram> clone() const override {
    return clock_.time(kWorkload, [&] {
      return std::make_unique<TimedProgram>(
          std::make_unique<SyntheticWorkload>(*inner_), clock_);
    });
  }
  /// RunResult::memOps only sees unwrapped generators, so the traced run
  /// takes its memop count from here.
  std::uint64_t memOps() const { return inner_->memOpsEmitted(); }

 private:
  std::unique_ptr<SyntheticWorkload> inner_;
  LayerClock& clock_;
};

/// Wraps the core behind CacheHierarchy::setCpuNotifier.
class TimedCpuNotifier final : public CpuNotifier {
 public:
  TimedCpuNotifier(CpuNotifier& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}
  void onReadPermissionLost(Addr blk, bool remoteWrite) override {
    clock_.time(kCpuNotify,
                [&] { inner_.onReadPermissionLost(blk, remoteWrite); });
  }

 private:
  CpuNotifier& inner_;
  LayerClock& clock_;
};

/// Wraps the CET behind CoherentCache::setEpochObserver.
class TimedEpochObserver final : public EpochObserver {
 public:
  TimedEpochObserver(EpochObserver& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}
  void onEpochBegin(Addr blk, bool readWrite, const DataBlock& data,
                    std::uint64_t ltime) override {
    clock_.time(kCet,
                [&] { inner_.onEpochBegin(blk, readWrite, data, ltime); });
  }
  void onEpochEnd(Addr blk, const DataBlock& data,
                  std::uint64_t ltime) override {
    clock_.time(kCet, [&] { inner_.onEpochEnd(blk, data, ltime); });
  }
  void onPerformAccess(Addr blk, bool isWrite) override {
    clock_.time(kCet, [&] { inner_.onPerformAccess(blk, isWrite); });
  }

 private:
  EpochObserver& inner_;
  LayerClock& clock_;
};

/// Wraps the MET behind the home controller's setHomeObserver.
class TimedHomeObserver final : public HomeObserver {
 public:
  TimedHomeObserver(HomeObserver& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}
  void onHomeRequest(Addr blk, const DataBlock& memData) override {
    clock_.time(kMetHome, [&] { inner_.onHomeRequest(blk, memData); });
  }
  void onBlockUncached(Addr blk) override {
    clock_.time(kMetHome, [&] { inner_.onBlockUncached(blk); });
  }
  void onHomeGrant(Addr blk, NodeId to, bool readWrite, bool fromMemory,
                   std::uint16_t memHash) override {
    clock_.time(kMetHome, [&] {
      inner_.onHomeGrant(blk, to, readWrite, fromMemory, memHash);
    });
  }
  void onHomeWriteback(Addr blk, NodeId from, std::uint16_t hash,
                       bool accepted) override {
    clock_.time(kMetHome,
                [&] { inner_.onHomeWriteback(blk, from, hash, accepted); });
  }

 private:
  HomeObserver& inner_;
  LayerClock& clock_;
};

/// Wraps the streaming oracle as the capture's TraceSink.
class TimedTraceSink final : public verify::TraceSink {
 public:
  TimedTraceSink(verify::TraceSink& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}
  void begin(const verify::TraceHeader& h) override {
    clock_.time(kStream, [&] { inner_.begin(h); });
  }
  void chunk(verify::TraceChunk&& c) override {
    clock_.time(kStream, [&] { inner_.chunk(std::move(c)); });
  }
  void end(bool truncated) override {
    clock_.time(kStream, [&] { inner_.end(truncated); });
  }

 private:
  verify::TraceSink& inner_;
  LayerClock& clock_;
};

/// The wrappers of one traced simulation; outlives the System it wires.
struct LayerProbes {
  LayerClock clock;
  std::vector<std::unique_ptr<TimedCpuNotifier>> cpu;
  std::vector<std::unique_ptr<TimedEpochObserver>> epoch;
  std::vector<std::unique_ptr<TimedHomeObserver>> home;

  void installProgramFactory(SystemConfig& cfg) {
    const WorkloadParams p = *cfg.workloadOverride;
    const ConsistencyModel model = cfg.model;
    const std::size_t nodes = cfg.numNodes;
    const std::uint64_t seed = cfg.seed;
    // Mirrors System::makeProgram for a non-barrier workload override.
    cfg.programFactory = [this, p, model, nodes,
                          seed](NodeId n) -> std::unique_ptr<ThreadProgram> {
      return std::make_unique<TimedProgram>(
          std::make_unique<SyntheticWorkload>(p, model, n, nodes, seed),
          clock);
    };
  }

  void attach(System& sys) {
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
      cpu.push_back(std::make_unique<TimedCpuNotifier>(sys.core(n), clock));
      sys.hierarchy(n).setCpuNotifier(cpu.back().get());
      if (EpochObserver* o = sys.l2(n).epochObserver()) {
        epoch.push_back(std::make_unique<TimedEpochObserver>(*o, clock));
        sys.l2(n).setEpochObserver(epoch.back().get());
      }
      if (MemoryEpochChecker* met = sys.met(n)) {
        home.push_back(std::make_unique<TimedHomeObserver>(*met, clock));
        if (sys.home(n) != nullptr) {
          sys.home(n)->setHomeObserver(home.back().get());
        } else {
          sys.snoopMem(n)->setHomeObserver(home.back().get());
        }
      }
    }
  }
};

// --- one simulation -------------------------------------------------------------

/// Deterministic outcome of a unit: identical for every repetition of the
/// same seed, traced or not.
struct SimCounts {
  std::uint64_t memops = 0;
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t retired = 0;
  std::uint64_t squashes = 0;
  std::uint64_t records = 0;       // verify: captured commit records
  std::uint64_t edges = 0;         // verify: constraint edges of the verdict
  std::uint64_t inWindow = 0;      // verify: streaming verdicts usable
  std::uint64_t batchRecords = 0;  // verify: records checkTrace re-checked
  std::uint64_t peakResident = 0;  // verify: max over the unit's streams
  MetricSnapshot metrics;

  void add(const SimCounts& o) {
    memops += o.memops;
    cycles += o.cycles;
    events += o.events;
    retired += o.retired;
    squashes += o.squashes;
    records += o.records;
    edges += o.edges;
    inWindow += o.inWindow;
    batchRecords += o.batchRecords;
    peakResident = std::max(peakResident, o.peakResident);
    metrics.merge(o.metrics);
  }
  bool operator==(const SimCounts&) const = default;
};

/// Host costs of a unit. Timed layers are steady-clock nanoseconds.
struct HostCosts {
  std::int64_t cpuNs = 0;  // thread CPU after set-up: run, drain, verify
  std::int64_t runWallNs = 0;
  std::int64_t drainWallNs = 0;
  std::int64_t streamFinishNs = 0;
  std::int64_t batchWallNs = 0;
  std::int64_t buildWallNs = 0;
  std::array<std::int64_t, kNumLayers> layerInRunNs{};
  std::uint64_t unitAllocs = 0;
  std::uint64_t setupAllocs = 0;
  std::vector<std::int64_t> simCpuNs;    // cpuNs of each simulation
  std::vector<std::int64_t> setupCpuNs;  // one per simulation

  /// Adds one simulation's costs to the unit's.
  void add(const HostCosts& o) {
    simCpuNs.push_back(o.cpuNs);
    cpuNs += o.cpuNs;
    runWallNs += o.runWallNs;
    drainWallNs += o.drainWallNs;
    streamFinishNs += o.streamFinishNs;
    batchWallNs += o.batchWallNs;
    buildWallNs += o.buildWallNs;
    for (int l = 0; l < kNumLayers; ++l) layerInRunNs[l] += o.layerInRunNs[l];
    unitAllocs += o.unitAllocs;
    setupAllocs += o.setupAllocs;
    setupCpuNs.insert(setupCpuNs.end(), o.setupCpuNs.begin(),
                      o.setupCpuNs.end());
  }
};

struct UnitResult {
  SimCounts counts;
  HostCosts host;
  std::string failure;  // empty when every check passed
};

std::string describeDetection(const Detection& d) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s detection at cycle %" PRIu64
                ", node %u, addr 0x%" PRIx64 ": ",
                checkerKindName(d.kind), std::uint64_t{d.cycle},
                unsigned{d.node}, std::uint64_t{d.addr});
  return buf + d.what;
}

// Destroying a System while pooled network messages are still scheduled
// reads freed pool memory: the message pools die before the kernel's event
// slabs. Run until a window of kQuietCycles passes without a send, after
// which every message sent before the window has been delivered.
constexpr Cycle kQuietCycles = 5'000;
constexpr int kMaxQuietWindows = 64;

bool quiesce(System& sys) {
  auto sent = [&sys] {
    return sys.dataNet().messagesSent() +
           (sys.addrNet() != nullptr ? sys.addrNet()->broadcastsIssued() : 0);
  };
  for (int i = 0; i < kMaxQuietWindows && !sys.sim().empty(); ++i) {
    const std::uint64_t before = sent();
    sys.sim().run(sys.sim().now() + kQuietCycles);
    if (sent() == before) return true;
  }
  return sys.sim().empty();
}

/// Runs the program to completion, injecting the workload's self-test fault
/// once the machine is warm (the proof that a repetition can fail).
RunResult runWithFault(System& sys, const WorkloadSpec& w, std::uint64_t seed) {
  FaultInjector inj(sys, seed);
  Cycle at = 20'000;
  sys.runUntil([&] { return sys.sim().now() >= at; });
  while (!sys.allCoresDone() && !inj.inject(w.selfTestFault)) {
    at += 1'000;
    sys.runUntil([&] { return sys.sim().now() >= at; });
  }
  RunResult r = sys.run();
  r.cycles = sys.sim().now();
  return r;
}

void runSim(const WorkloadSpec& w, std::uint64_t seed, bool traced,
            bool injectFault, UnitResult& unit) {
  SimCounts c;
  HostCosts h;
  SystemConfig cfg = makeConfig(w, seed);
  std::optional<LayerProbes> probes;
  if (traced) probes.emplace();

  // Set-up: everything from the config to the first simulated cycle.
  const std::uint64_t allocs0 = allocCount();
  const std::int64_t cpu0 = threadCpuNs();
  const std::int64_t wall0 = wallNs();
  std::optional<verify::StreamingOracle> oracle;
  std::optional<TimedTraceSink> timedSink;
  if (w.verifyTrace) {
    oracle.emplace();
    cfg.trace.capture = true;
    cfg.trace.keepInMemory = true;  // the batch fallback needs the trace
    cfg.trace.sink = &*oracle;
    if (probes) cfg.trace.sink = &timedSink.emplace(*oracle, probes->clock);
  }
  if (probes) probes->installProgramFactory(cfg);
  auto sys = std::make_unique<System>(cfg);
  if (probes) probes->attach(*sys);
  const std::int64_t cpu1 = threadCpuNs();
  h.buildWallNs = wallNs() - wall0;
  h.setupCpuNs.push_back(cpu1 - cpu0);
  h.setupAllocs = allocCount() - allocs0;

  // The unit: run, drain the checkers, verify.
  const std::uint64_t allocs1 = allocCount();
  std::array<std::int64_t, kNumLayers> before{};
  if (probes) {
    for (int l = 0; l < kNumLayers; ++l) before[l] = probes->clock.ns(Layer(l));
  }
  std::int64_t t = wallNs();
  RunResult r = injectFault ? runWithFault(*sys, w, seed) : sys->run();
  h.runWallNs = wallNs() - t;
  if (probes) {
    for (int l = 0; l < kNumLayers; ++l) {
      h.layerInRunNs[l] = probes->clock.ns(Layer(l)) - before[l];
    }
  }
  if (w.protectedRun) {
    // Epochs still open at program end are checked only once drained.
    t = wallNs();
    sys->drainCheckers();
    h.drainWallNs = wallNs() - t;
    r = sys->collectResult(r.completed, r.cycles);
  }
  std::string failure;
  if (w.verifyTrace) {
    t = wallNs();
    const verify::OracleResult* verdict = &oracle->finish();
    h.streamFinishNs = wallNs() - t;
    c.inWindow = oracle->windowExceeded() ? 0 : 1;
    c.peakResident = oracle->peakResidentRecords();
    verify::OracleResult batch;
    if (!c.inWindow) {
      t = wallNs();
      batch = verify::checkTrace(*r.trace);
      h.batchWallNs = wallNs() - t;
      verdict = &batch;
      c.batchRecords = r.trace->records.size();
    }
    c.records = r.trace->records.size();
    c.edges = verdict->stats.edges;
    if (!verdict->clean) {
      failure = "oracle verdict not clean";
      if (!verdict->violations.empty()) {
        failure += std::string(": ") +
                   verify::violationKindName(verdict->violations[0].kind) +
                   ": " + verdict->violations[0].message;
      }
    }
  }
  h.cpuNs = threadCpuNs() - cpu1;
  h.unitAllocs = allocCount() - allocs1;

  c.cycles = r.cycles;
  c.events = sys->sim().eventsExecuted();
  c.retired = r.retiredInstructions;
  c.squashes = r.squashes;
  c.metrics = r.metrics;
  if (probes) {
    for (NodeId n = 0; n < sys->numNodes(); ++n) {
      c.memops += static_cast<TimedProgram&>(sys->core(n).program()).memOps();
    }
  } else {
    c.memops = r.memOps;
  }
  if (!r.completed) {
    failure = "did not complete within " + std::to_string(kMaxCycles) +
              " cycles";
  } else if (r.detections > 0) {
    failure = describeDetection(sys->sink().first());
  }

  if (!quiesce(*sys)) {
    // Never destroy a System that still has messages in flight; leak it.
    if (failure.empty()) failure = "network did not quiesce after the run";
    (void)sys.release();
  }
  if (unit.failure.empty() && !failure.empty()) {
    unit.failure = "seed " + std::to_string(seed) + ": " + failure;
  }
  unit.counts.add(c);
  unit.host.add(h);
}

/// One repetition: the unit's simulations, seeded from the run's seed.
UnitResult runUnit(const WorkloadSpec& w, std::uint64_t seed, bool traced,
                   bool injectFault) {
  UnitResult u;
  for (int i = 0; i < kSimsPerUnit; ++i) {
    runSim(w, seed * kSimsPerUnit + i, traced, injectFault, u);
  }
  return u;
}

// --- statistics -----------------------------------------------------------------

template <typename T>
double quantile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- the run ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string firstFailure;

  void fail(const char* phase, std::size_t rep, const std::string& why) {
    ++failed;
    std::printf("FAILED %s repetition %zu: %s\n", phase, rep, why.c_str());
    if (firstFailure.empty()) firstFailure = why;
  }
};

/// Pins the thread to one CPU of its allowed set per repetition, in turn,
/// and restores the set on destruction. Some vCPUs of a shared host stay
/// slower than others for minutes; rotating spreads the repetitions over
/// every CPU instead of the one the scheduler kept.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Repeats the unit until `deadlineNs` (at least `minReps` times) and
/// returns the repetitions. A repetition starts only if one as long as the
/// longest so far still ends by the deadline. The unit's first simulation
/// runs once beforehand, untimed, to warm the allocator and caches.
std::vector<UnitResult> repeat(const WorkloadSpec& w, std::uint64_t seed,
                               bool traced, bool injectFault,
                               std::int64_t deadlineNs, std::size_t minReps,
                               RunLog& log, const char* phase) {
  CpuRotation cpus;
  {
    UnitResult warmUp;
    runSim(w, seed * kSimsPerUnit, traced, false, warmUp);
  }
  std::vector<UnitResult> reps;
  std::int64_t longest = 0;
  while (reps.size() < minReps || wallNs() + longest <= deadlineNs) {
    const std::int64_t t0 = wallNs();
    cpus.next();
    const bool fault = injectFault && reps.size() == 1;
    reps.push_back(runUnit(w, seed, traced, fault));
    UnitResult& u = reps.back();
    ++log.attempted;
    if (u.failure.empty() && !fault && !(u.counts == reps.front().counts)) {
      u.failure = "simulation outcome differs from repetition 0";
    }
    if (!u.failure.empty()) log.fail(phase, reps.size() - 1, u.failure);
    longest = std::max(longest, wallNs() - t0);
  }
  return reps;
}

/// For each of the unit's simulations, quantile `q` over the repetitions of
/// one of its host times (`HostCosts::simCpuNs` or `setupCpuNs`).
std::vector<double> perSim(const std::vector<UnitResult>& reps,
                           std::vector<std::int64_t> HostCosts::*times,
                           double q) {
  std::vector<double> out;
  for (std::size_t i = 0; i < (reps.front().host.*times).size(); ++i) {
    std::vector<std::int64_t> v;
    for (const UnitResult& r : reps) v.push_back((r.host.*times)[i]);
    out.push_back(quantile(v, q));
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// The unit's thread CPU, robust to contention: each simulation's fastest
/// repetition, summed. A shared host slows the whole process by up to 2x
/// for seconds at a time, and only ever upward. Each simulation is short
/// (0.1 to 0.3 s), so across repetitions, which rotate over the CPUs, it
/// meets at least one uncontended moment (README.md, "Choosing the
/// statistic").
double fastestCpuNs(const std::vector<UnitResult>& reps) {
  return sum(perSim(reps, &HostCosts::simCpuNs, 0.0));
}

std::vector<Metric> endToEnd(const std::vector<UnitResult>& reps,
                             const RunLog& log) {
  const SimCounts& c = reps.front().counts;
  const double memops = static_cast<double>(c.memops);
  std::vector<std::int64_t> cpu;
  for (const UnitResult& r : reps) cpu.push_back(r.host.cpuNs);
  const double unitCpu = fastestCpuNs(reps);
  std::printf(
      "  unit thread CPU over %zu repetitions: min %.4f s, p25 %.4f s, "
      "median %.4f s, max %.4f s; per-simulation minima sum to %.4f s, "
      "medians to %.4f s\n",
      cpu.size(), quantile(cpu, 0.0) * 1e-9, quantile(cpu, 0.25) * 1e-9,
      quantile(cpu, 0.5) * 1e-9, quantile(cpu, 1.0) * 1e-9, unitCpu * 1e-9,
      sum(perSim(reps, &HostCosts::simCpuNs, 0.5)) * 1e-9);
  // Set-up time: the median over the unit's System constructions, each
  // reduced to its fastest repetition like the unit's CPU time.
  const double setupNs =
      quantile(perSim(reps, &HostCosts::setupCpuNs, 0.0), 0.5);
  return {
      {"cpu_ns_per_memop", ratio(unitCpu, memops), "ns"},
      {"sim_cycles_per_memop", ratio(double(c.cycles), memops), "cycles"},
      {"ok_frac",
       ratio(double(log.attempted - log.failed), double(log.attempted)),
       "ratio"},
      {"setup_s", setupNs * 1e-9, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

std::vector<Metric> perLayer(const std::vector<UnitResult>& plain,
                             const std::vector<UnitResult>& traced) {
  const SimCounts& c = plain.front().counts;
  auto stat = [&c](const char* name) { return double(c.metrics.value(name)); };
  auto missRatio = [&stat](const char* hit, const char* miss) {
    return ratio(stat(miss), stat(hit) + stat(miss));
  };
  const double memops = double(c.memops);
  const double kmemops = memops / 1000.0;
  const double records = double(c.records);
  const double sims = kSimsPerUnit;
  const double netBytes = stat("net.totalBytes");
  std::uint64_t sortP50 = 0;
  if (auto it = c.metrics.histograms.find("met.informSortResidence");
      it != c.metrics.histograms.end()) {
    sortP50 = it->second.p50();
  }
  const HostCosts& plainHost = plain[1].host;

  // Traced timings from the traced repetition of least thread CPU.
  const HostCosts& h =
      std::min_element(traced.begin(), traced.end(),
                       [](const UnitResult& a, const UnitResult& b) {
                         return a.host.cpuNs < b.host.cpuNs;
                       })
          ->host;
  const auto& layer = h.layerInRunNs;
  std::int64_t inRun = 0;
  for (std::int64_t v : layer) inRun += v;
  return {
      {"sim.events_per_memop", ratio(c.events, memops), "events/memop"},
      {"cpu.retired_per_cycle", ratio(c.retired, c.cycles), "instr/cycle"},
      {"cpu.squashes_per_kmemop", ratio(c.squashes, kmemops), "1/kmemop"},
      {"coherence.l1_miss_ratio", missRatio("l1.hit", "l1.miss"), "ratio"},
      {"coherence.l2_miss_ratio", missRatio("l2.hit", "l2.miss"), "ratio"},
      {"coherence.replay_l1_miss_ratio",
       missRatio("l1.replayHit", "l1.replayMiss"), "ratio"},
      {"net.bytes_per_memop", ratio(netBytes, memops), "B/memop"},
      {"net.inform_bytes_frac", ratio(stat("net.informBytes"), netBytes),
       "ratio"},
      {"dvmc.informs_per_kmemop",
       ratio(stat("cet.informEpoch") + stat("cet.informOpen") +
                 stat("cet.informClosed"),
             kmemops),
       "1/kmemop"},
      {"dvmc.met_sort_residence_p50", double(sortP50), "cycles"},
      {"ber.undo_blocks_per_checkpoint",
       ratio(stat("ber.undoBlocksLogged"), stat("ber.checkpoints")), "blocks"},
      {"ber.ckpt_bytes_frac", ratio(stat("net.ckptBytes"), netBytes), "ratio"},
      {"verify.edges_per_record", ratio(c.edges, records), "edges/record"},
      {"verify.stream_in_window_frac",
       c.records != 0 ? c.inWindow / sims : 0.0, "ratio"},
      {"verify.peak_resident_records", double(c.peakResident), "records"},
      {"system.allocs_per_memop", ratio(plainHost.unitAllocs, memops),
       "allocs/memop"},
      {"system.setup_allocs", plainHost.setupAllocs / sims, "allocs"},
      {"workload.ns_per_memop", ratio(layer[kWorkload], memops), "ns"},
      {"cpu.notify_ns_per_memop", ratio(layer[kCpuNotify], memops), "ns"},
      {"dvmc.cet_ns_per_memop", ratio(layer[kCet], memops), "ns"},
      {"dvmc.met_home_ns_per_memop", ratio(layer[kMetHome], memops), "ns"},
      {"dvmc.drain_ms", h.drainWallNs * 1e-6 / sims, "ms"},
      {"verify.stream_ns_per_record",
       ratio(layer[kStream] + h.streamFinishNs, records), "ns"},
      {"verify.batch_ns_per_record", ratio(h.batchWallNs, c.batchRecords),
       "ns"},
      {"system.build_ms", h.buildWallNs * 1e-6 / sims, "ms"},
      {"system.run_ns_per_memop", ratio(h.runWallNs, memops), "ns"},
      {"system.residual_ns_per_memop", ratio(h.runWallNs - inRun, memops),
       "ns"},
      {"trace.overhead_ratio",
       ratio(fastestCpuNs(traced), fastestCpuNs(plain)), "ratio"},
  };
}

void printResult(const RunLog& log, const std::vector<Metric>& metrics) {
  Json mj = Json::object();
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    mj.set(m.name,
           Json::object().set("value", Json::num(m.value)).set(
               "unit", Json::str(m.unit)));
  }
  if (log.failed > 0) {
    std::printf("first failure: %s\n", log.firstFailure.c_str());
  }
  Json out = Json::object();
  out.set("correct", Json::boolean(log.failed == 0))
      .set("attempted", Json::num(log.attempted))
      .set("failed", Json::num(log.failed))
      .set("metrics", std::move(mj));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  int trace = 0;
  bool injectFault = false;
  CliParser cli("dvmc_perfbench",
                "End-to-end DVMC benchmark: repeats one seeded unit of work "
                "per workload and prints its metrics as JSON.");
  cli.option("--workload", &workload, "NAME",
             "dir-tso-oltp-dvmc | snoop-sc-jbb-base | dir-pso-oltp-verify")
      .option("--seed", &seed, "N", "input seed")
      .count("--seconds", &seconds, "S", "measuring time")
      .option("--trace", &trace, "0|1",
              "1: per-layer metrics from a traced run")
      .flag("--inject-fault", &injectFault,
            "self-test: inject the workload's fault into repetition 1")
      .noPositionals();
  cli.parse(argc, argv);
  const WorkloadSpec* w = findWorkload(workload);
  if (w == nullptr || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "dvmc_perfbench: unknown --workload or --trace\n");
    return 2;
  }
  std::printf("workload %s, seed %" PRIu64 ", %" PRIu64
              " s, trace %d: %d simulations x %zu threads x %" PRIu64
              " transactions per repetition\n",
              w->name, seed, seconds, trace, kSimsPerUnit, kNodes,
              kTxPerThread);

  RunLog log;
  const std::int64_t start = wallNs();
  const std::int64_t budget = static_cast<std::int64_t>(seconds) * 1'000'000'000;
  std::vector<Metric> metrics;
  if (trace == 0) {
    const auto reps = repeat(*w, seed, false, injectFault, start + budget, 3,
                             log, "untraced");
    metrics = endToEnd(reps, log);
  } else {
    // End-to-end numbers never come from here: half the budget repeats the
    // untraced unit (exact counts, CPU baseline), half the traced one.
    const auto plain = repeat(*w, seed, false, injectFault, start + budget / 2,
                              2, log, "untraced");
    const auto traced =
        repeat(*w, seed, true, false, start + budget, 2, log, "traced");
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const UnitResult& u = traced[i];
      if (!u.failure.empty()) continue;  // already counted
      std::int64_t inRun = 0;
      for (std::int64_t v : u.host.layerInRunNs) inRun += v;
      if (!(u.counts == plain.front().counts)) {
        log.fail("traced", i, "counters differ from the untraced run");
      } else if (inRun > u.host.runWallNs) {
        log.fail("traced", i, "timed layers exceed System::run");
      }
    }
    metrics = perLayer(plain, traced);
  }
  printResult(log, metrics);
  return log.failed == 0 ? 0 : 1;
}
