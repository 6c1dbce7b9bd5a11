// Whole-system configuration (Tables 6 and 7 analogues).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "ber/safety_net.hpp"
#include "coherence/cache_array.hpp"
#include "coherence/interfaces.hpp"
#include "consistency/model.hpp"
#include "cpu/core.hpp"
#include "dvmc/dvmc_config.hpp"
#include "net/torus.hpp"
#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "verify/trace.hpp"
#include "workload/params.hpp"

namespace dvmc {

namespace verify {
class TraceSink;  // verify/trace_sink.hpp
}

enum class Protocol : std::uint8_t { kDirectory, kSnooping };

inline const char* protocolName(Protocol p) {
  return p == Protocol::kDirectory ? "directory" : "snooping";
}

struct SystemConfig {
  std::size_t numNodes = 8;
  Protocol protocol = Protocol::kDirectory;
  ConsistencyModel model = ConsistencyModel::kTSO;

  CacheGeometry l1{64, 2};    // 8 KB latency filter
  CacheGeometry l2{256, 4};   // 64 KB coherence point
  TorusConfig torus;          // also the broadcast tree's link bandwidth
  CpuConfig cpu;

  // DVMC: the three checker enables live in `dvmc` (DvmcConfig is the
  // single source of truth — see dvmc/dvmc_config.hpp). An unprotected
  // system disables all three and BER.
  DvmcConfig dvmc;

  /// Which coherence-checking mechanism to plug in (the framework is
  /// modular — Section 8): the paper's epoch/CET/MET scheme, or the
  /// Cantin-style shadow-replay alternative.
  enum class CoherenceCheckerKind : std::uint8_t { kEpoch, kShadow };
  CoherenceCheckerKind coherenceChecker = CoherenceCheckerKind::kEpoch;

  bool berEnabled = false;
  BerConfig ber;
  /// When true (and BER is enabled), any checker detection automatically
  /// triggers rollback to the newest checkpoint predating the detection —
  /// the paper's availability story end to end.
  bool autoRecover = false;

  WorkloadKind workload = WorkloadKind::kMicroMix;
  std::optional<WorkloadParams> workloadOverride;
  std::uint64_t seed = 1;

  /// Worker threads for multi-seed experiment runs (runSeeds): each seed's
  /// simulation is independent, so they fan out across a thread pool. 0 =
  /// the process default (see setDefaultJobs / DVMC_JOBS; hardware
  /// concurrency out of the box), 1 = strictly sequential. Merged
  /// statistics are bit-identical regardless of the setting.
  int jobs = 0;

  /// Tests and examples may install custom per-node programs; when set,
  /// this wins over `workload`.
  std::function<std::unique_ptr<ThreadProgram>(NodeId)> programFactory;

  /// Event tracer for this run (non-owning; nullptr = tracing off, which
  /// costs one null check per instrumentation site). The System wires it
  /// into the simulator kernel, the error sink, and SafetyNet. A tracer is
  /// single-threaded: runSeeds hands it to the first seed's run only.
  EventTracer* tracer = nullptr;

  /// Forensics recorder (non-owning; nullptr = forensics off). When set,
  /// every ErrorSink detection captures a bundle: the last-K trace window
  /// around the detection, the firing checker's state dump, the violating
  /// address's cache-line state at every node, and the SafetyNet checkpoint
  /// epoch. If no tracer is configured, the System creates a private one
  /// sized to the recorder's window so the event context is still there.
  /// The recorder is mutex-guarded, so runSeeds shares it across all seeds.
  ForensicsRecorder* forensics = nullptr;

  /// Time-series sampling: every `sampleEvery` cycles (0 = off) a row of
  /// the default counter columns is appended to a bounded ring carried in
  /// RunResult::series (and serialized into the run report).
  Cycle sampleEvery = 0;
  std::size_t sampleCapacity = 4096;

  /// Commit-point trace capture for the consistency oracle (verify/).
  /// Every trace knob lives here and is validated in one place
  /// (validate(), checked by the System constructor). The capture rides
  /// RunResult::trace like the telemetry series. Incompatible with
  /// autoRecover: a rollback re-executes instructions under fresh
  /// sequence numbers, which would duplicate the recorded history.
  struct TraceOptions {
    /// Record every committed memory operation. Past `captureLimit`
    /// records the trace is marked truncated and the oracle refuses it.
    bool capture = false;
    std::size_t captureLimit = std::size_t{1} << 22;

    /// Optional consumer of the finished capture (non-owning; nullptr =
    /// off), e.g. a verify::StreamingOracle that judges it with
    /// checkTrace(). The recorder keeps the one in-memory capture; run()
    /// replays it into the sink once the run ends
    /// (System::finishTraceCapture). keepInMemory decides only whether
    /// RunResult::trace carries the capture as well.
    verify::TraceSink* sink = nullptr;
    bool keepInMemory = true;

    /// The single validation point: nullptr when consistent, else the
    /// human-readable reason.
    const char* validate() const {
      if (!capture) {
        return sink != nullptr ? "trace.sink requires trace.capture"
                               : nullptr;
      }
      if (captureLimit == 0) return "trace.captureLimit must be positive";
      if (sink == nullptr && !keepInMemory) {
        return "trace capture with neither a sink nor keepInMemory would "
               "discard every record";
      }
      return nullptr;
    }
  };
  TraceOptions trace;

  /// Global stop target: total transactions across all processors (barnes:
  /// phases per processor, run to completion).
  std::uint64_t targetTransactions = 400;
  Cycle maxCycles = 200'000'000;

  // --- convenience constructors for the paper's configurations ---
  static SystemConfig unprotected(Protocol p, ConsistencyModel m) {
    SystemConfig c;
    c.protocol = p;
    c.model = m;
    return c;
  }
  static SystemConfig withDvmc(Protocol p, ConsistencyModel m) {
    SystemConfig c = unprotected(p, m);
    c.dvmc.enableAll();
    c.berEnabled = true;
    return c;
  }
  static SystemConfig snOnly(Protocol p, ConsistencyModel m) {
    SystemConfig c = unprotected(p, m);
    c.berEnabled = true;
    return c;
  }
};

/// One run's measurements.
struct RunResult {
  bool completed = false;         // reached the target before maxCycles
  Cycle cycles = 0;               // runtime in cycles
  std::uint64_t transactions = 0;
  std::uint64_t retiredInstructions = 0;
  std::uint64_t memOps = 0;
  std::uint64_t memOps32 = 0;
  double peakLinkBytesPerCycle = 0.0;  // Figure 7 metric
  std::uint64_t totalNetBytes = 0;
  std::uint64_t coherenceBytes = 0;  // traffic composition (Fig. 7)
  std::uint64_t informBytes = 0;
  std::uint64_t ckptBytes = 0;
  std::uint64_t regularL1Misses = 0;   // Figure 6 inputs
  std::uint64_t replayL1Misses = 0;
  std::uint64_t detections = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t unrecoverable = 0;  // detections past the recovery window
  std::uint64_t squashes = 0;
  std::uint64_t uoFlushes = 0;

  /// Aggregated (cross-node) component metrics at end of run — the typed
  /// registry's snapshot, merged deterministically by runSeeds.
  MetricSnapshot metrics;

  /// Interval samples (null unless SystemConfig::sampleEvery > 0). Shared
  /// so RunResult copies stay cheap; the series is immutable once the run
  /// finishes.
  std::shared_ptr<const TimeSeries> series;

  /// Commit trace (null unless SystemConfig::trace.capture with
  /// keepInMemory). Immutable once the run finishes; feed to
  /// verify::checkTrace.
  std::shared_ptr<const verify::CapturedTrace> trace;
};

}  // namespace dvmc
