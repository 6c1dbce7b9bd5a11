// In-process resource sampler + live status surface (obs subsystem).
//
// Two pieces, both host-side (the simulated machine has its own telemetry
// in TimeSeries/metrics):
//
//   * Resource sampling: RSS from /proc/self/statm and CPU time from
//     getrusage(RUSAGE_SELF), cheap enough to call per status update. A
//     sample lands in the run report's "resource" section and in every
//     status snapshot, whose peakRssBytes tools/check_perf.py --rss
//     asserts.
//
//   * Live status: StatusWriter atomically rewrites a small JSON snapshot
//     ("dvmc-status", version 1) via tmp-file + rename, rate-limited, so
//     `dvmc_inspect watch FILE` — or a plain `watch cat` — can tail a
//     running campaign without ever seeing a torn write. runSeeds and
//     dvmc_campaign publish configs done/running/escaped, per-shard
//     heartbeats, peak RSS, and an ETA through it when --status-file is
//     armed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/json.hpp"

namespace dvmc::obs {

inline constexpr int kStatusSchemaVersion = 1;
inline constexpr const char* kStatusSchemaName = "dvmc-status";

/// One point-in-time snapshot of this process's footprint.
struct ResourceUsage {
  std::uint64_t rssBytes = 0;      // current resident set (/proc/self/statm)
  std::uint64_t peakRssBytes = 0;  // high-water mark (ru_maxrss)
  std::uint64_t userCpuMs = 0;     // getrusage user time
  std::uint64_t sysCpuMs = 0;      // getrusage system time

  /// {"rssBytes":..., "peakRssBytes":..., "userCpuMs":..., "sysCpuMs":...}
  Json toJson() const;
};

/// Samples the calling process. Fields that cannot be read (no procfs)
/// stay 0; getrusage alone still fills the peak and CPU numbers.
ResourceUsage sampleResourceUsage();

/// Atomically rewrites a JSON status snapshot: body fields are wrapped in
/// the dvmc-status envelope (schema/version/generator/updatedUnixMs plus
/// a fresh resource sample), written to `path + ".tmp"`, then renamed
/// over `path`. Rate-limited: non-forced updates within minIntervalMs of
/// the last write are dropped (the final forced write always lands).
/// Thread-safe — campaign workers publish heartbeats concurrently.
class StatusWriter {
 public:
  explicit StatusWriter(std::string path, std::uint64_t minIntervalMs = 250);
  const std::string& path() const { return path_; }

  /// Returns true when the snapshot hit the disk (false = throttled or
  /// I/O error; errors also log through the obs logger).
  bool update(const Json& body, bool force = false);

  std::uint64_t writes() const;

 private:
  std::string path_;
  std::uint64_t minIntervalMs_;
  mutable std::mutex mu_;
  std::uint64_t lastWriteMs_ = 0;  // steady-clock ms of the last landing
  std::uint64_t writes_ = 0;
};

/// The process-global status writer when --status-file was given, else
/// nullptr (mirrors activeTracer / activeForensics).
StatusWriter* activeStatusWriter();

/// Tests / resetObs: drop the global status writer instance.
void resetStatusWriterForTests();

}  // namespace dvmc::obs
