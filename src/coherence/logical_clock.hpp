// Logical time bases for the Cache Coherence checker (Section 4.3).
//
// Any time base that respects causality works. The paper chooses:
//  * snooping  — each controller counts the coherence requests it has
//    processed so far; since every controller observes the same totally
//    ordered broadcast stream, these counts agree causally.
//  * directory — a slow, loosely synchronized physical clock distributed
//    to each controller. As long as the skew between any two controllers
//    is below the minimum communication latency, causality is preserved.
//
// Checkers operate on 16-bit truncations of these wide counts; scrub FIFOs
// keep live timestamps within half the 16-bit wheel.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "common/wrap16.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

class LogicalClock {
 public:
  virtual ~LogicalClock() = default;

  /// Full-width logical time (simulator bookkeeping, scrub decisions).
  virtual std::uint64_t now() = 0;

  /// Truncated wire/storage format used by CET/MET and Inform messages.
  LTime16 now16() { return ltimeTruncate(now()); }
};

/// Processor cycles per tick of the directory's logical clock.
inline constexpr Cycle kDirClockDivisor = 16;

/// Directory time base: (cycle + skew) / kDirClockDivisor. The divisor
/// makes the clock "relatively slow"; skew models loose synchronization and
/// must stay below the minimum network latency divided by the divisor.
class PhysicalLogicalClock final : public LogicalClock {
 public:
  PhysicalLogicalClock(Simulator& sim, Cycle skew) : sim_(sim), skew_(skew) {}

  std::uint64_t now() override {
    return (sim_.now() + skew_) / kDirClockDivisor;
  }

 private:
  Simulator& sim_;
  Cycle skew_;
};

/// Snooping time base: number of coherence requests this controller has
/// processed. The controller calls tick() once per snooped request.
class CountingClock final : public LogicalClock {
 public:
  std::uint64_t now() override { return count_; }
  void tick() { ++count_; }
  void tickTo(std::uint64_t v) {
    if (v > count_) count_ = v;
  }

 private:
  std::uint64_t count_ = 0;
};

}  // namespace dvmc
