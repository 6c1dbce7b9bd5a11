// One fault trial, the paper's §6.1 run-until-detected loop: inject a
// fault, draw it again at a fresh target while it stays masked, and count
// it noticed only when a detection reaches the error sink, or, for
// kLsqWrongForward alone, when the pipeline flushes a load. The Table 6.1
// bench, the ablation, the demo, the campaign and the fault tests all run
// their faults through a trial (docs/experiments_howto.md, "Adding a fault
// type").
#pragma once

#include <cstdint>
#include <vector>

#include "faults/injector.hpp"

namespace dvmc {

class FaultTrial {
 public:
  enum class Notice : std::uint8_t { kNone, kDetection, kFlush };

  /// The trial begins here: construct it where injection may start.
  FaultTrial(System& sys, FaultType fault, std::uint64_t seed);

  /// Repeats rounds until the fault is noticed, `maxRounds` rounds have
  /// run, or the run ends (System::runEnded). Each round injects the
  /// fault, counting the injection when it finds a target, then runs
  /// `window` cycles or until the fault is noticed.
  void run(Cycle window, int maxRounds);

  /// Asks the machine now, so it also holds after a settle or a drain.
  Notice notice() const;
  bool noticed() const { return notice() != Notice::kNone; }
  /// The first detection's cycle, else the cycle run() saw the flush at;
  /// 0 while neither.
  Cycle noticedAt() const;
  int injections() const { return injections_; }
  /// Cycle of the last injection that found a target (0 before one).
  Cycle lastInjection() const { return lastInjection_; }

 private:
  std::uint64_t flushes() const;

  System& sys_;
  FaultInjector injector_;
  FaultType fault_;
  // The cores' flush counters, resolved once; empty for other faults.
  std::vector<const std::uint64_t*> flushSlots_;
  std::uint64_t flushesAtStart_ = 0;
  Cycle flushSeenAt_ = 0;
  int injections_ = 0;
  Cycle lastInjection_ = 0;
};

}  // namespace dvmc
