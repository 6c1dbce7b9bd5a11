#include "faults/trial.hpp"

#include "common/assert.hpp"

namespace dvmc {

FaultTrial::FaultTrial(System& sys, FaultType fault, std::uint64_t seed)
    : sys_(sys), injector_(sys, seed), fault_(fault) {
  // The verification stage repairs this fault in place with a flush and
  // reports nothing (§4.1); ordinary speculation flushes too, so a flush
  // says nothing about any other fault.
  if (fault == FaultType::kLsqWrongForward) {
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
      for (const char* name : {"cpu.uoFlushes", "cpu.rmoReplayFlushes"}) {
        const std::uint64_t* slot = sys.core(n).stats().findScalar(name);
        DVMC_ASSERT(slot != nullptr, "core flush counter not registered");
        flushSlots_.push_back(slot);
      }
    }
    flushesAtStart_ = flushes();
  }
}

std::uint64_t FaultTrial::flushes() const {
  std::uint64_t total = 0;
  for (const std::uint64_t* slot : flushSlots_) total += *slot;
  return total;
}

FaultTrial::Notice FaultTrial::notice() const {
  if (sys_.sink().any()) return Notice::kDetection;
  if (flushes() > flushesAtStart_) return Notice::kFlush;
  return Notice::kNone;
}

Cycle FaultTrial::noticedAt() const {
  return sys_.sink().any() ? sys_.sink().first().cycle : flushSeenAt_;
}

void FaultTrial::run(Cycle window, int maxRounds) {
  auto noticedNow = [this] { return noticed(); };
  for (int round = 0; round < maxRounds && !noticed() && !sys_.runEnded();
       ++round) {
    if (injector_.inject(fault_)) {
      ++injections_;
      lastInjection_ = sys_.sim().now();
    }
    sys_.runTo(sys_.sim().now() + window, noticedNow);
  }
  if (flushSeenAt_ == 0 && notice() == Notice::kFlush) {
    flushSeenAt_ = sys_.sim().now();
  }
}

}  // namespace dvmc
