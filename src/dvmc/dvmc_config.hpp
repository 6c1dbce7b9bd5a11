// Configuration knobs for the DVMC checkers.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace dvmc {

struct DvmcConfig {
  // Which checkers are active (the paper's SN / SN+DVCC / SN+DVUO / full
  // DVMC configurations toggle these). This is the single source of truth
  // for the enables — SystemConfig carries no duplicate flags; a
  // default-constructed system is unprotected, and the withDvmc factory
  // turns all three on.
  bool uniprocOrdering = false;
  bool allowableReordering = false;
  bool cacheCoherence = false;

  bool anyChecker() const {
    return uniprocOrdering || allowableReordering || cacheCoherence;
  }
  void enableAll() {
    uniprocOrdering = allowableReordering = cacheCoherence = true;
  }

  // Allowable Reordering checker: artificial membar injection period
  // (Section 4.2: about one per 100k cycles).
  Cycle membarInjectionPeriod = 100'000;

  // Cache Coherence checker.
  std::size_t informQueueCapacity = 256;   // MET priority queue (Table 6)
  Cycle informSortDelay = 6'000;           // residence time in the queue
  std::uint64_t scrubAgeTicks = 1u << 14;  // announce epochs older than this
};

}  // namespace dvmc
