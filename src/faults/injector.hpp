// Error injection framework (Section 6.1).
//
// Reproduces the paper's fault campaign: "data and address bit flips;
// dropped, reordered, mis-routed, and duplicated messages; and reorderings
// and incorrect forwarding in the LSQ and write buffer", injected into the
// LSQ, write buffer, caches, interconnect, and memory/cache controllers at
// a random time, type, and location.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "system/system.hpp"

namespace dvmc {

enum class FaultType : std::uint8_t {
  kCacheDataMultiBit,  // uncorrectable cache corruption (ECC detects)
  kCacheStateFlip,     // MOSI state bit flip (coherence checker detects)
  kMemoryDataMultiBit, // uncorrectable memory corruption (ECC detects)
  kMsgDrop,            // lost coherence message (lost-op / hang watchdog)
  kMsgDuplicate,       // duplicated message
  kMsgMisroute,        // delivered to the wrong node
  kMsgReorder,         // ordered-network reordering (snooping only)
  kMsgDataCorrupt,     // payload bit flip in flight (DVCC hash mismatch)
  kLsqWrongForward,    // wrong load value out of the LSQ (DVUO replay)
  kWbValueCorrupt,     // write-buffer datapath corruption (VC dealloc check)
  kWbReorder,          // drain order violation (AR checker; SC/TSO only)
  kCheckerCetCorrupt,  // fault in DVMC's own hardware: false positive only
};

const char* faultTypeName(FaultType t);
const std::vector<FaultType>& allFaultTypes();

/// True when `t` constitutes an actual error under consistency model `m`
/// and protocol `p` (a write-buffer reorder is legal under PSO/RMO; an
/// ordered-network reorder only exists in snooping systems).
bool faultApplicable(FaultType t, ConsistencyModel m, Protocol p);

/// True when the configured coherence checker claims coverage for `t`.
/// The shadow (TCSC-style) checker documentedly does not hash-check
/// cache-to-cache data transfers, so in-flight payload corruption is
/// outside its coverage — a differential campaign must not count such a
/// miss as a checker escape.
bool faultCoveredBy(FaultType t, SystemConfig::CoherenceCheckerKind checker);

class FaultInjector {
 public:
  FaultInjector(System& sys, std::uint64_t seed);

  /// Attempts to inject the fault right now at a random location; returns
  /// false if no suitable target exists yet (FaultTrial draws it again in
  /// its next round).
  bool inject(FaultType t);

  /// Arms a one-shot network fault (drop/dup/misroute/reorder/corrupt):
  /// the next eligible coherence message triggers it.
  void armNetworkFault(FaultType t);

 private:
  System& sys_;
  Rng rng_;
  bool netFaultArmed_ = false;
  FaultType armedType_ = FaultType::kMsgDrop;
};

}  // namespace dvmc
