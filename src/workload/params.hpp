// Workload parameterization.
//
// The paper evaluates DVMC on the Wisconsin Commercial Workload suite
// (apache, oltp/DB2, SPECjbb, slashcode) plus barnes. Those runs need a
// full OS and commercial binaries; per the substitution rule we model each
// workload as a parameterized synthetic program that reproduces the traits
// the paper's analysis leans on: sharing degree, store fraction, lock count
// and contention (slash: few, highly contended locks -> high variance),
// barrier phases (barnes), transaction size, and the fraction of 32-bit
// SPARC v8 instructions that force TSO under PSO/RMO (Table 8).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace dvmc {

enum class WorkloadKind : std::uint8_t {
  kApache,
  kOltp,
  kJbb,
  kSlash,
  kBarnes,
  kMicroMix,  // uniform random mix used by unit tests
};

const char* workloadName(WorkloadKind k);
WorkloadKind workloadFromName(const std::string& name);

struct WorkloadParams {
  WorkloadKind kind = WorkloadKind::kMicroMix;

  // Address-space shape (block counts).
  std::size_t privateBlocks = 512;  // per-thread working set
  std::size_t sharedBlocks = 256;   // shared heap
  std::size_t hotBlocks = 16;       // contended subset of the shared heap
  double hotFraction = 0.2;         // shared accesses hitting the hot set
  std::size_t numLocks = 64;

  // Transaction composition.
  std::size_t txOps = 40;           // memory operations per transaction
  double sharedFraction = 0.25;     // accesses to the shared heap
  double writeFraction = 0.2;       // stores among data accesses
  double lockFraction = 0.5;        // transactions that run a critical section
  std::size_t csOps = 8;            // ops inside the critical section
  std::uint16_t computeMin = 1;     // compute burst between memory ops
  std::uint16_t computeMax = 6;

  // 32-bit (v8) compatibility code (Table 8): emitted in contiguous runs.
  double frac32Bit = 0.0;
  std::size_t run32Len = 24;

  // Barrier phases (barnes): 0 = none; otherwise ops per phase with a
  // global barrier between phases, and `transactions` counts phases.
  std::size_t barrierEveryTx = 0;

  // Stop condition: transactions this thread contributes before finishing
  // (the system-level runner usually stops on the global total first).
  std::uint64_t maxTransactions = 1'000'000;
};

/// The per-workload presets (Table 8 analogues).
WorkloadParams workloadPreset(WorkloadKind kind);

/// Address-map helpers shared by the generator and the tests.
struct AddressMap {
  static constexpr Addr kLockBase = 1u << 16;
  static constexpr Addr kBarrierBase = 1u << 19;
  static constexpr Addr kSharedBase = 1u << 21;
  static constexpr Addr kPrivateBase = Addr{1} << 30;

  static Addr lockAddr(std::size_t i) { return kLockBase + i * kBlockSizeBytes; }
  static Addr barrierAddr() { return kBarrierBase; }
  static Addr sharedAddr(std::size_t block, std::size_t word) {
    return kSharedBase + block * kBlockSizeBytes + word * kWordBytes;
  }
  static Addr privateAddr(NodeId node, std::size_t block, std::size_t word) {
    return kPrivateBase + (Addr{node} << 26) + block * kBlockSizeBytes +
           word * kWordBytes;
  }
};

}  // namespace dvmc
