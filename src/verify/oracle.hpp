// Offline polynomial-time memory-consistency oracle.
//
// Checks a captured commit trace (verify/trace.hpp) against the declared
// consistency model, independently of the runtime DVMC checkers. The
// algorithm follows the TSOtool / Roy-et-al. recipe: build a constraint
// graph over the committed operations —
//
//   po      program-order edges the per-op effective model mandates
//   addr    same-core same-word coherence edges (CoWW / CoRW / CoRR)
//   membar  per-bit virtual barrier nodes for SPARC membar masks
//   drain   a full virtual barrier where the effective model switches
//   rf      reads-from edges to globally performed writers
//   ws      per-word write serialization (perform-cycle order)
//   fr      from-read edges into the writer's ws successor
//
// — then run a Kahn topological sort (equivalent to vector-clock closure);
// any residual cycle is an ordering violation, reported as the first
// violating edge with byte offsets into the serialized trace. Read values
// are separately checked against the set of values a read performing at
// cycle t may legally observe (globally settled writers, same-cycle
// writers, local store-buffer forwarding, or the initial fill pattern).
//
// The oracle is sound but incomplete in the usual sense: it never flags a
// legal execution (no false positives — required by the differential
// harness), but value aliasing can hide a genuinely wrong reads-from
// choice. Traces that hit the capture limit are refused (kMalformed)
// rather than checked partially: dropped store records would make later
// reads look like they observed never-written values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/trace.hpp"

namespace dvmc::verify {

struct OracleViolation {
  enum class Kind : std::uint8_t {
    kMalformed,     // trace fails well-formedness (or was truncated)
    kBadReadValue,  // read observed a value no legal execution yields
    kCycle,         // constraint graph has a cycle
  };
  Kind kind = Kind::kMalformed;
  // Offending records (indices into CapturedTrace::records) and their byte
  // offsets in the serialized stream; recordB is unused for kMalformed
  // verdicts that concern the whole trace.
  std::size_t recordA = 0;
  std::size_t recordB = 0;
  std::size_t byteA = 0;
  std::size_t byteB = 0;
  std::string message;
  // kCycle only: the cycle in forward order. Each step names a record and
  // the kind of the edge leaving it ("po", "rf", ...); a step through a
  // membar or drain barrier node names the record that placed it.
  struct CycleStep {
    std::size_t record = 0;
    bool barrier = false;
    const char* edge = "";
  };
  std::vector<CycleStep> cycle;
};

const char* violationKindName(OracleViolation::Kind k);

struct OracleStats {
  std::size_t records = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t membars = 0;
  std::size_t virtualNodes = 0;   // membar/drain barrier bits
  std::size_t edges = 0;          // total constraint edges
  std::size_t rfEdges = 0;
  std::size_t wsEdges = 0;
  std::size_t frEdges = 0;
  std::size_t forwardedReads = 0;  // satisfied by local store forwarding
  std::size_t initReads = 0;       // observed the initial fill pattern
  std::size_t ambiguousReads = 0;  // several same-value writers: no edges
};

struct OracleOptions {
  // Stop at the first violation (the CLI's `check`); `explain` keeps going
  // only insofar as value errors are independent, so this mostly bounds
  // output size.
  std::size_t maxViolations = 1;
};

struct OracleResult {
  bool clean = false;
  std::vector<OracleViolation> violations;
  OracleStats stats;
};

OracleResult checkTrace(const CapturedTrace& t, const OracleOptions& o = {});

/// One-line human description of record i ("[3] n2 store @0x1040 ...").
std::string describeRecord(const CapturedTrace& t, std::size_t i);

/// The deterministic value the word holding `addr` has before any store
/// to it.
std::uint64_t initialWordValue(Addr addr);

}  // namespace dvmc::verify
