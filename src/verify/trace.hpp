// Commit-point memory-operation traces (the "dvmc-trace" schema) and the
// per-core recorder that captures them.
//
// The offline consistency oracle (verify/oracle.hpp) needs an independent
// record of what the program actually observed: every committed load,
// store, atomic, and membar, in per-core program order, with the global
// perform instant of each operation. The Core appends a record when an
// operation passes the in-order verification gate — the commit point — so
// squash/replay-repaired mis-speculation never reaches the trace; a
// buffered store's perform cycle is patched in later, when it drains out
// of the write buffer (storePerformed), or it is marked superseded when
// write-buffer coalescing merges it into a younger same-word store.
//
// The serialized form ("dvmc-trace", version 1, the only version) is a
// fixed-layout little-endian binary: a 48-byte header followed by 48-byte
// records, so record i lives at byte offset 48 + 48*i — the oracle reports
// violations with byte offsets into this layout, which are offsets into
// the file it read. The byte stream is deterministic: the same seed
// produces a bit-identical trace regardless of --jobs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "consistency/model.hpp"

namespace dvmc::verify {

/// Current trace schema version. Bump on any layout change.
inline constexpr int kTraceSchemaVersion = 1;
inline constexpr const char* kTraceSchemaName = "dvmc-trace";
inline constexpr char kTraceMagic[8] = {'D', 'V', 'M', 'C',
                                        'T', 'R', 'C', '\0'};

/// Perform cycle of an operation that never performed (a store still in
/// the write buffer when the run ended). Excluded from write serialization.
inline constexpr Cycle kNotPerformed = ~Cycle{0};

enum class TraceOp : std::uint8_t {
  kLoad = 0,
  kStore = 1,
  kSwap = 2,
  kCas = 3,
  kMembar = 4,
};

const char* traceOpName(TraceOp op);

// TraceRecord::flags bits.
inline constexpr std::uint8_t kFlagPerformed = 0x1;   // performCycle valid
inline constexpr std::uint8_t kFlagSuperseded = 0x2;  // coalesced away in WB
inline constexpr std::uint8_t kFlagCasFailed = 0x4;   // CAS compare missed
inline constexpr std::uint8_t kFlag32Bit = 0x8;       // v8 op (ran as TSO)

/// One committed memory operation. 48 serialized bytes.
struct TraceRecord {
  TraceOp op = TraceOp::kLoad;
  std::uint8_t node = 0;
  std::uint8_t model = 0;       // effective ConsistencyModel for this op
  std::uint8_t flags = 0;
  std::uint8_t membarMask = 0;  // kMembar only
  SeqNum seq = 0;               // per-core, strictly increasing
  Addr addr = 0;                // word-aligned (all accesses are 8 bytes)
  std::uint64_t value = 0;      // store/atomic: value written; load: observed
  std::uint64_t readValue = 0;  // load: == value; atomic: old value read
  Cycle performCycle = kNotPerformed;

  bool performed() const { return (flags & kFlagPerformed) != 0; }
  bool superseded() const { return (flags & kFlagSuperseded) != 0; }
  /// The record wrote memory (store, swap, or successful CAS).
  bool writes() const {
    return op == TraceOp::kStore || op == TraceOp::kSwap ||
           (op == TraceOp::kCas && (flags & kFlagCasFailed) == 0);
  }
  /// The record observed a memory value (load or atomic read part).
  bool reads() const {
    return op == TraceOp::kLoad || op == TraceOp::kSwap ||
           op == TraceOp::kCas;
  }
};

/// A whole run's capture, carried on RunResult::trace.
struct CapturedTrace {
  std::uint8_t declaredModel = 0;  // ConsistencyModel the system declared
  std::uint8_t protocol = 0;       // Protocol enum value
  std::uint32_t numCores = 0;
  std::uint64_t seed = 0;
  bool truncated = false;  // hit the capture limit; the tail is missing
  std::vector<TraceRecord> records;  // global commit order; per-core subsequences are program order

  static constexpr std::size_t kHeaderBytes = 48;
  static constexpr std::size_t kRecordBytes = 48;

  /// Byte offset of record `i` in the serialized stream.
  static std::size_t byteOffset(std::size_t i) {
    return kHeaderBytes + i * kRecordBytes;
  }

  std::vector<std::uint8_t> serialize() const;

  /// Parses a serialized trace; on failure returns false and fills `err`
  /// with a message carrying the offending byte offset.
  static bool parse(const std::uint8_t* data, std::size_t size,
                    CapturedTrace* out, std::string* err);
};

/// Writes a trace file; readTraceFile reads one back through
/// CapturedTrace::parse. Both return false and fill `err` on I/O or parse
/// failure.
bool writeTraceFile(const std::string& path, const CapturedTrace& t,
                    std::string* err);
bool readTraceFile(const std::string& path, CapturedTrace* t,
                   std::string* err);

/// Per-system commit-point recorder. Single-threaded like the simulator
/// that feeds it; runSeeds gives each seed's System its own recorder. The
/// whole capture accumulates in one CapturedTrace (trace()); at the end of
/// a run System::finishTraceCapture() replays it into any attached
/// TraceSink (trace_sink.hpp).
class TraceRecorder {
 public:
  TraceRecorder(std::uint32_t numCores, ConsistencyModel declared,
                std::uint8_t protocol, std::uint64_t seed, std::size_t limit);

  /// Appends a record as the operation passes the in-order gate. A store
  /// committed into the write buffer arrives without kFlagPerformed and is
  /// patched by storePerformed/storeSuperseded below.
  void onCommit(const TraceRecord& r);

  /// A buffered store drained and performed at the cache.
  void storePerformed(NodeId node, SeqNum seq, Cycle now);

  /// A buffered store was coalesced into a younger same-word store before
  /// it could perform; only local forwarding may have observed its value.
  void storeSuperseded(NodeId node, SeqNum seq, Cycle now);

  /// The capture so far (immutable once the run finishes, like
  /// RunResult::series). Stores still in a write buffer keep
  /// kNotPerformed.
  std::shared_ptr<const CapturedTrace> trace() const { return trace_; }

 private:
  void patchPending(NodeId node, SeqNum seq, Cycle now, std::uint8_t flag);

  std::shared_ptr<CapturedTrace> trace_;
  // Per-core map from a pending store's seq to its global record index.
  std::vector<FlatMap<SeqNum, std::size_t>> pending_;
  std::size_t limit_;
};

}  // namespace dvmc::verify
