// Chunked delivery of a finished commit-point capture.
//
// A TraceSink receives a run's capture as a stream of chunks:
//
//   begin(header)   once, before any record
//   chunk(c)        zero or more chunks, in global commit order
//   end(truncated)  once, after the last chunk
//
// Attached as SystemConfig::trace.sink, a sink is fed once, when the run
// finishes (System::finishTraceCapture, which run() calls): the recorder
// keeps the one in-memory CapturedTrace and streamCapturedTrace replays
// it, so every record carries its final flags. Stores still in a write
// buffer at that point keep kNotPerformed.
//
// MemoryTraceSink reassembles a CapturedTrace; verify::StreamingOracle
// (streaming_oracle.hpp) buffers the stream in one and checks it with
// checkTrace() once the stream ends.
#pragma once

#include <memory>
#include <vector>

#include "verify/trace.hpp"

namespace dvmc::verify {

/// Header fields of a capture (CapturedTrace carries the same data plus
/// the records).
struct TraceHeader {
  std::uint8_t declaredModel = 0;
  std::uint8_t protocol = 0;
  std::uint32_t numCores = 0;
  std::uint64_t seed = 0;
};

/// One run of consecutive records.
struct TraceChunk {
  std::uint64_t firstIndex = 0;  // global index of records[0]
  std::vector<TraceRecord> records;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin(const TraceHeader& h) = 0;
  virtual void chunk(TraceChunk&& c) = 0;
  virtual void end(bool truncated) = 0;
};

/// Reassembles the stream into a CapturedTrace, bit-identical to the
/// capture that was streamed.
class MemoryTraceSink final : public TraceSink {
 public:
  MemoryTraceSink();
  void begin(const TraceHeader& h) override;
  void chunk(TraceChunk&& c) override;
  void end(bool truncated) override;

  /// The reassembled capture (valid once end() was called; shared like
  /// RunResult::trace).
  std::shared_ptr<const CapturedTrace> trace() const { return trace_; }

 private:
  std::shared_ptr<CapturedTrace> trace_;
};

/// Replays an in-memory trace through `sink` in `chunkRecords` pieces.
void streamCapturedTrace(const CapturedTrace& t, TraceSink& sink,
                         std::size_t chunkRecords = 4096);

}  // namespace dvmc::verify
