// Streaming trace pipeline: chunked delivery of commit-point records.
//
// A TraceSink receives a run's capture as a stream of *settled* chunks
// while the run executes, so the capture can go to disk (or anywhere
// else) without the run holding it whole in memory:
//
//   begin(header)   once, before any record
//   chunk(c)        zero or more closed chunks, in global commit order
//   end(truncated)  once, after the last chunk
//
// A chunk is only emitted when every buffered store inside it has been
// patched with its final fate (performed or superseded), so downstream
// consumers never see a record whose flags can still change — except at
// end-of-run, where stores still sitting in a write buffer are flushed
// out with kNotPerformed, exactly like the batch capture.
//
// Sinks provided here:
//   MemoryTraceSink       reassembles a CapturedTrace
//   ChunkedTraceFileSink  spills chunks to disk as "dvmc-trace" version 2
// verify::StreamingOracle (streaming_oracle.hpp) buffers the stream in a
// MemoryTraceSink and checks it with checkTrace() once the stream ends.
//
// dvmc-trace version 2 ("chunked"): the same 48-byte header as v1 (with
// version = 2), followed by chunks, each a 24-byte chunk header
// [magic "CHNK" | u32 record count | u64 first global index | u64 close
// cycle] and count 48-byte v1-layout records. The header's record count
// and truncated flag are patched when the stream ends. streamTraceFile
// reads both v1 and v2 files without materializing the whole trace.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "verify/trace.hpp"

namespace dvmc::verify {

/// dvmc-trace version written by ChunkedTraceFileSink.
inline constexpr int kTraceChunkedVersion = 2;
inline constexpr char kChunkMagic[4] = {'C', 'H', 'N', 'K'};
inline constexpr std::size_t kChunkHeaderBytes = 24;

/// Header fields shared by every trace container (CapturedTrace carries
/// the same data plus the records).
struct TraceHeader {
  std::uint8_t declaredModel = 0;
  std::uint8_t protocol = 0;
  std::uint32_t numCores = 0;
  std::uint64_t seed = 0;
};

/// One closed, settled run of consecutive records.
struct TraceChunk {
  std::uint64_t firstIndex = 0;  // global index of records[0]
  Cycle closeCycle = 0;          // latest perform cycle inside the chunk
  std::vector<TraceRecord> records;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin(const TraceHeader& h) = 0;
  virtual void chunk(TraceChunk&& c) = 0;
  virtual void end(bool truncated) = 0;
};

/// Reassembles the stream into a CapturedTrace (the non-streaming
/// consumers' format). The result is bit-identical to a direct batch
/// capture of the same run.
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

/// Spill-to-disk writer: each chunk goes to the file as it closes, so a
/// long capture costs one chunk of resident memory. Writes dvmc-trace
/// version 2. I/O errors are sticky: check ok() after end().
class ChunkedTraceFileSink final : public TraceSink {
 public:
  explicit ChunkedTraceFileSink(std::string path);
  ~ChunkedTraceFileSink() override;
  void begin(const TraceHeader& h) override;
  void chunk(TraceChunk&& c) override;
  void end(bool truncated) override;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::uint64_t recordsWritten() const { return count_; }

 private:
  void setError(const std::string& msg);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t count_ = 0;
  std::string error_;
  bool ended_ = false;
};

/// Streams a dvmc-trace file (version 1 or 2) through `sink` chunk by
/// chunk without materializing the whole trace; v1 files are re-chunked
/// every `chunkRecords` records. Returns false and fills `err` on I/O or
/// parse failure (byte-offset messages, like CapturedTrace::parse).
bool streamTraceFile(const std::string& path, TraceSink& sink,
                     std::string* err,
                     std::size_t chunkRecords = 4096);

/// Replays an in-memory trace through `sink` in `chunkRecords` pieces,
/// as a run would stream it.
void streamCapturedTrace(const CapturedTrace& t, TraceSink& sink,
                         std::size_t chunkRecords = 4096);

}  // namespace dvmc::verify
