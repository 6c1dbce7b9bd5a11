// Checks a live capture: StreamingOracle is a TraceSink that buffers the
// chunks of a capture (through MemoryTraceSink) and judges the whole trace
// with checkTrace() when finish() is called. Attach it as
// SystemConfig::trace.sink: the run streams its finished capture into it
// when run() returns (System::finishTraceCapture). The verdict, violations
// and statistics are checkTrace()'s by construction. See
// docs/verification_oracle.md.
#pragma once

#include <cstddef>
#include <optional>

#include "common/assert.hpp"
#include "verify/oracle.hpp"
#include "verify/trace_sink.hpp"

namespace dvmc::verify {

class StreamingOracle final : public TraceSink {
 public:
  explicit StreamingOracle(const OracleOptions& o = {}) : opt_(o) {}

  void begin(const TraceHeader& h) override { buffer_.begin(h); }
  void chunk(TraceChunk&& c) override { buffer_.chunk(std::move(c)); }
  void end(bool truncated) override {
    buffer_.end(truncated);
    ended_ = true;
  }

  /// Runs checkTrace() over the buffered stream. Only valid after end();
  /// idempotent.
  const OracleResult& finish() {
    DVMC_ASSERT(ended_, "finish before the stream ended");
    if (!result_) result_ = checkTrace(*buffer_.trace(), opt_);
    return *result_;
  }

  /// The sink keeps the whole stream, so there is no window to leave.
  bool windowExceeded() const { return false; }
  /// Records buffered so far (the whole capture).
  std::size_t peakResidentRecords() const {
    return buffer_.trace()->records.size();
  }

 private:
  OracleOptions opt_;
  MemoryTraceSink buffer_;
  bool ended_ = false;
  std::optional<OracleResult> result_;
};

}  // namespace dvmc::verify
