#include "verify/trace_sink.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dvmc::verify {

MemoryTraceSink::MemoryTraceSink()
    : trace_(std::make_shared<CapturedTrace>()) {}

void MemoryTraceSink::begin(const TraceHeader& h) {
  trace_->declaredModel = h.declaredModel;
  trace_->protocol = h.protocol;
  trace_->numCores = h.numCores;
  trace_->seed = h.seed;
}

void MemoryTraceSink::chunk(TraceChunk&& c) {
  DVMC_ASSERT(c.firstIndex == trace_->records.size(),
              "trace chunks must arrive in order");
  trace_->records.insert(trace_->records.end(), c.records.begin(),
                         c.records.end());
}

void MemoryTraceSink::end(bool truncated) { trace_->truncated = truncated; }

void streamCapturedTrace(const CapturedTrace& t, TraceSink& sink,
                         std::size_t chunkRecords) {
  if (chunkRecords == 0) chunkRecords = 4096;
  TraceHeader h;
  h.declaredModel = t.declaredModel;
  h.protocol = t.protocol;
  h.numCores = t.numCores;
  h.seed = t.seed;
  sink.begin(h);
  for (std::size_t i = 0; i < t.records.size(); i += chunkRecords) {
    TraceChunk c;
    c.firstIndex = i;
    const std::size_t n = std::min(chunkRecords, t.records.size() - i);
    c.records.assign(t.records.begin() + std::ptrdiff_t(i),
                     t.records.begin() + std::ptrdiff_t(i + n));
    sink.chunk(std::move(c));
  }
  sink.end(t.truncated);
}

}  // namespace dvmc::verify
