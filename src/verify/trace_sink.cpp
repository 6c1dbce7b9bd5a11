#include "verify/trace_sink.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace dvmc::verify {

namespace {

void putU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = std::uint8_t(v >> (8 * i));
}
void putU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = std::uint8_t(v >> (8 * i));
}
std::uint32_t getU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}
std::uint64_t getU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

void encodeFileHeader(std::uint8_t out[CapturedTrace::kHeaderBytes],
                      const TraceHeader& h, std::uint32_t version,
                      bool truncated, std::uint64_t count) {
  std::memcpy(out, kTraceMagic, 8);
  putU32(out + 8, version);
  putU32(out + 12, h.numCores);
  out[16] = h.declaredModel;
  out[17] = h.protocol;
  out[18] = truncated ? 1 : 0;
  out[19] = 0;
  putU32(out + 20, 0);
  putU64(out + 24, h.seed);
  putU64(out + 32, count);
  putU64(out + 40, 0);  // reserved
}

}  // namespace

// --- MemoryTraceSink -------------------------------------------------------

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

// --- ChunkedTraceFileSink --------------------------------------------------

ChunkedTraceFileSink::ChunkedTraceFileSink(std::string path)
    : path_(std::move(path)) {}

ChunkedTraceFileSink::~ChunkedTraceFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void ChunkedTraceFileSink::setError(const std::string& msg) {
  if (error_.empty()) error_ = msg;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void ChunkedTraceFileSink::begin(const TraceHeader& h) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    setError("cannot open " + path_ + " for writing");
    return;
  }
  std::uint8_t hdr[CapturedTrace::kHeaderBytes];
  // Record count and truncated flag are patched in end(); a reader of an
  // unfinished file sees count 0 and fails the size check cleanly.
  encodeFileHeader(hdr, h, std::uint32_t(kTraceChunkedVersion),
                   /*truncated=*/false, /*count=*/0);
  if (std::fwrite(hdr, 1, sizeof hdr, file_) != sizeof hdr) {
    setError("short write to " + path_);
  }
}

void ChunkedTraceFileSink::chunk(TraceChunk&& c) {
  if (file_ == nullptr || c.records.empty()) return;
  std::uint8_t hdr[kChunkHeaderBytes];
  std::memcpy(hdr, kChunkMagic, 4);
  putU32(hdr + 4, std::uint32_t(c.records.size()));
  putU64(hdr + 8, c.firstIndex);
  putU64(hdr + 16, c.closeCycle);
  if (std::fwrite(hdr, 1, sizeof hdr, file_) != sizeof hdr) {
    setError("short write to " + path_);
    return;
  }
  std::vector<std::uint8_t> buf(c.records.size() *
                                CapturedTrace::kRecordBytes);
  for (std::size_t i = 0; i < c.records.size(); ++i) {
    encodeTraceRecord(c.records[i], buf.data() + i * CapturedTrace::kRecordBytes);
  }
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    setError("short write to " + path_);
    return;
  }
  count_ += c.records.size();
}

void ChunkedTraceFileSink::end(bool truncated) {
  if (ended_) return;
  ended_ = true;
  if (file_ == nullptr) return;
  // Patch the record count and truncated flag into the header.
  std::uint8_t cnt[8];
  putU64(cnt, count_);
  const std::uint8_t trunc = truncated ? 1 : 0;
  if (std::fseek(file_, 18, SEEK_SET) != 0 ||
      std::fwrite(&trunc, 1, 1, file_) != 1 ||
      std::fseek(file_, 32, SEEK_SET) != 0 ||
      std::fwrite(cnt, 1, sizeof cnt, file_) != sizeof cnt) {
    setError("cannot patch header of " + path_);
    return;
  }
  if (std::fclose(file_) != 0) setError("cannot close " + path_);
  file_ = nullptr;
}

// --- file streaming --------------------------------------------------------

namespace {

struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

bool failAt(std::string* err, std::size_t off, const char* what) {
  if (err != nullptr) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "byte %zu: %s", off, what);
    *err = buf;
  }
  return false;
}

/// Reads `n` records into `out` (appending), decoding and validating each.
bool readRecords(std::FILE* f, std::uint64_t firstIndex, std::uint32_t n,
                 std::vector<TraceRecord>* out, std::size_t byteBase,
                 std::string* err) {
  std::vector<std::uint8_t> buf(std::size_t{n} * CapturedTrace::kRecordBytes);
  if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
    return failAt(err, byteBase, "short read (file smaller than declared)");
  }
  out->reserve(out->size() + n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TraceRecord r;
    if (!decodeTraceRecord(buf.data() + std::size_t{i} *
                                            CapturedTrace::kRecordBytes,
                           &r)) {
      return failAt(err, byteBase + i * CapturedTrace::kRecordBytes,
                    "bad op code");
    }
    out->push_back(r);
  }
  (void)firstIndex;
  return true;
}

}  // namespace

bool streamTraceFile(const std::string& path, TraceSink& sink,
                     std::string* err, std::size_t chunkRecords) {
  if (chunkRecords == 0) chunkRecords = 4096;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  FileCloser closer{f};

  std::uint8_t hdr[CapturedTrace::kHeaderBytes];
  if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr) {
    return failAt(err, 0, "short header");
  }
  if (std::memcmp(hdr, kTraceMagic, 8) != 0) {
    return failAt(err, 0, "bad magic (not a dvmc-trace file)");
  }
  const std::uint32_t version = getU32(hdr + 8);
  if (version != std::uint32_t(kTraceSchemaVersion) &&
      version != std::uint32_t(kTraceChunkedVersion)) {
    return failAt(err, 8, "unsupported dvmc-trace version");
  }
  TraceHeader h;
  h.numCores = getU32(hdr + 12);
  h.declaredModel = hdr[16];
  h.protocol = hdr[17];
  const bool truncated = hdr[18] != 0;
  h.seed = getU64(hdr + 24);
  const std::uint64_t count = getU64(hdr + 32);
  if (h.numCores == 0 || h.numCores > 256) {
    return failAt(err, 12, "implausible core count");
  }
  if (h.declaredModel > std::uint8_t(ConsistencyModel::kRMO)) {
    return failAt(err, 16, "bad declared model");
  }

  sink.begin(h);
  std::uint64_t seen = 0;
  if (version == std::uint32_t(kTraceSchemaVersion)) {
    // v1: one flat record array; re-chunk it.
    while (seen < count) {
      const std::uint32_t n = std::uint32_t(
          std::min<std::uint64_t>(chunkRecords, count - seen));
      TraceChunk c;
      c.firstIndex = seen;
      if (!readRecords(f, seen, n, &c.records,
                       CapturedTrace::byteOffset(std::size_t(seen)), err)) {
        return false;
      }
      for (const TraceRecord& r : c.records) {
        if (r.performed() && r.performCycle > c.closeCycle) {
          c.closeCycle = r.performCycle;
        }
      }
      seen += n;
      sink.chunk(std::move(c));
    }
    if (std::fgetc(f) != EOF) {
      return failAt(err, std::size_t(CapturedTrace::byteOffset(
                        std::size_t(count))),
                    "record count disagrees with file size");
    }
  } else {
    // v2: chunk headers carry their own geometry.
    std::size_t off = CapturedTrace::kHeaderBytes;
    while (seen < count) {
      std::uint8_t ch[kChunkHeaderBytes];
      if (std::fread(ch, 1, sizeof ch, f) != sizeof ch) {
        return failAt(err, off, "short chunk header");
      }
      if (std::memcmp(ch, kChunkMagic, 4) != 0) {
        return failAt(err, off, "bad chunk magic");
      }
      const std::uint32_t n = getU32(ch + 4);
      TraceChunk c;
      c.firstIndex = getU64(ch + 8);
      c.closeCycle = getU64(ch + 16);
      if (n == 0 || c.firstIndex != seen || std::uint64_t(n) > count - seen) {
        return failAt(err, off, "chunk geometry disagrees with header");
      }
      if (!readRecords(f, seen, n, &c.records, off + kChunkHeaderBytes,
                       err)) {
        return false;
      }
      off += kChunkHeaderBytes + std::size_t{n} * CapturedTrace::kRecordBytes;
      seen += n;
      sink.chunk(std::move(c));
    }
    if (std::fgetc(f) != EOF) {
      return failAt(err, off, "trailing bytes after the last chunk");
    }
  }
  sink.end(truncated);
  return true;
}

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
    for (const TraceRecord& r : c.records) {
      if (r.performed() && r.performCycle > c.closeCycle) {
        c.closeCycle = r.performCycle;
      }
    }
    sink.chunk(std::move(c));
  }
  sink.end(t.truncated);
}

}  // namespace dvmc::verify
