#include "verify/trace.hpp"

#include <cstdio>
#include <cstring>

#include "common/assert.hpp"

namespace dvmc::verify {
namespace {

void putU32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(std::uint8_t(v >> (8 * i)));
}
void putU64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(std::uint8_t(v >> (8 * i)));
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
void putU64At(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = std::uint8_t(v >> (8 * i));
}

// Fixed 48-byte little-endian record layout.
void encodeTraceRecord(const TraceRecord& r, std::uint8_t* out) {
  out[0] = std::uint8_t(r.op);
  out[1] = r.node;
  out[2] = r.model;
  out[3] = r.flags;
  out[4] = r.membarMask;
  out[5] = 0;
  out[6] = 0;
  out[7] = 0;
  putU64At(out + 8, r.seq);
  putU64At(out + 16, r.addr);
  putU64At(out + 24, r.value);
  putU64At(out + 32, r.readValue);
  putU64At(out + 40, r.performCycle);
}

// Returns false on an invalid op code (the only per-record corruption a
// fixed layout can detect).
bool decodeTraceRecord(const std::uint8_t* p, TraceRecord* r) {
  if (p[0] > std::uint8_t(TraceOp::kMembar)) return false;
  r->op = TraceOp(p[0]);
  r->node = p[1];
  r->model = p[2];
  r->flags = p[3];
  r->membarMask = p[4];
  r->seq = getU64(p + 8);
  r->addr = getU64(p + 16);
  r->value = getU64(p + 24);
  r->readValue = getU64(p + 32);
  r->performCycle = getU64(p + 40);
  return true;
}

}  // namespace

const char* traceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kLoad: return "load";
    case TraceOp::kStore: return "store";
    case TraceOp::kSwap: return "swap";
    case TraceOp::kCas: return "cas";
    case TraceOp::kMembar: return "membar";
  }
  return "?";
}

std::vector<std::uint8_t> CapturedTrace::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + records.size() * kRecordBytes);
  for (char c : kTraceMagic) out.push_back(std::uint8_t(c));
  putU32(out, std::uint32_t(kTraceSchemaVersion));
  putU32(out, numCores);
  out.push_back(declaredModel);
  out.push_back(protocol);
  out.push_back(truncated ? 1 : 0);
  out.push_back(0);
  putU32(out, 0);
  putU64(out, seed);
  putU64(out, records.size());
  putU64(out, 0);  // reserved
  DVMC_ASSERT(out.size() == kHeaderBytes, "trace header layout");
  out.resize(kHeaderBytes + records.size() * kRecordBytes);
  for (std::size_t i = 0; i < records.size(); ++i) {
    encodeTraceRecord(records[i], out.data() + byteOffset(i));
  }
  return out;
}

bool CapturedTrace::parse(const std::uint8_t* data, std::size_t size,
                          CapturedTrace* out, std::string* err) {
  auto fail = [&](std::size_t off, const char* what) {
    if (err) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "byte %zu: %s", off, what);
      *err = buf;
    }
    return false;
  };
  if (size < kHeaderBytes) return fail(size, "short header");
  if (std::memcmp(data, kTraceMagic, 8) != 0) {
    return fail(0, "bad magic (not a dvmc-trace file)");
  }
  const std::uint32_t version = getU32(data + 8);
  if (version != std::uint32_t(kTraceSchemaVersion)) {
    return fail(8, "unsupported dvmc-trace version");
  }
  out->numCores = getU32(data + 12);
  out->declaredModel = data[16];
  out->protocol = data[17];
  out->truncated = data[18] != 0;
  out->seed = getU64(data + 24);
  const std::uint64_t count = getU64(data + 32);
  if (out->numCores == 0 || out->numCores > 256) {
    return fail(12, "implausible core count");
  }
  if (out->declaredModel > std::uint8_t(ConsistencyModel::kRMO)) {
    return fail(16, "bad declared model");
  }
  if (size != kHeaderBytes + count * kRecordBytes) {
    return fail(32, "record count disagrees with file size");
  }
  out->records.clear();
  out->records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t* p = data + byteOffset(i);
    TraceRecord r;
    if (!decodeTraceRecord(p, &r)) {
      return fail(byteOffset(i), "bad op code");
    }
    out->records.push_back(r);
  }
  return true;
}

bool writeTraceFile(const std::string& path, const CapturedTrace& t,
                    std::string* err) {
  const std::vector<std::uint8_t> bytes = t.serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    if (err) *err = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                           bytes.size();
  std::fclose(f);
  if (!ok && err) *err = "short write to " + path;
  return ok;
}

bool readTraceFile(const std::string& path, CapturedTrace* t,
                   std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return CapturedTrace::parse(bytes.data(), bytes.size(), t, err);
}

// --- TraceRecorder ---------------------------------------------------------

TraceRecorder::TraceRecorder(std::uint32_t numCores,
                             ConsistencyModel declared, std::uint8_t protocol,
                             std::uint64_t seed, std::size_t limit)
    : trace_(std::make_shared<CapturedTrace>()),
      pending_(numCores),
      limit_(limit) {
  trace_->numCores = numCores;
  trace_->declaredModel = std::uint8_t(declared);
  trace_->protocol = protocol;
  trace_->seed = seed;
}

void TraceRecorder::onCommit(const TraceRecord& r) {
  std::vector<TraceRecord>& records = trace_->records;
  if (records.size() >= limit_) {
    trace_->truncated = true;
    return;
  }
  if (r.writes() && !r.performed()) {
    pending_[r.node].emplace(r.seq, records.size());
  }
  records.push_back(r);
}

void TraceRecorder::patchPending(NodeId node, SeqNum seq, Cycle now,
                                 std::uint8_t flag) {
  auto it = pending_[node].find(seq);
  if (it == pending_[node].end()) return;  // record was dropped at the limit
  TraceRecord& r = trace_->records[it->second];
  pending_[node].erase(seq);
  r.performCycle = now;
  r.flags |= flag;
}

void TraceRecorder::storePerformed(NodeId node, SeqNum seq, Cycle now) {
  patchPending(node, seq, now, kFlagPerformed);
}

void TraceRecorder::storeSuperseded(NodeId node, SeqNum seq, Cycle now) {
  patchPending(node, seq, now, kFlagSuperseded);
}

}  // namespace dvmc::verify
