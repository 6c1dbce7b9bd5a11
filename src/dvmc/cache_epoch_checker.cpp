#include "dvmc/cache_epoch_checker.hpp"

#include "common/assert.hpp"
#include "common/crc16.hpp"
#include "obs/trace.hpp"

namespace dvmc {

CacheEpochChecker::CacheEpochChecker(Simulator& sim, NodeId node,
                                     const DvmcConfig& cfg, ErrorSink* sink,
                                     SendFn sendInform)
    : sim_(sim), node_(node), cfg_(cfg), sink_(sink), send_(std::move(sendInform)) {
  scrubFifo_.reserve(kScrubFifoCapacity);
}

void CacheEpochChecker::onEpochBegin(Addr blk, bool readWrite,
                                     const DataBlock& data,
                                     std::uint64_t ltime) {
  if (stopped_) return;
  lastLtime_ = std::max(lastLtime_, ltime);
  auto [it, inserted] = cet_.try_emplace(blk);
  if (!inserted) {
    // An epoch beginning while one is open means the controller skipped an
    // end transition — only possible under faults. Report and restart.
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                     "epoch begin while epoch open"});
    }
    cDoubleBegin_.inc();
  }
  CetEntry& e = it->second;
  e.readWrite = readWrite;
  e.begin16 = ltimeTruncate(ltime);
  e.beginWide = ltime;
  e.beginHash = hashBlock(data);
  e.openAnnounced = false;
  e.epochId = nextEpochId_++;
  e.beginCycle = sim_.now();
  (readWrite ? cBeginRW_ : cBeginRO_).inc();
  gOpenEpochs_.set(cet_.size());

  // Wraparound scrubbing: remember to re-check this epoch before its
  // timestamp can wrap. Entries are popped by the periodic sweep when the
  // epoch has ended or aged into wraparound danger — never force-announced
  // early, which would flood the MET with open/closed informs for young
  // epochs. The simulator models the occupancy beyond the configured
  // hardware capacity as a statistic (a real implementation sizes the FIFO
  // to the cache or walks the CET directly).
  const bool fifoWasEmpty = scrubFifo_.empty();
  scrubFifo_.push_back(ScrubRecord{blk, e.epochId, ltime});
  if (scrubFifo_.size() > kScrubFifoCapacity) {
    cScrubOverflow_.inc();
  }
  if (fifoWasEmpty) {
    sim_.schedule(kScrubCheckPeriod, [this] { scrubSweep(); });
  }
}

void CacheEpochChecker::scrubSweep() {
  if (stopped_) return;
  // Pop records whose epoch already ended; announce heads that have aged
  // into wraparound danger.
  while (!scrubFifo_.empty()) {
    const ScrubRecord& head = scrubFifo_.front();
    auto it = cet_.find(head.blk);
    if (it == cet_.end() || it->second.epochId != head.epochId) {
      scrubFifo_.pop_front();
      continue;
    }
    if (lastLtime_ - head.beginWide >= cfg_.scrubAgeTicks) {
      if (!it->second.openAnnounced) announceOpen(head.blk, it->second);
      scrubFifo_.pop_front();
      continue;
    }
    break;  // head (and therefore everything behind it) is still young
  }
  if (!scrubFifo_.empty()) {
    sim_.schedule(kScrubCheckPeriod, [this] { scrubSweep(); });
  }
}

void CacheEpochChecker::announceOpen(Addr blk, CetEntry& e) {
  e.openAnnounced = true;
  Message m;
  m.type = MsgType::kInformOpenEpoch;
  m.src = node_;
  m.addr = blk;
  m.epoch.readWrite = e.readWrite;
  m.epoch.begin = e.begin16;
  m.epoch.beginHash = e.beginHash;
  send_(std::move(m));
  cInformOpen_.inc();
  if (auto* t = sim_.tracer()) {
    t->instant(sim_.now(), TraceKind::kInform, "cet.informOpen", node_, blk,
               e.epochId);
  }
}

void CacheEpochChecker::onEpochEnd(Addr blk, const DataBlock& data,
                                   std::uint64_t ltime) {
  if (stopped_) return;
  lastLtime_ = std::max(lastLtime_, ltime);
  auto it = cet_.find(blk);
  if (it == cet_.end()) {
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                     "epoch end without open epoch"});
    }
    cEndWithoutBegin_.inc();
    return;
  }
  CetEntry& e = it->second;
  Message m;
  m.src = node_;
  m.addr = blk;
  if (e.openAnnounced) {
    m.type = MsgType::kInformClosedEpoch;
    m.epoch.readWrite = e.readWrite;
    m.epoch.end = ltimeTruncate(ltime);
    cInformClosed_.inc();
  } else {
    m.type = MsgType::kInformEpoch;
    m.epoch.readWrite = e.readWrite;
    m.epoch.begin = e.begin16;
    m.epoch.end = ltimeTruncate(ltime);
    m.epoch.beginHash = e.beginHash;
    // For Read-Only epochs the data cannot have changed; the paper omits
    // the second checksum, so we replicate the begin hash on the wire.
    m.epoch.endHash = e.readWrite ? hashBlock(data) : e.beginHash;
    cInformEpoch_.inc();
  }
  if (auto* t = sim_.tracer()) {
    t->span(e.beginCycle, sim_.now(), TraceKind::kEpoch,
            e.readWrite ? "cet.epochRW" : "cet.epochRO", node_, blk,
            e.epochId);
  }
  cet_.erase(it);
  gOpenEpochs_.set(cet_.size());
  send_(std::move(m));
}

void CacheEpochChecker::onPerformAccess(Addr blk, bool isWrite) {
  if (stopped_) return;
  auto it = cet_.find(blk);
  if (it == cet_.end()) {
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                     isWrite ? "store performed outside any epoch"
                             : "load performed outside any epoch"});
    }
    cAccessOutsideEpoch_.inc();
    return;
  }
  if (isWrite && !it->second.readWrite) {
    if (sink_ != nullptr) {
      sink_->report({CheckerKind::kCacheCoherence, sim_.now(), node_, blk,
                     "store performed in Read-Only epoch"});
    }
    cWriteInRO_.inc();
  }
  cAccessChecks_.inc();
}

void CacheEpochChecker::flush(std::uint64_t ltime) {
  // Close every open epoch with its current (unhashable) state: callers
  // flush through the controller, which supplies data; here we only close
  // announced bookkeeping. Used at end-of-run drain in tests/benches.
  std::vector<Addr> blocks;
  blocks.reserve(cet_.size());
  for (const auto& [blk, e] : cet_) blocks.push_back(blk);
  // Canonical inform order: the CET is an open-addressing table whose
  // iteration order depends on insertion history, so sort the drain by
  // address to keep the emitted message sequence deterministic.
  std::sort(blocks.begin(), blocks.end());
  for (Addr blk : blocks) {
    auto it = cet_.find(blk);
    CetEntry& e = it->second;
    Message m;
    m.src = node_;
    m.addr = blk;
    if (e.openAnnounced) {
      m.type = MsgType::kInformClosedEpoch;
      m.epoch.readWrite = e.readWrite;
      m.epoch.end = ltimeTruncate(ltime);
    } else {
      m.type = MsgType::kInformEpoch;
      m.epoch.readWrite = e.readWrite;
      m.epoch.begin = e.begin16;
      m.epoch.end = ltimeTruncate(ltime);
      m.epoch.beginHash = e.beginHash;
      // No data available at a forced drain; RW epochs flushed this way
      // lose end-hash coverage, which the MET is told about explicitly.
      m.epoch.endHash = e.beginHash;
      m.epoch.endHashValid = !e.readWrite;
    }
    cet_.erase(it);
    send_(std::move(m));
  }
  scrubFifo_.clear();
  gOpenEpochs_.set(0);
  stopped_ = true;
}

bool CacheEpochChecker::injectEntryCorruption(std::uint64_t rand) {
  if (cet_.empty()) return false;
  // Modeled as a CET array fault touching a span of entries: a single
  // corrupted entry might belong to an epoch that never ends within the
  // observation window, so a realistic array-level fault (row/driver)
  // corrupts several.
  std::size_t start = rand % cet_.size();
  auto it = cet_.begin();
  std::advance(it, static_cast<long>(start));
  std::size_t corrupted = 0;
  for (; it != cet_.end() && corrupted < 32; ++it, ++corrupted) {
    it->second.beginHash ^= static_cast<std::uint16_t>(
        1u << ((rand >> 8) % 16));
  }
  cInjectedCorruption_.inc(corrupted);
  return corrupted > 0;
}

void CacheEpochChecker::reset() {
  cet_.clear();
  scrubFifo_.clear();
  stopped_ = false;
  gOpenEpochs_.set(0);
}

void CacheEpochChecker::dumpForensics(Json& out, Addr focus) const {
  out.set("openEpochs", Json::num(static_cast<std::uint64_t>(cet_.size())))
      .set("scrubFifoDepth",
           Json::num(static_cast<std::uint64_t>(scrubFifo_.size())))
      .set("lastLtime", Json::num(lastLtime_));
  const Addr blk = blockAddr(focus);
  auto it = cet_.find(blk);
  out.set("focusResident", Json::boolean(it != cet_.end()));
  if (it == cet_.end()) return;
  const CetEntry& e = it->second;
  Json row = Json::object();
  row.set("type", Json::str(e.readWrite ? "RW" : "RO"))
      .set("begin16", Json::num(std::uint64_t{e.begin16}))
      .set("beginWide", Json::num(e.beginWide))
      .set("beginHash", Json::num(std::uint64_t{e.beginHash}))
      .set("openAnnounced", Json::boolean(e.openAnnounced))
      .set("epochId", Json::num(e.epochId))
      .set("beginCycle", Json::num(e.beginCycle));
  out.set("focusEpoch", std::move(row));
}

}  // namespace dvmc
