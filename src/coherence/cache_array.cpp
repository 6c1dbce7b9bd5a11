#include "coherence/cache_array.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/crc16.hpp"

namespace dvmc {

const char* mosiName(MosiState s) {
  switch (s) {
    case MosiState::kI: return "I";
    case MosiState::kS: return "S";
    case MosiState::kO: return "O";
    case MosiState::kM: return "M";
  }
  return "?";
}

CacheArray::CacheArray(CacheGeometry geom) : geom_(geom) {
  DVMC_ASSERT(geom_.sets > 0 && geom_.ways > 0, "bad cache geometry");
  lines_.resize(geom_.sets * geom_.ways);
}

CacheLine* CacheArray::find(Addr blk) {
  DVMC_ASSERT(blockAddr(blk) == blk, "find expects a block address");
  const std::size_t base = setIndex(blk) * geom_.ways;
  for (std::size_t w = 0; w < geom_.ways; ++w) {
    CacheLine& line = lines_[base + w];
    if (line.valid && line.tag == blk) return &line;
  }
  return nullptr;
}

const CacheLine* CacheArray::find(Addr blk) const {
  return const_cast<CacheArray*>(this)->find(blk);
}

CacheLine* CacheArray::victim(
    Addr blk, const std::function<bool(const CacheLine&)>& evictable) {
  const std::size_t base = setIndex(blk) * geom_.ways;
  CacheLine* best = nullptr;
  for (std::size_t w = 0; w < geom_.ways; ++w) {
    CacheLine& line = lines_[base + w];
    if (!line.valid) return &line;
    if (!evictable(line)) continue;
    if (best == nullptr || line.lastUse < best->lastUse) best = &line;
  }
  return best;
}

void CacheArray::install(CacheLine& line, Addr blk, MosiState st,
                         const DataBlock& d) {
  DVMC_ASSERT(blockAddr(blk) == blk, "install expects a block address");
  line.valid = true;
  line.tag = blk;
  line.state = st;
  line.data = d;
  line.lastUse = ++useCounter_;
  line.pendingFlips.clear();
}

void CacheArray::touch(CacheLine& line, ErrorSink* sink, NodeId node,
                       Cycle now) {
  line.lastUse = ++useCounter_;
  if (line.pendingFlips.empty()) return;
  if (line.pendingFlips.size() == 1) {
    // Single-bit error: SEC code corrects it in place.
    line.data.flipBit(line.pendingFlips.front());
    line.pendingFlips.clear();
    ++eccCorrections_;
  } else {
    // Multi-bit error: detected but uncorrectable.
    if (sink != nullptr) {
      sink->report({CheckerKind::kEcc, now, node, line.tag,
                    "uncorrectable multi-bit cache error"});
    }
    line.pendingFlips.clear();  // report once
  }
}

std::optional<Addr> CacheArray::injectBitFlip(std::uint64_t rand) {
  // Prefer recently used lines: a corrupted-but-never-touched line is a
  // latent fault that vanishes on eviction, which makes for a useless
  // injection experiment.
  CacheLine* target = nullptr;
  for (auto& line : lines_) {
    if (!line.valid) continue;
    if (target == nullptr || line.lastUse > target->lastUse) target = &line;
  }
  if (target == nullptr) return std::nullopt;
  CacheLine& line = *target;
  const std::size_t bit = rand % (kBlockSizeBytes * 8);
  line.data.flipBit(bit);
  line.pendingFlips.push_back(bit);  // the code can still repair this
  return line.tag;
}

std::optional<std::pair<Addr, MosiState>> CacheArray::injectStateFlip(
    std::uint64_t rand) {
  std::vector<CacheLine*> candidates;
  for (auto& line : lines_) {
    if (line.valid && line.state != MosiState::kI) candidates.push_back(&line);
  }
  if (candidates.empty()) return std::nullopt;
  CacheLine& line = *candidates[rand % candidates.size()];
  // Promote read-only states to M (grants illegal write permission) or
  // demote M to S (write permission lost without protocol action).
  line.state =
      (line.state == MosiState::kM) ? MosiState::kS : MosiState::kM;
  return std::make_pair(line.tag, line.state);
}

void CacheArray::forEachValid(const std::function<void(CacheLine&)>& fn) {
  for (auto& line : lines_) {
    if (line.valid) fn(line);
  }
}

void CacheArray::dumpForensics(Json& out, Addr focus) const {
  std::size_t valid = 0;
  const CacheLine* hit = nullptr;
  for (const auto& line : lines_) {
    if (!line.valid) continue;
    ++valid;
    if (line.tag == blockAddr(focus)) hit = &line;
  }
  out.set("sets", Json::num(static_cast<std::uint64_t>(geom_.sets)))
      .set("ways", Json::num(static_cast<std::uint64_t>(geom_.ways)))
      .set("validLines", Json::num(static_cast<std::uint64_t>(valid)))
      .set("eccCorrections", Json::num(eccCorrections_))
      .set("focusResident", Json::boolean(hit != nullptr));
  if (hit != nullptr) {
    Json line = Json::object();
    line.set("state", Json::str(mosiName(hit->state)))
        .set("dataCrc16", Json::num(std::uint64_t{hashBlock(hit->data)}))
        .set("lastUse", Json::num(hit->lastUse))
        .set("pendingEccFlips",
             Json::num(static_cast<std::uint64_t>(hit->pendingFlips.size())));
    out.set("focusLine", std::move(line));
  }
}

}  // namespace dvmc
