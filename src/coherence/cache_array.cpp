#include "coherence/cache_array.hpp"

#include <bit>

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

CacheArray::CacheArray(CacheGeometry geom)
    : geom_(geom),
      setMask_(geom.sets - 1),
      ways_(geom.sets * geom.ways),
      lines_(geom.sets * geom.ways) {
  DVMC_ASSERT(geom_.sets > 0 && geom_.ways > 0, "bad cache geometry");
  DVMC_ASSERT(std::has_single_bit(geom_.sets),
              "the cache set count must be a power of two");
}

CacheLine* CacheArray::find(Addr blk) {
  DVMC_ASSERT(blockAddr(blk) == blk, "find expects a block address");
  // An invalid way's tag is odd, so it never equals a block address.
  const std::size_t base = setBase(blk);
  for (std::size_t w = 0; w < geom_.ways; ++w) {
    if (ways_[base + w].tag == blk) return &lines_[base + w];
  }
  return nullptr;
}

const CacheLine* CacheArray::find(Addr blk) const {
  return const_cast<CacheArray*>(this)->find(blk);
}

void CacheArray::install(CacheLine& line, Addr blk, MosiState st,
                         const DataBlock& d) {
  DVMC_ASSERT(blockAddr(blk) == blk, "install expects a block address");
  const std::size_t i = index(line);
  ways_[i] = Way{blk, ++useCounter_};
  line.state = st;
  line.data = d;
  if (!flips_.empty()) flips_.erase(i);
}

void CacheArray::invalidate(CacheLine& line) {
  const std::size_t i = index(line);
  ways_[i].tag = kNoTag;
  line.state = MosiState::kI;
  if (!flips_.empty()) flips_.erase(i);
}

void CacheArray::invalidateAll() {
  for (std::size_t i = 0; i < ways_.size(); ++i) {
    ways_[i].tag = kNoTag;
    lines_[i].state = MosiState::kI;
  }
  flips_.clear();
}

void CacheArray::touch(CacheLine& line, ErrorSink* sink, NodeId node,
                       Cycle now) {
  const std::size_t i = index(line);
  ways_[i].lastUse = ++useCounter_;
  if (flips_.empty()) return;
  auto it = flips_.find(i);
  if (it == flips_.end()) return;
  if (it->second.size() == 1) {
    // Single-bit error: SEC code corrects it in place.
    line.data.flipBit(it->second.front());
    ++eccCorrections_;
  } else if (sink != nullptr) {
    // Multi-bit error: detected but uncorrectable.
    sink->report({CheckerKind::kEcc, now, node, ways_[i].tag,
                  "uncorrectable multi-bit cache error"});
  }
  flips_.erase(it);  // corrected, or reported once
}

void CacheArray::flip(std::size_t i, std::size_t bit) {
  lines_[i].data.flipBit(bit);
  flips_[i].push_back(bit);
}

std::optional<Addr> CacheArray::injectBitFlip(std::uint64_t rand) {
  // Prefer recently used lines: a corrupted-but-never-touched line is a
  // latent fault that vanishes on eviction, which makes for a useless
  // injection experiment.
  const Way* target = nullptr;
  for (const Way& w : ways_) {
    if (w.tag == kNoTag) continue;
    if (target == nullptr || w.lastUse > target->lastUse) target = &w;
  }
  if (target == nullptr) return std::nullopt;
  flip(static_cast<std::size_t>(target - ways_.data()),
       rand % (kBlockSizeBytes * 8));  // the code can still repair this
  return target->tag;
}

bool CacheArray::injectBitFlip(Addr blk, std::size_t bit) {
  const CacheLine* line = find(blk);
  if (line == nullptr) return false;
  flip(index(*line), bit);
  return true;
}

std::optional<std::pair<Addr, MosiState>> CacheArray::injectStateFlip(
    std::uint64_t rand) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    if (ways_[i].tag != kNoTag && lines_[i].state != MosiState::kI) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return std::nullopt;
  const std::size_t i = candidates[rand % candidates.size()];
  CacheLine& line = lines_[i];
  // Promote read-only states to M (grants illegal write permission) or
  // demote M to S (write permission lost without protocol action).
  line.state =
      (line.state == MosiState::kM) ? MosiState::kS : MosiState::kM;
  return std::make_pair(ways_[i].tag, line.state);
}

void CacheArray::dumpForensics(Json& out, Addr focus) const {
  std::size_t valid = 0;
  for (const Way& w : ways_) valid += w.tag != kNoTag ? 1 : 0;
  const CacheLine* hit = find(blockAddr(focus));
  out.set("sets", Json::num(static_cast<std::uint64_t>(geom_.sets)))
      .set("ways", Json::num(static_cast<std::uint64_t>(geom_.ways)))
      .set("validLines", Json::num(static_cast<std::uint64_t>(valid)))
      .set("eccCorrections", Json::num(eccCorrections_))
      .set("focusResident", Json::boolean(hit != nullptr));
  if (hit != nullptr) {
    const std::size_t i = index(*hit);
    const auto flips = flips_.find(i);
    Json line = Json::object();
    line.set("state", Json::str(mosiName(hit->state)))
        .set("dataCrc16", Json::num(std::uint64_t{hashBlock(hit->data)}))
        .set("lastUse", Json::num(ways_[i].lastUse))
        .set("pendingEccFlips",
             Json::num(static_cast<std::uint64_t>(
                 flips == flips_.end() ? 0 : flips->second.size())));
    out.set("focusLine", std::move(line));
  }
}

}  // namespace dvmc
