#include "coherence/memory_storage.hpp"

#include "common/assert.hpp"

namespace dvmc {

DataBlock MemoryStorage::initialPattern(Addr blk) {
  DataBlock d;
  if (blk < kZeroInitBoundary) return d;  // zeroed synchronization segment
  // SplitMix64-style mix of the block address per word: deterministic and
  // distinct across blocks, so stale-data bugs surface as value mismatches.
  for (std::size_t w = 0; w < kBlockSizeWords; ++w) {
    std::uint64_t z = blk + 0x9E3779B97F4A7C15ULL * (w + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    d.write(w * kWordBytes, z ^ (z >> 31));
  }
  return d;
}

DataBlock& MemoryStorage::materialize(Addr blk) {
  DVMC_ASSERT(blockAddr(blk) == blk, "memory access must be block aligned");
  auto it = blocks_.find(blk);
  if (it == blocks_.end()) {
    it = blocks_.emplace(blk, initialPattern(blk)).first;
  }
  return it->second;
}

const DataBlock& MemoryStorage::read(Addr blk, ErrorSink* sink, NodeId node,
                                     Cycle now) {
  DataBlock& d = materialize(blk);
  auto fit = flips_.find(blk);
  if (fit != flips_.end() && !fit->second.empty()) {
    if (fit->second.size() == 1) {
      d.flipBit(fit->second.front());
      ++eccCorrections_;
    } else if (sink != nullptr) {
      sink->report({CheckerKind::kEcc, now, node, blk,
                    "uncorrectable multi-bit memory error"});
    }
    flips_.erase(fit);
  }
  return d;
}

void MemoryStorage::write(Addr blk, const DataBlock& d) {
  materialize(blk) = d;
  flips_.erase(blk);  // rewrite regenerates the ECC code
}

bool MemoryStorage::injectBitFlip(Addr blk, std::size_t bit) {
  auto it = blocks_.find(blk);
  if (it == blocks_.end()) return false;
  it->second.flipBit(bit % (kBlockSizeBytes * 8));
  flips_[blk].push_back(bit % (kBlockSizeBytes * 8));
  return true;
}

}  // namespace dvmc
