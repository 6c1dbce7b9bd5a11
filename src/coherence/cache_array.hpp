// Set-associative cache data/tag array with MOSI state and an ECC model.
//
// One CacheArray backs each L1 and each L2. Each way has a compact entry,
// its tag and LRU stamp, kept apart from the line's state and data: find
// and victim read only the entries of one set (64 bytes for a 4-way set),
// so a lookup that misses touches no data. An invalid way holds
// the tag kNoTag. Validity lives only there: invalidate() and
// invalidateAll() clear it, install() sets it. The set count is a power of
// two, so the set index is a mask.
//
// Lines carry real data; the ECC model tracks injected bit flips per line
// in a side ledger, empty unless a fault was injected: a single pending
// flip is corrected on the next access (single-error-correcting code, as
// the paper requires on all cache lines for SafetyNet), while multi-bit
// flips are detected-but-uncorrectable and reported to the ErrorSink.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/data_block.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "obs/json.hpp"

namespace dvmc {

enum class MosiState : std::uint8_t { kI, kS, kO, kM };
const char* mosiName(MosiState s);

inline bool mosiCanRead(MosiState s) { return s != MosiState::kI; }
inline bool mosiCanWrite(MosiState s) { return s == MosiState::kM; }
inline bool mosiIsOwner(MosiState s) {
  return s == MosiState::kM || s == MosiState::kO;
}

/// A line's state and data. Its tag, validity and LRU stamp live in the
/// array's way entry (CacheArray::tag, CacheArray::valid).
struct CacheLine {
  MosiState state = MosiState::kI;
  DataBlock data;
};

struct CacheGeometry {
  std::size_t sets = 128;  // a power of two
  std::size_t ways = 4;
};

class CacheArray {
 public:
  explicit CacheArray(CacheGeometry geom);

  /// Finds the line holding `blk` (block-aligned address) or nullptr.
  CacheLine* find(Addr blk);
  const CacheLine* find(Addr blk) const;

  /// Chooses a victim way in blk's set: an invalid line if any, else the
  /// LRU line among those whose tag `evictable` accepts (lines with
  /// in-flight transactions must be skipped). Returns nullptr if every way
  /// is pinned. The returned line may hold a valid block that the caller
  /// must evict first.
  template <class Evictable>
  CacheLine* victim(Addr blk, Evictable&& evictable) {
    const std::size_t base = setBase(blk);
    const Way* set = &ways_[base];
    std::size_t best = geom_.ways;  // none yet
    for (std::size_t w = 0; w < geom_.ways; ++w) {
      if (set[w].tag == kNoTag) return &lines_[base + w];
      if (!evictable(set[w].tag)) continue;
      if (best == geom_.ways || set[w].lastUse < set[best].lastUse) best = w;
    }
    return best == geom_.ways ? nullptr : &lines_[base + best];
  }

  /// Installs `blk` into the given line (caller handled any eviction).
  void install(CacheLine& line, Addr blk, MosiState st, const DataBlock& d);

  /// Drops the line: find misses it and victim offers its way first.
  void invalidate(CacheLine& line);
  /// Drops every line (BER recovery).
  void invalidateAll();

  bool valid(const CacheLine& line) const {
    return ways_[index(line)].tag != kNoTag;
  }
  /// The block the line holds; meaningful only while it is valid.
  Addr tag(const CacheLine& line) const { return ways_[index(line)].tag; }

  /// Marks a line recently used and runs the ECC access check.
  /// Reports uncorrectable errors to `sink` (may be null).
  void touch(CacheLine& line, ErrorSink* sink, NodeId node, Cycle now);

  /// Fault-injection entry point: flip one bit of a random resident line.
  /// Returns the affected block address, or nullopt if the cache is empty.
  std::optional<Addr> injectBitFlip(std::uint64_t rand);
  /// Flips bit `bit` of the resident line holding `blk`, which the code can
  /// still repair while it is the line's only pending flip. Returns false
  /// when `blk` is not resident.
  bool injectBitFlip(Addr blk, std::size_t bit);

  /// Flips a MOSI state bit on a random resident line (escapes ECC, which
  /// covers data only). Returns affected block and new state.
  std::optional<std::pair<Addr, MosiState>> injectStateFlip(
      std::uint64_t rand);

  std::size_t numSets() const { return geom_.sets; }
  std::uint64_t eccCorrections() const { return eccCorrections_; }

  /// Forensics dump: valid-line occupancy and, when the focus block is
  /// resident, its MOSI state, data CRC-16, LRU stamp, and pending ECC
  /// flips — the cache-side evidence behind a coherence detection.
  void dumpForensics(Json& out, Addr focus) const;

 private:
  /// The tag of an invalid way: block addresses are 64-byte aligned, so
  /// no block address is odd.
  static constexpr Addr kNoTag = 1;

  struct Way {
    Addr tag = kNoTag;
    std::uint64_t lastUse = 0;
  };

  std::size_t setBase(Addr blk) const {
    return static_cast<std::size_t>((blk / kBlockSizeBytes) & setMask_) *
           geom_.ways;
  }
  std::size_t index(const CacheLine& line) const {
    return static_cast<std::size_t>(&line - lines_.data());
  }
  void flip(std::size_t i, std::size_t bit);

  CacheGeometry geom_;
  std::size_t setMask_;
  std::vector<Way> ways_;         // sets * ways, row-major by set
  std::vector<CacheLine> lines_;  // indexed like ways_
  // ECC ledger: line index -> bit indices of injected-but-unrepaired flips.
  FlatMap<std::size_t, std::vector<std::size_t>> flips_;
  std::uint64_t useCounter_ = 0;
  std::uint64_t eccCorrections_ = 0;
};

}  // namespace dvmc
