// A 64-byte coherence block holding real data.
//
// The simulator carries actual data values end to end (through caches,
// write buffers, network messages, and memory) so that the Uniprocessor
// Ordering checker can replay loads against real values and the Cache
// Coherence checker can hash block contents, exactly as the paper's
// hardware would.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace dvmc {

class DataBlock {
 public:
  DataBlock() { bytes_.fill(0); }

  /// Reads the word at byte `offset` within the block.
  std::uint64_t read(std::size_t offset) const {
    checkWordOffset(offset);
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + offset, kWordBytes);
    return v;
  }

  /// Writes the word at byte `offset` within the block.
  void write(std::size_t offset, std::uint64_t value) {
    checkWordOffset(offset);
    std::memcpy(bytes_.data() + offset, &value, kWordBytes);
  }

  /// Flips a single bit (used by the fault injector).
  void flipBit(std::size_t bitIndex) {
    DVMC_ASSERT(bitIndex < kBlockSizeBytes * 8, "bit index out of range");
    bytes_[bitIndex / 8] ^= static_cast<std::uint8_t>(1u << (bitIndex % 8));
  }

  const std::uint8_t* data() const { return bytes_.data(); }
  std::uint8_t* data() { return bytes_.data(); }

  bool operator==(const DataBlock& o) const { return bytes_ == o.bytes_; }
  bool operator!=(const DataBlock& o) const { return !(*this == o); }

 private:
  static void checkWordOffset(std::size_t offset) {
    DVMC_ASSERT(offset % kWordBytes == 0, "unaligned access");
    DVMC_ASSERT(offset < kBlockSizeBytes, "access crosses block");
  }

  std::array<std::uint8_t, kBlockSizeBytes> bytes_;
};

}  // namespace dvmc
