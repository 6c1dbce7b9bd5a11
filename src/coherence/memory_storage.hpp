// Main-memory backing store for one home node.
//
// Blocks are materialized on demand with a deterministic address-derived
// fill pattern so that a load of never-written memory returns a defined,
// reproducible value. Memory is ECC protected like the caches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/data_block.hpp"
#include "common/error_sink.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace dvmc {

class MemoryStorage {
 public:
  /// Read access; materializes the block if needed and runs ECC checks.
  const DataBlock& read(Addr blk, ErrorSink* sink, NodeId node, Cycle now);

  /// Writes a full block (writeback from an owner).
  void write(Addr blk, const DataBlock& d);

  /// Fault injection: flip a bit of a materialized block.
  bool injectBitFlip(Addr blk, std::size_t bit);

  /// Full snapshot / restore support for BER.
  const FlatMap<Addr, DataBlock>& blocks() const { return blocks_; }
  void restore(const FlatMap<Addr, DataBlock>& snapshot) {
    blocks_ = snapshot;
    flips_.clear();
  }

  std::size_t materializedBlocks() const { return blocks_.size(); }
  std::uint64_t eccCorrections() const { return eccCorrections_; }

  /// The deterministic fill value for untouched memory.
  static DataBlock initialPattern(Addr blk);

 private:
  DataBlock& materialize(Addr blk);

  FlatMap<Addr, DataBlock> blocks_;
  FlatMap<Addr, std::vector<std::size_t>> flips_;
  std::uint64_t eccCorrections_ = 0;
};

}  // namespace dvmc
