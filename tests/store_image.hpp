// The memory image that a stream of performed stores builds: each block a
// store touches starts from its initial pattern and takes the store's word.
// Under BER, SafetyNet keeps the same image inside the machine; tests build
// their own from System's store audit hook, to read a run's final memory
// or to check a recovered image against the stores that made it.
#pragma once

#include <cstdint>

#include "coherence/memory_storage.hpp"
#include "common/data_block.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace dvmc {

using StoreImage = FlatMap<Addr, DataBlock>;

/// Applies one performed store (word address, value) to `image`.
inline void applyStore(StoreImage& image, Addr addr, std::uint64_t value) {
  const Addr blk = blockAddr(addr);
  auto it = image.try_emplace(blk, MemoryStorage::initialPattern(blk)).first;
  it->second.write(blockOffset(addr), value);
}

}  // namespace dvmc
