// Fundamental types shared by every DVMC subsystem.
//
// The simulator models a physical address space partitioned into fixed-size
// coherence blocks (64 bytes, matching the paper's configuration). Nodes are
// identified by small dense integers; each node hosts a processor, a private
// cache hierarchy, and a slice of memory (its "home" blocks).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dvmc {

/// Simulation time in processor cycles.
using Cycle = std::uint64_t;

/// A full physical byte address.
using Addr = std::uint64_t;

/// Node (processor / memory controller) identifier.
using NodeId = std::uint32_t;

/// Monotonic per-processor instruction sequence number (program order rank).
using SeqNum = std::uint64_t;

/// The access word. Every memory operation reads or writes one naturally
/// aligned 64-bit SPARC word (the checkers' proofs in Appendix A assume
/// word-granular access too); there is no other access size.
inline constexpr std::size_t kWordBytes = 8;

/// Rounds an address down to its containing word.
constexpr Addr wordAddr(Addr a) { return a & ~Addr{kWordBytes - 1}; }

/// Coherence block geometry. 64-byte blocks as in Table 6.
inline constexpr std::size_t kBlockSizeBytes = 64;
inline constexpr std::size_t kBlockSizeWords = kBlockSizeBytes / kWordBytes;
inline constexpr Addr kBlockOffsetMask = kBlockSizeBytes - 1;

/// Rounds an address down to its containing block.
constexpr Addr blockAddr(Addr a) { return a & ~kBlockOffsetMask; }

/// Byte offset of an address within its block.
constexpr std::size_t blockOffset(Addr a) {
  return static_cast<std::size_t>(a & kBlockOffsetMask);
}

/// Invalid node sentinel.
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Addresses below this boundary are zero-initialized (BSS-style): the
/// synchronization segment (locks, barrier counters) must read as zero
/// before first use. Everything above gets a deterministic fill pattern.
inline constexpr Addr kZeroInitBoundary = Addr{1} << 21;

}  // namespace dvmc
