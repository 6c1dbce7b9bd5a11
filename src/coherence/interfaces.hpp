// Interfaces between the processor, the coherent cache hierarchy, and the
// DVMC checkers.
//
// The processor issues asynchronous CacheOps; each one finishes with a
// single call to its issuer's CacheClient, which receives the op back
// unchanged together with the value it read. The DVMC Cache Coherence
// checker plugs in as an EpochObserver: the protocol controllers report
// epoch begin/end transitions and perform-time accesses; the checker
// maintains the CET and emits Inform-Epoch messages. Keeping the observer
// abstract means the protocols have no compile-time dependency on the
// checkers — mirroring the paper's claim that any SWMR-verifying scheme can
// be swapped in.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/data_block.hpp"
#include "common/types.hpp"

namespace dvmc {

struct CacheOp {
  enum class Kind : std::uint8_t {
    kLoad,        // demand load (execution)
    kStore,       // store perform (write-buffer drain)
    kAtomicSwap,  // atomic exchange; returns old value
    kAtomicCas,   // compare-and-swap: writes only if old == compare
    kPrefetchM,   // acquire write permission, no access; never completes
    kReplayLoad,  // verification-stage replay load (bypasses write buffer)
  };

  Kind kind = Kind::kLoad;

  // True when this access is the operation's *perform* point, i.e. the CET
  // rule-1 check and the AR checker's perform event should fire. The CPU
  // sets this per the model: stores always; loads at replay for ordered-load
  // models, at execution for RMO.
  bool countsAsPerform = false;

  // The issuer's token, handed back unchanged at completion: the core puts
  // the sequence number in `tag`, and the entry and restart generations
  // that tell a stale completion from a live one in `gen` and `restartGen`
  // (`gen` fills the padding after the two flags).
  std::uint32_t gen = 0;
  Addr addr = 0;              // the aligned word accessed
  std::uint64_t value = 0;    // store value / atomic new value
  std::uint64_t compare = 0;  // kAtomicCas: expected old value
  std::uint64_t tag = 0;
  std::uint32_t restartGen = 0;
};

// CacheOp rides inside scheduled-event captures that must fit
// Simulator::kActionCapacityBytes.
static_assert(sizeof(CacheOp) <= 48, "CacheOp outgrew its event budget");

/// Receives each completed operation exactly once, in the kernel event in
/// which it performed. `value` is the load result or the atomic's old
/// value (0 for stores). Prefetches never complete.
class CacheClient {
 public:
  virtual ~CacheClient() = default;
  virtual void onCacheOpDone(const CacheOp& op, std::uint64_t value) = 0;
  /// The cache gained write permission (M) for `blk`: a fill granted it
  /// (a store prefetch's fill completes no op), or an injected state flip
  /// did.
  virtual void onWritePermission(Addr blk) { (void)blk; }
};

/// Hints from the cache to the processor for load-order speculation.
/// `remoteWrite` is true when the loss is another processor taking write
/// permission (its store may change speculatively loaded values — squash);
/// false for local evictions, where values cannot have changed and the
/// verification-stage replay covers any later remote write to the
/// no-longer-tracked block (squashing on evictions would livelock a
/// thrashing set).
class CpuNotifier {
 public:
  virtual ~CpuNotifier() = default;
  virtual void onReadPermissionLost(Addr blk, bool remoteWrite) = 0;
};

/// DVMC Cache Coherence checker hook implemented by CacheEpochChecker.
class EpochObserver {
 public:
  virtual ~EpochObserver() = default;

  /// An epoch begins: the cache gained read (RO) or write (RW) permission.
  /// `ltime` is the wide logical time of the grant — the controller's clock
  /// for the directory protocol, the request's position in the broadcast
  /// order for snooping (deferred snoop actions must be stamped with the
  /// order point of the snoop, not the wall-clock processing time).
  virtual void onEpochBegin(Addr blk, bool readWrite, const DataBlock& data,
                            std::uint64_t ltime) = 0;

  /// The current epoch for `blk` ends (downgrade, invalidation, eviction);
  /// `data` is the block's content at the end of the epoch.
  virtual void onEpochEnd(Addr blk, const DataBlock& data,
                          std::uint64_t ltime) = 0;

  /// Rule-1 check: an operation performs against `blk` at the cache.
  virtual void onPerformAccess(Addr blk, bool isWrite) = 0;
};

/// Hook implemented by the DVMC MemoryEpochChecker at each home node.
class HomeObserver {
 public:
  virtual ~HomeObserver() = default;

  /// A coherence request reached the home for `blk`; `memData` is the
  /// block's current memory image (used to seed a fresh MET entry).
  virtual void onHomeRequest(Addr blk, const DataBlock& memData) = 0;

  /// The home observed that no cache holds `blk` anymore (writeback
  /// accepted with no remaining sharers): the MET entry can be evicted —
  /// the paper's MET "only contains entries for blocks that are present in
  /// at least one of the processor caches".
  virtual void onBlockUncached(Addr blk) = 0;

  /// The home granted read (RO) or write (RW) permission to `to`. When the
  /// data came from memory, `memHash` is the CRC-16 of the served image.
  /// Serialized in home-processing order. Default no-op: the epoch checker
  /// derives everything from epochs instead.
  virtual void onHomeGrant(Addr blk, NodeId to, bool readWrite,
                           bool fromMemory, std::uint16_t memHash) {
    (void)blk;
    (void)to;
    (void)readWrite;
    (void)fromMemory;
    (void)memHash;
  }

  /// The home processed a writeback from `from` (accepted, or rejected as
  /// stale). `hash` is the CRC-16 of the written-back data.
  virtual void onHomeWriteback(Addr blk, NodeId from, std::uint16_t hash,
                               bool accepted) {
    (void)blk;
    (void)from;
    (void)hash;
    (void)accepted;
  }
};

/// Interleaves blocks across home nodes.
struct MemoryMap {
  std::size_t numNodes = 1;
  NodeId homeOf(Addr a) const {
    return static_cast<NodeId>((blockAddr(a) / kBlockSizeBytes) % numNodes);
  }
};

}  // namespace dvmc
