// L1 + L2 cache hierarchy.
//
// The L1 is a write-through, inclusive latency filter in front of the
// coherent L2: it never holds data the L2 lacks read permission for, so
// coherence permissions are enforced entirely at L2 (the coherence point)
// while L1 hits model the common fast path. The hierarchy separately counts
// L1 misses for regular execution loads and for verification-stage replay
// loads — the ratio is the paper's Figure 6 metric.
//
// An operation finishes in one call chain: the L2 hands it to the hierarchy
// (its CacheClient), which refills or updates the L1 and hands it on to the
// CPU's CacheClient in the same kernel event.
#pragma once

#include <cstdint>

#include "coherence/cache_array.hpp"
#include "coherence/coherent_cache.hpp"
#include "coherence/interfaces.hpp"
#include "common/error_sink.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

/// L1 hit latency in cycles: a load that hits the L1 completes this long
/// after it issued.
inline constexpr Cycle kL1Latency = 2;

class CacheHierarchy final : public CacheClient {
 public:
  CacheHierarchy(Simulator& sim, CoherentCache& l2, CacheGeometry l1Geom,
                 ErrorSink* sink, NodeId node);

  /// Issues an operation; the client hears of it when it completes.
  void access(const CacheOp& op);

  /// The CPU registers here for completions.
  void setClient(CacheClient* c) { client_ = c; }

  /// The CPU registers here (the hierarchy filters L2 notifications through
  /// the L1 before forwarding them).
  void setCpuNotifier(CpuNotifier* n) { cpu_ = n; }

  /// The L2 lost read permission for `blk` (see CpuNotifier). `hadCopy`
  /// is false when the L2 held no readable copy just before: a remote
  /// write it only heard about (a snooped GetM, an Inv after a silent
  /// eviction). The L1 fills only from a readable L2 copy, so it then
  /// holds none either.
  void onReadPermissionLost(Addr blk, bool remoteWrite, bool hadCopy);

  // --- CacheClient (wired to the L2 controller) ---
  void onCacheOpDone(const CacheOp& op, std::uint64_t value) override;
  void onWritePermission(Addr blk) override {
    if (client_ != nullptr) client_->onWritePermission(blk);
  }

  CacheArray& l1() { return l1_; }
  CoherentCache& l2() { return l2_; }
  const MetricSet& stats() const { return stats_; }

  /// BER recovery: drop every L1 line (the L2 was invalidated).
  void invalidateL1() { l1_.invalidateAll(); }

 private:
  void finishLoadFromL1(const CacheOp& op, CacheLine& line);

  Simulator& sim_;
  CoherentCache& l2_;
  ErrorSink* sink_;
  NodeId node_;
  CacheArray l1_;
  CpuNotifier* cpu_ = nullptr;
  CacheClient* client_ = nullptr;
  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cHit_ = stats_.counter("l1.hit");
  Counter cMiss_ = stats_.counter("l1.miss");
  Counter cReplayHit_ = stats_.counter("l1.replayHit");
  Counter cReplayMiss_ = stats_.counter("l1.replayMiss");
};

}  // namespace dvmc
