// The protocol-independent half of a home node: its memory slice, its
// metric registry, the DVMC home observer hook, BER reset, and the data
// reply both protocols send when memory answers a request. DirectoryHome
// and SnoopMemoryController add their protocol's per-block state and
// message handling.
#pragma once

#include <cstdint>

#include "coherence/interfaces.hpp"
#include "coherence/memory_storage.hpp"
#include "common/error_sink.hpp"
#include "net/message_pool.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

/// Memory access latency in cycles: a data reply from memory leaves the
/// home this long after the read.
inline constexpr Cycle kMemLatency = 160;

class HomeController {
 public:
  virtual ~HomeController() = default;
  HomeController(const HomeController&) = delete;
  HomeController& operator=(const HomeController&) = delete;

  void setHomeObserver(HomeObserver* o) { homeObserver_ = o; }
  MemoryStorage& memory() { return memory_; }
  const MetricSet& stats() const { return stats_; }

  /// BER recovery: caches were invalidated and memory restored; memory owns
  /// every block again and pending home work is squashed.
  void reset() {
    forgetBlocks();
    ++gen_;  // squash scheduled home events from the rolled-back past
  }

 protected:
  HomeController(Simulator& sim, TorusNetwork& net, NodeId node,
                 MemoryMap map, ErrorSink* sink);

  /// Drops every block's protocol state (reset()).
  virtual void forgetBlocks() = 0;

  /// The block's memory image, read (and ECC-checked) now.
  const DataBlock& readMemory(Addr blk) {
    return memory_.read(blk, sink_, node_, sim_.now());
  }

  /// Sends `dest` a `type` data message carrying the block's memory image
  /// as read now, after the memory latency.
  void replyFromMemory(MsgType type, NodeId dest, Addr blk, int ackCount = 0);

  Simulator& sim_;
  TorusNetwork& net_;
  NodeId node_;
  MemoryMap map_;
  ErrorSink* sink_;
  HomeObserver* homeObserver_ = nullptr;
  std::uint32_t gen_ = 0;
  MetricSet stats_;  // the protocol halves register their counters here

 private:
  MessagePool pool_;  // parks memory-latency data replies in flight
  MemoryStorage memory_;
};

}  // namespace dvmc
