// Totally-ordered broadcast address network for the snooping protocol
// (Table 6: "bcast tree, 2.5 GB/s links, ordered").
//
// All coherence requests are serialized through a root arbiter which
// assigns each broadcast a global rank (`snoopOrder`). Every endpoint —
// including the sender — observes broadcasts in exactly that order, which
// is what makes a snooping protocol's state transitions unambiguous and
// provides DVMC's snooping logical time base ("number of coherence
// requests processed so far").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/message.hpp"
#include "net/message_pool.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

/// Root-to-leaves propagation latency of a broadcast, in cycles.
inline constexpr Cycle kTreeLatency = 8;

class BroadcastTree {
 public:
  using FaultFilter = std::function<NetFaultAction(Message&)>;

  /// `bytesPerCycle` is the link bandwidth (TorusConfig::bytesPerCycle).
  BroadcastTree(Simulator& sim, std::size_t numNodes, double bytesPerCycle);

  void attach(NodeId node, NetworkEndpoint* ep);

  /// Broadcasts `msg` to every endpoint in global order (dest is ignored).
  void broadcast(Message msg);

  void setFaultFilter(FaultFilter f) { faultFilter_ = std::move(f); }

  std::uint64_t broadcastsIssued() const { return order_; }
  void bumpEpoch() { ++epoch_; }
  std::uint64_t totalBytes() const { return totalBytes_; }

 private:
  Simulator& sim_;
  std::size_t n_;
  double bytesPerCycle_;
  std::vector<NetworkEndpoint*> endpoints_;
  MessagePool pool_;  // in-flight broadcasts; scheduled deliveries carry handles
  Cycle rootFree_ = 0;
  std::uint32_t epoch_ = 0;
  std::uint64_t order_ = 0;
  std::uint64_t nextMsgId_ = 1;
  std::uint64_t totalBytes_ = 0;
  FaultFilter faultFilter_;
};

}  // namespace dvmc
