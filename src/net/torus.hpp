// 2D torus interconnect (Table 6: "2D torus, 2.5 GB/s links, unordered").
//
// Nodes are arranged on a cols x rows grid with wraparound links in both
// dimensions. Routing is dimension-order (X first, then Y) along the
// shorter wrap direction. Each directed link models serialization at a
// configurable bandwidth plus a fixed per-hop latency; messages queue when
// a link is busy. Per-link byte counters feed the Figure-7 "bandwidth on
// the highest loaded link" measurement; the bytes each traffic class puts
// on the links are `net.*` counters in the torus's metric registry.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/message.hpp"
#include "net/message_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace dvmc {

/// Router and wire traversal per hop, in cycles.
inline constexpr Cycle kHopLatency = 4;
/// Delivery latency of a message whose source is its destination.
inline constexpr Cycle kLocalLatency = 1;

struct TorusConfig {
  /// Link bandwidth of both networks: the torus's links and the snooping
  /// broadcast tree's. 2.5 GB/s at a 2 GHz core clock.
  double bytesPerCycle = 1.25;

  // Section 6.2.3: "DVMC traffic has little impact ... as long as the
  // transmission can be delayed until traffic bursts are over." When set,
  // checker/BER messages yield at injection: they wait at the source until
  // their first link is idle, letting coherence traffic overtake them.
  bool yieldCheckerTraffic = false;
};

class TorusNetwork {
 public:
  using FaultFilter = std::function<NetFaultAction(Message&)>;

  TorusNetwork(Simulator& sim, std::size_t numNodes, TorusConfig cfg = {});

  void attach(NodeId node, NetworkEndpoint* ep);

  /// Injects a message into the network. Delivery is asynchronous.
  void send(Message msg);

  /// Installs (or clears, with nullptr-like empty function) the fault hook.
  void setFaultFilter(FaultFilter f) { faultFilter_ = std::move(f); }

  // --- statistics ---
  /// net.totalBytes and, per traffic class, net.coherenceBytes,
  /// net.informBytes and net.ckptBytes: bytes put on links, once per hop.
  const MetricSet& stats() const { return stats_; }
  std::uint64_t maxLinkBytes() const;
  std::uint64_t messagesSent() const { return messagesSent_; }

  /// Mean bytes/cycle on the most heavily loaded directed link over the
  /// run so far. (Figure 7's metric.)
  double peakLinkUtilization() const;

  std::size_t numNodes() const { return n_; }

  /// BER recovery: squashes every in-flight message, dropped at its next
  /// hop, and releases the links they reserved, so the restarted machine
  /// starts on an idle network.
  void bumpEpoch();

 private:
  // Directions for directed links out of each node.
  enum Dir : std::size_t { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

  std::size_t linkId(NodeId node, Dir d) const { return node * 4 + d; }
  /// Table lookup (nbr_, filled once in the constructor): the routing hot
  /// path runs this per hop, and cols_/rows_ are runtime values, so the
  /// arithmetic form costs hardware div/mod per call.
  NodeId neighbor(NodeId node, Dir d) const { return nbr_[linkId(node, d)]; }
  NodeId neighborArith(NodeId node, Dir d) const;
  /// Next hop under dimension-order routing (X first, shorter wrap
  /// direction); requires cur != dest. Routing is stateless, so in-flight
  /// messages carry only their current node — no materialized route.
  Dir nextDir(NodeId cur, NodeId dest) const;
  std::size_t firstLink(NodeId src, NodeId dest) const {
    return linkId(src, nextDir(src, dest));
  }
  /// Advances a pooled message one hop from `cur` (delivering at dest).
  void traverse(PooledMessage pm, NodeId cur);
  void inject(PooledMessage pm);
  void deliver(const Message& msg);
  Cycle serializationCycles(std::size_t bytes);

  Simulator& sim_;
  std::size_t n_;
  std::size_t cols_;
  std::size_t rows_;
  TorusConfig cfg_;
  std::vector<NetworkEndpoint*> endpoints_;
  MessagePool pool_;  // in-flight messages; scheduled hops carry handles
  std::vector<NodeId> nbr_;            // [linkId]: precomputed neighbor
  std::vector<std::uint8_t> xOf_, yOf_;  // [node]: torus coordinates
  // Lazily filled ceil(bytes / bytesPerCycle) for small wire sizes (the
  // handful of distinct Message::sizeBytes() values); 0 marks unfilled.
  std::vector<Cycle> serCache_;
  std::vector<Cycle> linkFree_;
  std::vector<std::uint64_t> linkBytes_;
  FaultFilter faultFilter_;
  std::uint32_t epoch_ = 0;
  std::uint64_t nextMsgId_ = 1;
  std::uint64_t messagesSent_ = 0;

  // Metric registry (stats_ must precede the handles).
  MetricSet stats_;
  Counter cTotalBytes_ = stats_.counter("net.totalBytes");
  // Indexed by TrafficClass.
  std::array<Counter, kNumTrafficClasses> cClassBytes_ = {
      stats_.counter("net.coherenceBytes"), stats_.counter("net.informBytes"),
      stats_.counter("net.ckptBytes")};
};

}  // namespace dvmc
