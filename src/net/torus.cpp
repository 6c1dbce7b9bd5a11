#include "net/torus.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace dvmc {

TorusNetwork::TorusNetwork(Simulator& sim, std::size_t numNodes,
                           TorusConfig cfg)
    : sim_(sim), n_(numNodes), cfg_(cfg) {
  DVMC_ASSERT(numNodes >= 1, "torus needs at least one node");
  DVMC_ASSERT(cfg_.bytesPerCycle > 0.0, "bandwidth must be positive");
  // Pick the most square cols x rows factorization with cols >= rows.
  cols_ = numNodes;
  rows_ = 1;
  for (std::size_t r = 1; r * r <= numNodes; ++r) {
    if (numNodes % r == 0) {
      rows_ = r;
      cols_ = numNodes / r;
    }
  }
  endpoints_.resize(n_, nullptr);
  linkFree_.resize(n_ * 4, 0);
  linkBytes_.resize(n_ * 4, 0);
  xOf_.resize(n_);
  yOf_.resize(n_);
  for (NodeId node = 0; node < n_; ++node) {
    xOf_[node] = static_cast<std::uint8_t>(node % cols_);
    yOf_[node] = static_cast<std::uint8_t>(node / cols_);
  }
  nbr_.resize(n_ * 4);
  for (NodeId node = 0; node < n_; ++node) {
    for (std::size_t d = 0; d < 4; ++d) {
      nbr_[linkId(node, static_cast<Dir>(d))] =
          neighborArith(node, static_cast<Dir>(d));
    }
  }
  serCache_.resize(256, 0);
}

void TorusNetwork::attach(NodeId node, NetworkEndpoint* ep) {
  DVMC_ASSERT(node < n_, "attach: node out of range");
  endpoints_[node] = ep;
}

NodeId TorusNetwork::neighborArith(NodeId node, Dir d) const {
  const std::size_t x = node % cols_;
  const std::size_t y = node / cols_;
  switch (d) {
    case kEast: return static_cast<NodeId>(y * cols_ + (x + 1) % cols_);
    case kWest: return static_cast<NodeId>(y * cols_ + (x + cols_ - 1) % cols_);
    case kSouth: return static_cast<NodeId>(((y + 1) % rows_) * cols_ + x);
    case kNorth: return static_cast<NodeId>(((y + rows_ - 1) % rows_) * cols_ + x);
  }
  return node;
}

TorusNetwork::Dir TorusNetwork::nextDir(NodeId cur, NodeId dest) const {
  // X dimension first, along the shorter wrap direction. One step of the
  // full dimension-order route: recomputing per hop visits exactly the
  // same link sequence a precomputed route would, without materializing
  // (and heap-allocating) the link list. Coordinates come from the xOf_/
  // yOf_ tables — cols_ is a runtime value, so the %/÷ forms are hardware
  // divides on a per-hop path.
  const std::size_t xc = xOf_[cur];
  const std::size_t xd = xOf_[dest];
  if (xc != xd) {
    const std::size_t dx = xd >= xc ? xd - xc : xd + cols_ - xc;  // eastward
    return (dx <= cols_ - dx) ? kEast : kWest;
  }
  const std::size_t yc = yOf_[cur];
  const std::size_t yd = yOf_[dest];
  const std::size_t dy = yd >= yc ? yd - yc : yd + rows_ - yc;
  return (dy <= rows_ - dy) ? kSouth : kNorth;
}

Cycle TorusNetwork::serializationCycles(std::size_t bytes) {
  if (bytes < serCache_.size()) {
    Cycle& slot = serCache_[bytes];
    if (slot == 0) {
      slot = static_cast<Cycle>(
          std::ceil(static_cast<double>(bytes) / cfg_.bytesPerCycle));
    }
    return slot;
  }
  return static_cast<Cycle>(
      std::ceil(static_cast<double>(bytes) / cfg_.bytesPerCycle));
}

void TorusNetwork::send(Message msg) {
  DVMC_ASSERT(msg.dest < n_, "send: dest out of range");
  msg.id = nextMsgId_++;
  msg.netEpoch = epoch_;
  ++messagesSent_;

  if (faultFilter_) {
    switch (faultFilter_(msg)) {
      case NetFaultAction::kDeliver:
        break;
      case NetFaultAction::kDrop:
        return;
      case NetFaultAction::kDuplicate: {
        Message dup = msg;
        dup.id = nextMsgId_++;
        sim_.schedule(1, [this, pm = pool_.acquire(std::move(dup))]() mutable {
          inject(std::move(pm));
        });
        break;
      }
      case NetFaultAction::kDelay: {
        sim_.schedule(200, [this, pm = pool_.acquire(std::move(msg))]() mutable {
          inject(std::move(pm));
        });
        return;
      }
    }
  }

  if (msg.src == msg.dest) {
    // Local delivery (e.g., the home node is the requester's own node).
    sim_.schedule(kLocalLatency,
                  [this, pm = pool_.acquire(std::move(msg))] { deliver(*pm); });
    return;
  }
  if (cfg_.yieldCheckerTraffic &&
      trafficClassOf(msg.type) != TrafficClass::kCoherence &&
      linkFree_[firstLink(msg.src, msg.dest)] > sim_.now()) {
    // Low-priority injection: hold the message at the source until its
    // first link drains, so coherence messages sent meanwhile overtake it.
    const Cycle retryAt = linkFree_[firstLink(msg.src, msg.dest)];
    sim_.scheduleAt(retryAt, [this,
                              pm = pool_.acquire(std::move(msg))]() mutable {
      if (pm->netEpoch != epoch_) return;  // squashed by BER recovery
      const std::size_t l0 = firstLink(pm->src, pm->dest);
      if (cfg_.yieldCheckerTraffic && linkFree_[l0] > sim_.now()) {
        // Still busy (someone grabbed it again): keep yielding.
        const Cycle again = linkFree_[l0];
        sim_.scheduleAt(again, [this, pm = std::move(pm)]() mutable {
          // Second retry proceeds regardless: bounded injection delay.
          inject(std::move(pm));
        });
        return;
      }
      inject(std::move(pm));
    });
    return;
  }
  inject(pool_.acquire(std::move(msg)));
}

void TorusNetwork::inject(PooledMessage pm) {
  const NodeId src = pm->src;
  traverse(std::move(pm), src);
}

void TorusNetwork::traverse(PooledMessage pm, NodeId cur) {
  if (pm->netEpoch != epoch_) return;  // squashed by BER recovery
  if (cur == pm->dest) {
    deliver(*pm);  // pm's destruction recycles the node
    return;
  }
  const Dir d = nextDir(cur, pm->dest);
  const std::size_t link = linkId(cur, d);
  const Cycle depart = std::max(sim_.now(), linkFree_[link]);
  const std::size_t bytes = pm->sizeBytes();
  const Cycle ser = serializationCycles(bytes);
  linkFree_[link] = depart + ser;
  linkBytes_[link] += bytes;
  classBytes_[static_cast<std::size_t>(trafficClassOf(pm->type))] += bytes;
  const Cycle arrive = depart + ser + kHopLatency;
  const NodeId next = neighbor(cur, d);
  sim_.scheduleAt(arrive, [this, pm = std::move(pm), next]() mutable {
    traverse(std::move(pm), next);
  });
}

void TorusNetwork::bumpEpoch() {
  ++epoch_;
  std::fill(linkFree_.begin(), linkFree_.end(), 0);
}

void TorusNetwork::deliver(const Message& msg) {
  if (msg.netEpoch != epoch_) return;  // squashed by BER recovery
  NetworkEndpoint* ep = endpoints_[msg.dest];
  DVMC_ASSERT(ep != nullptr, "message delivered to unattached node");
  ep->onMessage(msg);
}

void TorusNetwork::resetStats() {
  std::fill(linkBytes_.begin(), linkBytes_.end(), 0);
  classBytes_.fill(0);
  statsStart_ = sim_.now();
  messagesSent_ = 0;
}

std::uint64_t TorusNetwork::totalBytes() const {
  std::uint64_t sum = 0;
  for (auto b : linkBytes_) sum += b;
  return sum;
}

std::uint64_t TorusNetwork::maxLinkBytes() const {
  std::uint64_t m = 0;
  for (auto b : linkBytes_) m = std::max(m, b);
  return m;
}

double TorusNetwork::peakLinkUtilization() const {
  const Cycle elapsed = sim_.now() - statsStart_;
  if (elapsed == 0) return 0.0;
  return static_cast<double>(maxLinkBytes()) / static_cast<double>(elapsed);
}

}  // namespace dvmc
