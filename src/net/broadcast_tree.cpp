#include "net/broadcast_tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace dvmc {

BroadcastTree::BroadcastTree(Simulator& sim, std::size_t numNodes,
                             double bytesPerCycle)
    : sim_(sim), n_(numNodes), bytesPerCycle_(bytesPerCycle) {
  DVMC_ASSERT(numNodes >= 1, "broadcast tree needs at least one node");
  endpoints_.resize(n_, nullptr);
}

void BroadcastTree::attach(NodeId node, NetworkEndpoint* ep) {
  DVMC_ASSERT(node < n_, "attach: node out of range");
  endpoints_[node] = ep;
}

void BroadcastTree::broadcast(Message msg) {
  msg.id = nextMsgId_++;
  Cycle extraDelay = 0;

  if (faultFilter_) {
    switch (faultFilter_(msg)) {
      case NetFaultAction::kDeliver:
        break;
      case NetFaultAction::kDrop:
        return;
      case NetFaultAction::kDuplicate:
        // Re-enter; the duplicate gets its own slot in the total order.
        sim_.schedule(1, [this, pm = pool_.acquire(msg)]() mutable {
          // Bypass the filter for the duplicate to avoid infinite loops.
          auto saved = std::move(faultFilter_);
          faultFilter_ = nullptr;
          broadcast(std::move(*pm));
          faultFilter_ = std::move(saved);
        });
        break;
      case NetFaultAction::kDelay:
        // Ordered-network reordering fault: the broadcast keeps its slot in
        // the total order but reaches the leaves after later broadcasts.
        extraDelay = 400;
        break;
    }
  }

  // Root arbitration: one broadcast occupies the tree for its serialization
  // time; ranks are assigned in arbitration order.
  const Cycle ser = static_cast<Cycle>(
      std::ceil(static_cast<double>(msg.sizeBytes()) / bytesPerCycle_));
  const Cycle start = std::max(sim_.now() + 1, rootFree_);
  rootFree_ = start + ser;
  msg.snoopOrder = order_++;
  msg.netEpoch = epoch_;
  totalBytes_ += msg.sizeBytes() * n_;  // fan-out to every leaf

  const Cycle deliverAt = start + ser + kTreeLatency + extraDelay;
  sim_.scheduleAt(deliverAt, [this, pm = pool_.acquire(std::move(msg))] {
    if (pm->netEpoch != epoch_) return;  // squashed by BER recovery
    for (std::size_t node = 0; node < n_; ++node) {
      DVMC_ASSERT(endpoints_[node] != nullptr,
                  "broadcast delivered to unattached node");
      // The leaves see the one pooled copy with dest patched per endpoint;
      // onMessage takes const Message& and may not retain the reference
      // (the old per-leaf stack copy died on return just the same).
      pm->dest = static_cast<NodeId>(node);
      endpoints_[node]->onMessage(*pm);
    }
  });
}

}  // namespace dvmc
