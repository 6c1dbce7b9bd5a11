// Snooping MOSI half of the L2 controller.
//
// Requests broadcast on the ordered address network; the position of a
// request in that total order is the point at which it logically happens.
// Snoops that target a block we have an ordered-but-incomplete transaction
// for are deferred and applied after our data arrives, stamped with the
// logical time of their own order point (not of their delayed processing),
// which keeps the epoch timestamps causal. Everything else lives in
// CoherentCache.
#pragma once

#include "coherence/coherent_cache.hpp"
#include "net/broadcast_tree.hpp"

namespace dvmc {

class SnoopCacheController final : public CoherentCache {
 public:
  SnoopCacheController(Simulator& sim, BroadcastTree& addrNet,
                       TorusNetwork& dataNet, NodeId node, MemoryMap map,
                       CacheGeometry l2Geom, CoherenceTimings timings,
                       ErrorSink* sink);

  /// Address-network entry: every broadcast, in total order.
  void onSnoop(const Message& msg);

  /// Data-network entry: kSnpData responses.
  void onMessage(const Message& msg);

 private:
  void issueRequest(Addr blk, Mshr& m) override;
  std::uint64_t fillTime(const Mshr& m) override { return m.orderTime; }
  void fillWithoutData(Addr blk) override;
  void finishFill(Addr blk, Mshr& m) override;
  void sendWriteback(Addr blk, const DataBlock& d) override;

  void maybeComplete(Addr blk);
  void applySnoop(const Message& msg, std::uint64_t ltime);

  BroadcastTree& addrNet_;
  // Requests ordered so far: the snooping time base. The core binds it
  // before it is constructed and reads it only afterwards.
  CountingClock orderClock_;
  Counter cWbData_ = stats_.counter("l2.wbData");
  Counter cDeferredSnoop_ = stats_.counter("l2.deferredSnoop");
  Counter cStraySelfSnoop_ = stats_.counter("l2.straySelfSnoop");
  Counter cUnexpectedData_ = stats_.counter("l2.unexpectedData");
};

}  // namespace dvmc
