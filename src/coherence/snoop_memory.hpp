// Memory controller for the MOSI snooping protocol.
//
// Every controller observes the totally ordered broadcast stream; this one
// tracks, per home block, whether memory or a cache is the current owner
// (updated purely from the snoop order, so all controllers agree), supplies
// data when memory owns the block, and holds requests that are ordered
// between a PutM and the arrival of its writeback data.
#pragma once

#include <vector>

#include "coherence/home_controller.hpp"
#include "common/flat_map.hpp"

namespace dvmc {

class SnoopMemoryController final : public HomeController {
 public:
  SnoopMemoryController(Simulator& sim, TorusNetwork& dataNet, NodeId node,
                        MemoryMap map, CoherenceTimings timings,
                        ErrorSink* sink);

  /// Address-network entry: every broadcast request, in total order.
  void onSnoop(const Message& msg);

  /// Data-network entry: writeback data (kSnpWbData).
  void onMessage(const Message& msg);

  NodeId cacheOwnerOf(Addr blk) const;

 private:
  struct HomeState {
    NodeId ownerCache = kInvalidNode;  // kInvalidNode => memory owns
    bool awaitingWb = false;
    NodeId wbFrom = kInvalidNode;  // evictor whose WbData is in flight
    // Requests ordered while the writeback is pending, granted once its
    // data lands; `fromMemory` marks the ones memory answers.
    std::vector<Message> waiting;
  };

  void forgetBlocks() override { state_.clear(); }
  /// Answers `req` from memory when `fromMemory` and tells the home
  /// observer about the grant.
  void grant(Addr blk, const Message& req, bool fromMemory);
  void supplyData(Addr blk, NodeId dest);

  FlatMap<Addr, HomeState> state_;
  Counter cDataSupplied_ = stats_.counter("mem.dataSupplied");
  Counter cPutM_ = stats_.counter("mem.putM");
  Counter cStalePutM_ = stats_.counter("mem.stalePutM");
  Counter cHeldForWb_ = stats_.counter("mem.heldForWb");
  Counter cUnexpectedData_ = stats_.counter("mem.unexpectedData");
  Counter cMisrouted_ = stats_.counter("mem.misrouted");
};

}  // namespace dvmc
