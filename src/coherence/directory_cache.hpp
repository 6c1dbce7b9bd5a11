// Directory MOSI half of the L2 controller.
//
// Requests go to the block's home as GetS/GetM; a transaction completes
// once its Data response and every InvAck it announces are in, and then
// unblocks the home. Evicted dirty (M/O) blocks stay in the writeback
// buffer, answering forwarded requests, until the home acknowledges or
// NACKs the PutM; a new request for a block whose writeback is still in
// flight stalls until that acknowledgment (avoiding owner-re-request races
// at the blocking home). Everything else lives in CoherentCache.
#pragma once

#include <memory>

#include "coherence/coherent_cache.hpp"

namespace dvmc {

class DirectoryCacheController final : public CoherentCache {
 public:
  DirectoryCacheController(Simulator& sim, TorusNetwork& net, NodeId node,
                           MemoryMap map, CacheGeometry l2Geom,
                           CoherenceTimings timings, ErrorSink* sink,
                           std::unique_ptr<LogicalClock> clock);

  /// Network entry point (router dispatches cache-bound messages here).
  void onMessage(const Message& msg);

 private:
  void issueRequest(Addr blk, Mshr& m) override;
  std::uint64_t fillTime(const Mshr& m) override;
  void fillWithoutData(Addr blk) override;
  void finishFill(Addr blk, Mshr& m) override;
  void sendWriteback(Addr blk, const DataBlock& d) override;

  void sendRequest(Addr blk, const Mshr& mshr);
  void maybeFinalize(Addr blk);
  void handleFwdGetS(const Message& msg);
  void handleFwdGetM(const Message& msg);
  void handleInv(const Message& msg);
  void sendToHome(MsgType type, Addr blk);

  std::unique_ptr<LogicalClock> ownedClock_;
  Counter cWbStall_ = stats_.counter("l2.wbStall");
  Counter cStrayInvAck_ = stats_.counter("l2.strayInvAck");
  Counter cUpgradeNoData_ = stats_.counter("protocol.upgradeNoData");
  Counter cUnexpectedFwdGetS_ = stats_.counter("protocol.unexpectedFwdGetS");
  Counter cUnexpectedFwdGetM_ = stats_.counter("protocol.unexpectedFwdGetM");
};

}  // namespace dvmc
