// Home memory controller for the MOSI directory protocol.
//
// A blocking directory: while a GetS/GetM transaction is in flight for a
// block, later requests for that block queue at the home and are released
// by the requester's Unblock message. The home forwards requests to the
// current owner (FwdGetS / FwdGetM), sends invalidations to sharers, and
// supplies data from memory when it is the owner. PutM writebacks are
// accepted from the registered owner and NACKed when they race with an
// ownership transfer (the evictor serves forwards from its writeback
// buffer in the meantime).
#pragma once

#include <deque>
#include <set>

#include "coherence/home_controller.hpp"
#include "common/flat_map.hpp"

namespace dvmc {

/// Cycles from a request's arrival at the home to its pickup by the
/// directory controller.
inline constexpr Cycle kCtrlLatency = 2;

class DirectoryHome final : public HomeController {
 public:
  DirectoryHome(Simulator& sim, TorusNetwork& net, NodeId node,
                MemoryMap map, ErrorSink* sink);

  /// Network entry point (router dispatches home-bound messages here).
  void onMessage(const Message& msg);

  /// Directory introspection for tests.
  NodeId ownerOf(Addr blk) const;
  std::set<NodeId> sharersOf(Addr blk) const;
  bool isBusy(Addr blk) const;

 private:
  struct DirEntry {
    NodeId owner = kInvalidNode;
    std::set<NodeId> sharers;
    bool busy = false;
    std::deque<Message> pending;
  };

  void forgetBlocks() override { dir_.clear(); }
  void process(const Message& msg, DirEntry& e);
  void handleGetS(const Message& msg, DirEntry& e);
  void handleGetM(const Message& msg, DirEntry& e);
  void handlePutM(const Message& msg, DirEntry& e);
  void serviceQueue(Addr blk);
  void sendDataFromMemory(Addr blk, NodeId dest, int ackCount);
  void send(Message m) { net_.send(std::move(m)); }

  FlatMap<Addr, DirEntry> dir_;
  Counter cServiced_ = stats_.counter("home.serviced");
  Counter cGetS_ = stats_.counter("home.getS");
  Counter cGetM_ = stats_.counter("home.getM");
  Counter cFwdGetS_ = stats_.counter("home.fwdGetS");
  Counter cFwdGetM_ = stats_.counter("home.fwdGetM");
  Counter cUpgradeAck_ = stats_.counter("home.upgradeAck");
  Counter cInv_ = stats_.counter("home.inv");
  Counter cPutM_ = stats_.counter("home.putM");
  Counter cNackPutM_ = stats_.counter("home.nackPutM");
  Counter cMemData_ = stats_.counter("home.memData");
  Counter cOwnerReRequest_ = stats_.counter("home.ownerReRequest");
  Counter cStrayUnblock_ = stats_.counter("home.strayUnblock");
  Counter cMisrouted_ = stats_.counter("home.misrouted");
};

}  // namespace dvmc
