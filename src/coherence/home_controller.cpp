#include "coherence/home_controller.hpp"

namespace dvmc {

HomeController::HomeController(Simulator& sim, TorusNetwork& net, NodeId node,
                               MemoryMap map, ErrorSink* sink)
    : sim_(sim), net_(net), node_(node), map_(map), sink_(sink) {}

void HomeController::replyFromMemory(MsgType type, NodeId dest, Addr blk,
                                     int ackCount) {
  // The reply (memory image included) is built at the *read* point and
  // parked in the pool for the memory latency; the scheduled event carries
  // a 16-byte handle instead of a DataBlock capture.
  Message m;
  m.type = type;
  m.src = node_;
  m.dest = dest;
  m.addr = blk;
  m.ackCount = ackCount;
  m.hasData = true;
  m.data = readMemory(blk);
  m.fromMemory = true;
  sim_.schedule(kMemLatency,
                [this, pm = pool_.acquire(std::move(m)), g = gen_]() mutable {
                  if (g != gen_) return;  // squashed by BER recovery
                  net_.send(std::move(*pm));
                });
}

}  // namespace dvmc
