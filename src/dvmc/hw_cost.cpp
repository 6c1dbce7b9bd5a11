#include "dvmc/hw_cost.hpp"

#include <sstream>

namespace dvmc {

HwCostReport computeHwCost(const HwCostInputs& in) {
  HwCostReport r;

  const std::size_t l1Lines = in.l1.sets * in.l1.ways;
  const std::size_t l2Lines = in.l2.sets * in.l2.ways;
  const std::size_t cacheLinesPerNode = l1Lines + l2Lines;

  r.cetBytesPerNode = (cacheLinesPerNode * r.cetBitsPerLine + 7) / 8;

  // The MET holds one entry per block present in any processor cache; with
  // N nodes the worst case at one home is every cached block homed there.
  const std::size_t cachedBlocksSystemwide = cacheLinesPerNode * in.numNodes;
  r.metBytesPerController =
      (cachedBlocksSystemwide * r.metBitsPerEntry + 7) / 8;

  r.vcBytesPerNode = in.vcWords * kWordBytes;

  // AR checker: an LSQ-sized FIFO of sequence numbers (8 B each), sequence
  // numbers in the write buffer, six 8-byte counter registers, and three
  // 3x3 ordering tables of 4-bit entries.
  r.arCheckerBytesPerNode = in.lsqEntries * 8 + in.writeBufferEntries * 8 +
                            6 * 8 + 3 * (9 * 4 + 7) / 8;

  // Inform priority queue: address (8 B) + epoch payload (~9 B) per slot.
  r.informQueueBytesPerController = in.informQueueEntries * 17;

  r.totalBytesPerNode = r.cetBytesPerNode + r.metBytesPerController +
                        r.vcBytesPerNode + r.arCheckerBytesPerNode +
                        r.informQueueBytesPerController;
  return r;
}

std::string HwCostReport::toString() const {
  std::ostringstream os;
  os << "DVMC hardware cost:\n"
     << "  CET: " << cetBitsPerLine << " bits/line, " << cetBytesPerNode
     << " B per node\n"
     << "  MET: " << metBitsPerEntry << " bits/entry, "
     << metBytesPerController << " B per memory controller (worst case)\n"
     << "  VC:  " << vcBytesPerNode << " B per node\n"
     << "  AR checker: " << arCheckerBytesPerNode << " B per node\n"
     << "  Inform queue: " << informQueueBytesPerController
     << " B per memory controller\n"
     << "  Total per node: " << totalBytesPerNode << " B\n";
  return os.str();
}

}  // namespace dvmc
