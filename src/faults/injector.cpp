#include "faults/injector.hpp"

#include "common/assert.hpp"

namespace dvmc {

const char* faultTypeName(FaultType t) {
  switch (t) {
    case FaultType::kCacheDataMultiBit: return "cache-data-multibit";
    case FaultType::kCacheStateFlip: return "cache-state-flip";
    case FaultType::kMemoryDataMultiBit: return "memory-data-multibit";
    case FaultType::kMsgDrop: return "msg-drop";
    case FaultType::kMsgDuplicate: return "msg-duplicate";
    case FaultType::kMsgMisroute: return "msg-misroute";
    case FaultType::kMsgReorder: return "msg-reorder";
    case FaultType::kMsgDataCorrupt: return "msg-data-corrupt";
    case FaultType::kLsqWrongForward: return "lsq-wrong-forward";
    case FaultType::kWbValueCorrupt: return "wb-value-corrupt";
    case FaultType::kWbReorder: return "wb-reorder";
    case FaultType::kCheckerCetCorrupt: return "checker-cet-corrupt";
  }
  return "?";
}

const std::vector<FaultType>& allFaultTypes() {
  static const std::vector<FaultType> kAll = {
      FaultType::kCacheDataMultiBit, FaultType::kCacheStateFlip,
      FaultType::kMemoryDataMultiBit, FaultType::kMsgDrop,
      FaultType::kMsgDuplicate,       FaultType::kMsgMisroute,
      FaultType::kMsgReorder,         FaultType::kMsgDataCorrupt,
      FaultType::kLsqWrongForward,    FaultType::kWbValueCorrupt,
      FaultType::kWbReorder,          FaultType::kCheckerCetCorrupt,
  };
  return kAll;
}

bool faultApplicable(FaultType t, ConsistencyModel m, Protocol p) {
  switch (t) {
    case FaultType::kMsgReorder:
      return p == Protocol::kSnooping;  // only an ordered network can reorder
    case FaultType::kWbReorder:
      // Store-store reordering is legal under PSO/RMO, and SC has no write
      // buffer at all: the fault only exists under TSO.
      return m == ConsistencyModel::kTSO;
    case FaultType::kWbValueCorrupt:
      // SC systems have no write buffer to corrupt.
      return m != ConsistencyModel::kSC;
    default:
      return true;
  }
}

bool faultCoveredBy(FaultType t, SystemConfig::CoherenceCheckerKind checker) {
  if (checker == SystemConfig::CoherenceCheckerKind::kShadow &&
      t == FaultType::kMsgDataCorrupt) {
    // Cache-to-cache transfers are not hash-checked by the shadow checker
    // (see shadow_checker.hpp): transfer corruption is only caught when the
    // block later flows through memory, which a bounded run cannot rely on.
    return false;
  }
  return true;
}

FaultInjector::FaultInjector(System& sys, std::uint64_t seed)
    : sys_(sys), rng_(seed) {}

bool FaultInjector::inject(FaultType t) {
  const bool ok = injectNow(t);
  if (ok) ++injections_;
  return ok;
}

bool FaultInjector::injectNow(FaultType t) {
  const NodeId node =
      static_cast<NodeId>(rng_.below(sys_.numNodes()));
  switch (t) {
    case FaultType::kCacheDataMultiBit: {
      // Two flips in the same line defeat the single-error-correcting code.
      CacheArray& array = sys_.l2(node).array();
      const std::uint64_t r = rng_.next();
      auto first = array.injectBitFlip(r);
      if (!first) return false;
      // Second flip in the same line.
      return array.injectBitFlip(*first, (r % (kBlockSizeBytes * 8 - 1)) + 1);
    }
    case FaultType::kCacheStateFlip: {
      CoherentCache& l2 = sys_.l2(node);
      // Only the permission-granting direction constitutes a detectable
      // coherence violation; retry until a non-M line gets promoted.
      for (int attempt = 0; attempt < 8; ++attempt) {
        auto res = l2.injectStateFlip(rng_.next());
        if (res && res->second == MosiState::kM) return true;
      }
      return false;
    }
    case FaultType::kMemoryDataMultiBit: {
      // Modeled as a DRAM chip/row failure: every materialized block at
      // this home takes an uncorrectable double flip, so the next memory
      // read (any refill that reaches DRAM) trips the ECC detector.
      MemoryStorage& mem = sys_.homeController(node).memory();
      if (mem.materializedBlocks() == 0) return false;
      std::vector<Addr> targets;
      targets.reserve(mem.materializedBlocks());
      for (const auto& [blk, data] : mem.blocks()) targets.push_back(blk);
      const std::size_t bit = rng_.below(kBlockSizeBytes * 8 - 1);
      for (Addr t : targets) {
        mem.injectBitFlip(t, bit);
        mem.injectBitFlip(t, bit + 1);
      }
      return true;
    }
    case FaultType::kMsgDrop:
    case FaultType::kMsgDuplicate:
    case FaultType::kMsgMisroute:
    case FaultType::kMsgReorder:
    case FaultType::kMsgDataCorrupt:
      armNetworkFault(t);
      return true;
    case FaultType::kLsqWrongForward:
      sys_.core(node).armLoadValueFault();
      return true;
    case FaultType::kWbValueCorrupt:
      // Resident (not yet issued) write-buffer entries are fleeting with
      // concurrent drains; try every node before giving up on this instant.
      for (std::size_t i = 0; i < sys_.numNodes(); ++i) {
        const NodeId n = static_cast<NodeId>((node + i) % sys_.numNodes());
        if (sys_.core(n).injectWbValueFault(rng_.next())) return true;
      }
      return false;
    case FaultType::kWbReorder:
      for (std::size_t i = 0; i < sys_.numNodes(); ++i) {
        const NodeId n = static_cast<NodeId>((node + i) % sys_.numNodes());
        if (sys_.core(n).armWbReorderFault()) return true;
      }
      return false;
    case FaultType::kCheckerCetCorrupt:
      if (sys_.cet(node) == nullptr) return false;
      return sys_.cet(node)->injectEntryCorruption(rng_.next());
  }
  return false;
}

void FaultInjector::armNetworkFault(FaultType t) {
  netFaultArmed_ = true;
  armedType_ = t;

  auto eligible = [](const Message& m) {
    // DVMC's own inform traffic and BER coordination are excluded: errors
    // there cause (at worst) false positives, never missed detections, and
    // the detection-latency experiment needs a real error to chase.
    switch (m.type) {
      case MsgType::kInformEpoch:
      case MsgType::kInformOpenEpoch:
      case MsgType::kInformClosedEpoch:
      case MsgType::kCkptSync:
      case MsgType::kCkptLog:
        return false;
      default:
        return true;
    }
  };

  auto filter = [this, eligible](Message& m) -> NetFaultAction {
    if (!netFaultArmed_ || !eligible(m)) return NetFaultAction::kDeliver;
    netFaultArmed_ = false;
    switch (armedType_) {
      case FaultType::kMsgDrop:
        return NetFaultAction::kDrop;
      case FaultType::kMsgDuplicate:
        return NetFaultAction::kDuplicate;
      case FaultType::kMsgMisroute:
        m.dest = static_cast<NodeId>((m.dest + 1) % sys_.numNodes());
        return NetFaultAction::kDeliver;
      case FaultType::kMsgReorder:
        return NetFaultAction::kDelay;
      case FaultType::kMsgDataCorrupt:
        if (m.hasData) {
          m.data.flipBit(rng_.below(kBlockSizeBytes * 8));
        } else {
          m.addr ^= kBlockSizeBytes;  // control message: corrupt the address
        }
        return NetFaultAction::kDeliver;
      default:
        return NetFaultAction::kDeliver;
    }
  };

  if (armedType_ == FaultType::kMsgReorder && sys_.addrNet() != nullptr) {
    sys_.addrNet()->setFaultFilter(filter);
  } else {
    sys_.dataNet().setFaultFilter(filter);
  }
}

}  // namespace dvmc
