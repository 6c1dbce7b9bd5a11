#include "system/stats_report.hpp"

#include <iomanip>
#include <map>
#include <string>

namespace dvmc {

namespace {

void printMetricSet(std::ostream& os, const std::string& prefix,
                    const MetricSet& stats, bool includeZero) {
  for (const auto& [name, value] : stats.all()) {
    if (value == 0 && !includeZero) continue;
    os << "  " << std::left << std::setw(44) << (prefix + name) << " "
       << value << "\n";
  }
}

/// Sums same-named counters across nodes.
class Aggregate {
 public:
  void add(const MetricSet& s) {
    for (const auto& [name, value] : s.all()) sums_[name] += value;
  }
  void print(std::ostream& os, const std::string& prefix,
             bool includeZero) const {
    for (const auto& [name, value] : sums_) {
      if (value == 0 && !includeZero) continue;
      os << "  " << std::left << std::setw(44) << (prefix + name) << " "
         << value << "\n";
    }
  }

 private:
  std::map<std::string, std::uint64_t> sums_;
};

}  // namespace

void printStatsReport(System& sys, std::ostream& os,
                      const StatsReportOptions& opts) {
  const SystemConfig& cfg = sys.config();
  os << "==================== system statistics ====================\n";
  os << "config: " << cfg.numNodes << "-node " << protocolName(cfg.protocol)
     << ", " << modelName(cfg.model) << ", workload "
     << workloadName(cfg.workload) << ", seed " << cfg.seed << "\n";
  os << "cycles: " << sys.sim().now()
     << "  events: " << sys.sim().eventsExecuted() << "\n\n";

  // --- cores ---
  os << "[cores]\n";
  Aggregate cores;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    cores.add(sys.core(n).stats());
    if (opts.perNode) {
      os << " node " << n << ": retired=" << sys.core(n).retired()
         << " transactions=" << sys.core(n).transactions() << "\n";
    }
  }
  cores.print(os, "cpu/", opts.includeZero);

  // --- hierarchy (L1) ---
  os << "\n[cache hierarchy]\n";
  Aggregate l1;
  std::uint64_t replayMisses = 0;
  std::uint64_t regularMisses = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    l1.add(sys.hierarchy(n).stats());
    replayMisses += sys.hierarchy(n).replayLoadL1Misses();
    regularMisses += sys.hierarchy(n).regularLoadL1Misses();
  }
  l1.print(os, "l1/", opts.includeZero);
  if (regularMisses > 0) {
    os << "  " << std::left << std::setw(44) << "l1/replayMissRatio" << " "
       << static_cast<double>(replayMisses) /
              static_cast<double>(regularMisses)
       << "\n";
  }

  // --- protocol controllers ---
  os << "\n[coherence]\n";
  Aggregate l2;
  Aggregate homes;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    l2.add(sys.l2(n).stats());
    homes.add(sys.homeController(n).stats());
  }
  l2.print(os, "l2/", opts.includeZero);
  homes.print(os, "home/", opts.includeZero);

  // --- interconnect ---
  os << "\n[interconnect]\n";
  os << "  " << std::left << std::setw(44) << "net/totalBytes" << " "
     << sys.dataNet().totalBytes() << "\n";
  os << "  " << std::left << std::setw(44) << "net/maxLinkBytes" << " "
     << sys.dataNet().maxLinkBytes() << "\n";
  os << "  " << std::left << std::setw(44) << "net/peakLinkBytesPerCycle"
     << " " << sys.dataNet().peakLinkUtilization() << "\n";
  os << "  " << std::left << std::setw(44) << "net/coherenceBytes" << " "
     << sys.dataNet().classBytes(TrafficClass::kCoherence) << "\n";
  os << "  " << std::left << std::setw(44) << "net/informBytes" << " "
     << sys.dataNet().classBytes(TrafficClass::kInform) << "\n";
  os << "  " << std::left << std::setw(44) << "net/ckptBytes" << " "
     << sys.dataNet().classBytes(TrafficClass::kCkpt) << "\n";
  if (sys.addrNet() != nullptr) {
    os << "  " << std::left << std::setw(44) << "addrnet/broadcasts" << " "
       << sys.addrNet()->broadcastsIssued() << "\n";
    os << "  " << std::left << std::setw(44) << "addrnet/totalBytes" << " "
       << sys.addrNet()->totalBytes() << "\n";
  }

  // --- checkers ---
  os << "\n[dvmc checkers]\n";
  Aggregate cet;
  Aggregate met;
  Aggregate shadow;
  std::size_t metEntries = 0;
  std::size_t metPeak = 0;
  for (NodeId n = 0; n < sys.numNodes(); ++n) {
    if (sys.cet(n) != nullptr) cet.add(sys.cet(n)->stats());
    if (sys.met(n) != nullptr) {
      met.add(sys.met(n)->stats());
      metEntries += sys.met(n)->metEntries();
      metPeak += sys.met(n)->peakMetEntries();
    }
    if (sys.shadowCache(n) != nullptr) {
      shadow.add(sys.shadowCache(n)->stats());
    }
    if (sys.shadowHome(n) != nullptr) {
      shadow.add(sys.shadowHome(n)->stats());
    }
  }
  cet.print(os, "cet/", opts.includeZero);
  met.print(os, "met/", opts.includeZero);
  shadow.print(os, "shadow/", opts.includeZero);
  if (metPeak > 0) {
    os << "  " << std::left << std::setw(44) << "met/entries" << " "
       << metEntries << "\n";
    os << "  " << std::left << std::setw(44) << "met/peakEntries" << " "
       << metPeak << "\n";
  }

  // --- BER ---
  if (sys.ber() != nullptr) {
    os << "\n[safetynet]\n";
    printMetricSet(os, "ber/", sys.ber()->stats(), opts.includeZero);
    os << "  " << std::left << std::setw(44) << "ber/checkpointsHeld" << " "
       << sys.ber()->checkpointCount() << "\n";
    os << "  " << std::left << std::setw(44) << "ber/recoveryWindow" << " "
       << sys.ber()->recoveryWindow() << "\n";
  }

  // --- detections ---
  os << "\n[detections] count=" << sys.sink().count() << "\n";
  std::size_t shown = 0;
  for (const Detection& d : sys.sink().detections()) {
    if (shown++ >= 10) {
      os << "  ... (" << sys.sink().count() - 10 << " more)\n";
      break;
    }
    os << "  " << checkerKindName(d.kind) << " @" << d.cycle << " node "
       << d.node << " addr 0x" << std::hex << d.addr << std::dec << ": "
       << d.what << "\n";
  }
  os << "============================================================\n";
}

}  // namespace dvmc
