#include "system/stats_report.hpp"

#include <algorithm>
#include <iomanip>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace dvmc {

namespace {

template <typename T>
void printLine(std::ostream& os, const std::string& name, const T& value) {
  os << "  " << std::left << std::setw(44) << name << " " << value << "\n";
}

/// Every scalar of a merged snapshot, name-sorted: counters and gauges as
/// they are, each histogram as its count and max.
std::map<std::string, std::uint64_t> scalarsOf(const MetricSnapshot& snap) {
  std::map<std::string, std::uint64_t> out = snap.counters;
  for (const auto& [name, h] : snap.histograms) {
    out[name + ".count"] = h.count();
    out[name + ".max"] = h.maxValue();
  }
  return out;
}

/// Prints the scalars whose family (the name up to its first '.') is one
/// of `families`, as "group/name value" lines.
void printGroup(std::ostream& os,
                const std::map<std::string, std::uint64_t>& scalars,
                std::initializer_list<std::string_view> families,
                const std::string& group, bool includeZero) {
  for (const auto& [name, value] : scalars) {
    if (value == 0 && !includeZero) continue;
    const std::string_view family =
        std::string_view(name).substr(0, name.find('.'));
    if (std::find(families.begin(), families.end(), family) ==
        families.end()) {
      continue;
    }
    printLine(os, group + name, value);
  }
}

}  // namespace

void printStatsReport(System& sys, std::ostream& os,
                      const StatsReportOptions& opts) {
  const SystemConfig& cfg = sys.config();
  const MetricSnapshot snap = sys.metricsSnapshot();
  const std::map<std::string, std::uint64_t> scalars = scalarsOf(snap);
  auto group = [&](std::initializer_list<std::string_view> families,
                   const std::string& prefix) {
    printGroup(os, scalars, families, prefix, opts.includeZero);
  };
  os << "==================== system statistics ====================\n";
  os << "config: " << cfg.numNodes << "-node " << protocolName(cfg.protocol)
     << ", " << modelName(cfg.model) << ", workload "
     << workloadName(cfg.workload) << ", seed " << cfg.seed << "\n";
  os << "cycles: " << sys.sim().now()
     << "  events: " << sys.sim().eventsExecuted() << "\n\n";

  // --- cores ---
  os << "[cores]\n";
  if (opts.perNode) {
    for (NodeId n = 0; n < sys.numNodes(); ++n) {
      os << " node " << n << ": retired=" << sys.core(n).retired()
         << " transactions=" << sys.core(n).transactions() << "\n";
    }
  }
  group({"cpu"}, "cpu/");

  // --- hierarchy (L1) ---
  os << "\n[cache hierarchy]\n";
  group({"l1"}, "l1/");
  const std::uint64_t regularMisses = snap.value("l1.miss");
  if (regularMisses > 0) {
    printLine(os, "l1/replayMissRatio",
              static_cast<double>(snap.value("l1.replayMiss")) /
                  static_cast<double>(regularMisses));
  }

  // --- protocol controllers ---
  os << "\n[coherence]\n";
  group({"l2", "protocol"}, "l2/");
  group({"home", "mem"}, "home/");

  // --- interconnect ---
  os << "\n[interconnect]\n";
  printLine(os, "net/totalBytes", snap.value("net.totalBytes"));
  printLine(os, "net/maxLinkBytes", sys.dataNet().maxLinkBytes());
  printLine(os, "net/peakLinkBytesPerCycle",
            sys.dataNet().peakLinkUtilization());
  printLine(os, "net/coherenceBytes", snap.value("net.coherenceBytes"));
  printLine(os, "net/informBytes", snap.value("net.informBytes"));
  printLine(os, "net/ckptBytes", snap.value("net.ckptBytes"));
  if (sys.addrNet() != nullptr) {
    printLine(os, "addrnet/broadcasts", sys.addrNet()->broadcastsIssued());
    printLine(os, "addrnet/totalBytes", sys.addrNet()->totalBytes());
  }

  // --- checkers ---
  os << "\n[dvmc checkers]\n";
  group({"cet"}, "cet/");
  group({"met"}, "met/");
  group({"shadow"}, "shadow/");
  group({"vc"}, "vc/");
  group({"ar"}, "ar/");

  // --- BER ---
  if (sys.ber() != nullptr) {
    os << "\n[safetynet]\n";
    group({"ber"}, "ber/");
    printLine(os, "ber/checkpointsHeld", sys.ber()->checkpointCount());
    printLine(os, "ber/recoveryWindow", sys.ber()->recoveryWindow());
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
