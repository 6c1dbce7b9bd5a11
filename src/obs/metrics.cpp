#include "obs/metrics.hpp"

namespace dvmc {

Counter MetricSet::counter(std::string name) {
  for (CounterSlot& s : counters_) {
    if (s.name == name) return Counter(&s.value);
  }
  counters_.push_back(CounterSlot{std::move(name), 0});
  return Counter(&counters_.back().value);
}

Gauge MetricSet::gauge(std::string name) {
  for (GaugeSlot& s : gauges_) {
    if (s.name == name) return Gauge(&s.value, &s.peak);
  }
  gauges_.push_back(GaugeSlot{std::move(name), 0, 0});
  return Gauge(&gauges_.back().value, &gauges_.back().peak);
}

Histogram MetricSet::histogram(std::string name) {
  for (HistoSlot& s : histos_) {
    if (s.name == name) return Histogram(&s.hist);
  }
  histos_.push_back(HistoSlot{std::move(name), {}});
  return Histogram(&histos_.back().hist);
}

std::uint64_t MetricSet::get(std::string_view name) const {
  for (const CounterSlot& s : counters_) {
    if (s.name == name) return s.value;
  }
  for (const GaugeSlot& s : gauges_) {
    if (s.name == name) return s.value;
    if (name.size() == s.name.size() + 5 && name.substr(0, s.name.size()) == s.name &&
        name.substr(s.name.size()) == ".peak") {
      return s.peak;
    }
  }
  for (const HistoSlot& s : histos_) {
    if (s.name == name) return s.hist.count();
  }
  return 0;
}

const std::uint64_t* MetricSet::findScalar(std::string_view name) const {
  for (const CounterSlot& s : counters_) {
    if (s.name == name) return &s.value;
  }
  for (const GaugeSlot& s : gauges_) {
    if (s.name == name) return &s.value;
    if (name.size() == s.name.size() + 5 &&
        name.substr(0, s.name.size()) == s.name &&
        name.substr(s.name.size()) == ".peak") {
      return &s.peak;
    }
  }
  return nullptr;
}

const LatencyHistogram* MetricSet::findHistogram(std::string_view name) const {
  for (const HistoSlot& s : histos_) {
    if (s.name == name) return &s.hist;
  }
  return nullptr;
}

void MetricSet::snapshotInto(MetricSnapshot& out,
                             const std::string& prefix) const {
  for (const CounterSlot& s : counters_) out.counters[prefix + s.name] += s.value;
  for (const GaugeSlot& s : gauges_) {
    out.counters[prefix + s.name] += s.value;
    out.counters[prefix + s.name + ".peak"] += s.peak;
  }
  for (const HistoSlot& s : histos_) {
    out.histograms[prefix + s.name].merge(s.hist);
  }
}

void MetricSnapshot::merge(const MetricSnapshot& o) {
  for (const auto& [name, value] : o.counters) counters[name] += value;
  for (const auto& [name, hist] : o.histograms) histograms[name].merge(hist);
}

bool MetricSnapshot::operator==(const MetricSnapshot& o) const {
  if (counters != o.counters) return false;
  if (histograms.size() != o.histograms.size()) return false;
  auto it = histograms.begin();
  auto jt = o.histograms.begin();
  for (; it != histograms.end(); ++it, ++jt) {
    if (it->first != jt->first || !(it->second == jt->second)) return false;
  }
  return true;
}

}  // namespace dvmc
