// Typed metric registry (observability subsystem).
//
// Components register every metric exactly once at construction and keep
// the returned handle; the hot path is then a plain `++*slot` with no map
// lookup or string hashing (the string-keyed StatSet it replaces paid an
// rb-tree walk per event). Three metric types:
//
//   * Counter   — monotonically increasing event count.
//   * Gauge     — instantaneous level with a tracked peak (high-water mark).
//   * Histogram — power-of-two-bucket latency/size distribution.
//
// Each component owns one MetricSet (its slice of the registry). The
// system layer collects per-component sets into a MetricSnapshot — a
// name-sorted value map with optional per-node scoping ("node3/" prefixes)
// — and snapshots merge deterministically: runSeeds sums per-seed
// snapshots in seed order, so parallel experiment fan-out stays
// bit-identical to a sequential run.
//
// Handle lifetime: handles borrow slots owned by the MetricSet; a handle
// must not outlive its set. Slots live in deques, so registering more
// metrics never invalidates existing handles.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace dvmc {

class MetricSet;

/// Cheap counter handle: one 64-bit add on the hot path.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t by = 1) { *v_ += by; }
  std::uint64_t value() const { return *v_; }

 private:
  friend class MetricSet;
  explicit Counter(std::uint64_t* v) : v_(v) {}
  std::uint64_t* v_ = nullptr;
};

/// Level handle; tracks the peak seen so far alongside the current value.
class Gauge {
 public:
  Gauge() = default;
  void set(std::uint64_t v) {
    *v_ = v;
    if (v > *peak_) *peak_ = v;
  }
  std::uint64_t value() const { return *v_; }
  std::uint64_t peak() const { return *peak_; }

 private:
  friend class MetricSet;
  Gauge(std::uint64_t* v, std::uint64_t* peak) : v_(v), peak_(peak) {}
  std::uint64_t* v_ = nullptr;
  std::uint64_t* peak_ = nullptr;
};

/// Distribution handle over power-of-two buckets (LatencyHistogram slot).
class Histogram {
 public:
  Histogram() = default;
  void add(std::uint64_t v) { h_->add(v); }
  const LatencyHistogram& dist() const { return *h_; }

 private:
  friend class MetricSet;
  explicit Histogram(LatencyHistogram* h) : h_(h) {}
  LatencyHistogram* h_ = nullptr;
};

/// A name-sorted, mergeable snapshot of metric values. Gauges contribute
/// their current value under their name and the peak under "<name>.peak";
/// histograms are carried whole so merged distributions stay exact.
struct MetricSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, LatencyHistogram> histograms;

  /// Element-wise sum / distribution merge. Associative and (for the
  /// uint64 sums) order-independent, so any merge order over the same run
  /// set yields bit-identical results.
  void merge(const MetricSnapshot& o);

  std::uint64_t value(std::string_view name) const {
    auto it = counters.find(std::string(name));
    return it == counters.end() ? 0 : it->second;
  }

  bool operator==(const MetricSnapshot& o) const;
};

/// One component's slice of the metric registry: registration at
/// construction, cheap handles afterwards, slow-path introspection for
/// tests and reports. Register each name once; re-registering the same
/// name returns a handle to the existing slot.
class MetricSet {
 public:
  MetricSet() = default;
  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  Counter counter(std::string name);
  Gauge gauge(std::string name);
  Histogram histogram(std::string name);

  /// Slow-path lookup by full metric name (tests). Gauges resolve to the
  /// current value, "<name>.peak" to the peak; histograms to their count.
  /// Unknown names read as 0, mirroring StatSet::get.
  std::uint64_t get(std::string_view name) const;

  /// Pointer to the scalar slot backing `name` (counter value, gauge
  /// value, or "<name>.peak"); nullptr when unknown. Slot addresses are
  /// stable for the life of the set, so samplers can resolve names once
  /// and read raw pointers every tick instead of snapshotting the world.
  const std::uint64_t* findScalar(std::string_view name) const;

  const LatencyHistogram* findHistogram(std::string_view name) const;

  /// Adds this set's values into `out`, prefixing names with `prefix`
  /// (e.g. "node3/" for per-node scoping; empty for aggregate).
  void snapshotInto(MetricSnapshot& out, const std::string& prefix = {}) const;

 private:
  struct CounterSlot {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSlot {
    std::string name;
    std::uint64_t value = 0;
    std::uint64_t peak = 0;
  };
  struct HistoSlot {
    std::string name;
    LatencyHistogram hist;
  };

  // Deques: stable slot addresses under growth (handles point into these).
  std::deque<CounterSlot> counters_;
  std::deque<GaugeSlot> gauges_;
  std::deque<HistoSlot> histos_;
};

}  // namespace dvmc
