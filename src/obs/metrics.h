#pragma once

// The observability substrate (DESIGN: docs/ARCHITECTURE.md, "Observability").
//
// A MetricsRegistry holds named counters, gauges, and fixed-bucket
// histograms. Lookup by name interns the metric and returns a stable
// handle; instrumented hot paths resolve their handles once (at wiring
// time) and afterwards touch only a pointer — registry access never sits
// on the critical-path profile.
//
// All values are keyed to *simulation* quantities (sim seconds, event
// counts, wei), never wall clock, so two identically seeded runs produce
// byte-identical exports.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace topo::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void reset() { value_ = 0; }
  /// Overwrites the count (world-fork restore path).
  void restore(uint64_t v) { value_ = v; }

 private:
  uint64_t value_ = 0;
};

/// Last-value metric with high-water tracking (queue depths, wei spent).
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(double v) { set(value_ + v); }
  /// Raises the high-water mark without moving the current value.
  void update_max(double v) {
    if (v > max_) max_ = v;
  }
  double value() const { return value_; }
  double max() const { return max_; }
  void reset() { value_ = max_ = 0.0; }
  /// Overwrites value and high-water mark (world-fork restore path; set()
  /// cannot express value < max).
  void restore(double value, double max) {
    value_ = value;
    max_ = max;
  }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

struct HistogramSnapshot;

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges; one
/// implicit overflow bucket catches everything above the last edge.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  void reset();
  /// Overwrites every tally from a snapshot taken of a histogram with the
  /// same bucket bounds (world-fork restore path).
  void restore(const HistogramSnapshot& snap);

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point-in-time copy of one histogram (exportable / diffable).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  bool operator==(const HistogramSnapshot& o) const = default;
};

/// Point-in-time copy of a whole registry, name-sorted so exports are
/// deterministic. `diff_since` turns a cumulative snapshot into a per-call
/// delta (counters and histogram counts subtract; gauges keep the current
/// value, as they are levels, not flows).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, double> gauge_maxes;
  std::map<std::string, HistogramSnapshot> histograms;

  MetricsSnapshot diff_since(const MetricsSnapshot& before) const;

  /// Folds another registry's snapshot into this one — the aggregation a
  /// sharded campaign (topo::exec) applies across its per-shard world
  /// replicas. Flows accumulate: counters and histogram tallies add
  /// (bucket-wise; min/max combine). Levels aggregate conservatively:
  /// gauges sum (disjoint replicas each hold their own share of e.g. sim
  /// seconds or wei spent) while gauge high-water marks take the max.
  /// Histograms under the same name with different bucket bounds are
  /// incompatible; the first-*observed* bounds win (an empty side adopts
  /// the other's bounds and tallies wholesale), and a non-empty loser's
  /// observations fold into the winner's overflow bucket so the
  /// sum(counts) == count invariant survives. Merging is associative and
  /// order-independent up to bucket placement of incompatible tallies.
  MetricsSnapshot& merge(const MetricsSnapshot& other);

  bool operator==(const MetricsSnapshot& o) const = default;
};

/// Owner of every metric. Handles returned by counter()/gauge()/histogram()
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interned lookup: creates on first use, O(1) (amortized hash) after.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` are only consulted on first use; later lookups return the
  /// existing histogram unchanged.
  Histogram& histogram(const std::string& name, const std::vector<double>& bounds);

  MetricsSnapshot snapshot() const;

  /// Overwrites the registry from a snapshot: every named metric is
  /// interned (histograms with the snapshot's bounds) and set to the
  /// captured value, so counters/gauges keep accumulating from exactly
  /// where the snapshotted world stood. Existing handles stay valid;
  /// metrics absent from the snapshot are reset to zero.
  void restore(const MetricsSnapshot& snap);

 private:
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Standard duration buckets (sim seconds) for the probe-phase histograms.
const std::vector<double>& duration_bounds();

/// Standard occupancy buckets (fractions of capacity in [0, 1]).
const std::vector<double>& fraction_bounds();

}  // namespace topo::obs
