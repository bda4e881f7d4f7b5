#include "obs/metrics.h"

#include <algorithm>
#include <cassert>

namespace topo::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  ++counts_[bucket];
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  sum_ += v;
  ++count_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

void Histogram::restore(const HistogramSnapshot& snap) {
  assert(snap.bounds == bounds_ && "Histogram::restore: bucket bounds differ");
  counts_ = snap.counts;
  counts_.resize(bounds_.size() + 1, 0);
  count_ = snap.count;
  sum_ = snap.sum;
  min_ = snap.min;
  max_ = snap.max;
}

MetricsSnapshot MetricsSnapshot::diff_since(const MetricsSnapshot& before) const {
  MetricsSnapshot out = *this;
  for (auto& [name, v] : out.counters) {
    auto it = before.counters.find(name);
    if (it != before.counters.end()) v -= std::min(v, it->second);
  }
  for (auto& [name, h] : out.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    const HistogramSnapshot& old = it->second;
    if (old.counts.size() == h.counts.size()) {
      for (size_t i = 0; i < h.counts.size(); ++i)
        h.counts[i] -= std::min(h.counts[i], old.counts[i]);
    }
    h.count -= std::min(h.count, old.count);
    h.sum -= std::min(h.sum, old.sum);
    // min/max keep the cumulative values: the delta window has no record of
    // its own extremes.
  }
  return out;
}

MetricsSnapshot& MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, v] : other.gauge_maxes) {
    auto [it, fresh] = gauge_maxes.try_emplace(name, v);
    if (!fresh) it->second = std::max(it->second, v);
  }
  for (const auto& [name, h] : other.histograms) {
    auto [it, fresh] = histograms.try_emplace(name, h);
    if (fresh) continue;
    HistogramSnapshot& mine = it->second;
    if (h.count == 0) continue;
    if (mine.count == 0) {
      // Nothing observed on this side yet: adopt the other side's tallies
      // (bounds included) wholesale. First-*observed* bounds win, not merely
      // first-seen — an empty placeholder with different bounds must not
      // strand real observations in the incompatible-bounds path below.
      mine = h;
      continue;
    }
    mine.min = std::min(mine.min, h.min);
    mine.max = std::max(mine.max, h.max);
    if (mine.bounds == h.bounds) {
      for (size_t i = 0; i < mine.counts.size() && i < h.counts.size(); ++i) {
        mine.counts[i] += h.counts[i];
      }
    } else if (!mine.counts.empty()) {
      // Incompatible bounds: the per-bucket breakdown is unknowable, but the
      // invariant sum(counts) == count must survive (the Prometheus
      // exposition and bucket-sum consumers rely on it), so the other side's
      // observations land in the overflow bucket.
      mine.counts.back() += h.count;
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
  return *this;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    s.gauges[name] = g->value();
    s.gauge_maxes[name] = g->max();
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.counts = h->bucket_counts();
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    s.histograms[name] = std::move(hs);
  }
  return s;
}

void MetricsRegistry::restore(const MetricsSnapshot& snap) {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (const auto& [name, v] : snap.counters) counter(name).restore(v);
  for (const auto& [name, v] : snap.gauges) {
    auto mit = snap.gauge_maxes.find(name);
    gauge(name).restore(v, mit != snap.gauge_maxes.end() ? mit->second : v);
  }
  for (const auto& [name, hs] : snap.histograms) histogram(name, hs.bounds).restore(hs);
}

const std::vector<double>& duration_bounds() {
  static const std::vector<double> kBounds = {0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0};
  return kBounds;
}

const std::vector<double>& fraction_bounds() {
  static const std::vector<double> kBounds = {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0};
  return kBounds;
}

}  // namespace topo::obs
