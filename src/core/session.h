#pragma once

// MeasurementSession — the front door for driving measurements against a
// Scenario. It owns the MeasureConfig (one place to tune a campaign
// instead of threading a config through every call), shares the
// scenario's metrics registry, and annotates every result with the
// per-call metrics delta, so callers see exactly what one measurement
// cost (messages, evictions, probe phase timings) without bookkeeping of
// their own.
//
// The session is also where the measurement *strategy* is chosen: every
// measurement call dispatches through the core::MeasurementStrategy seam,
// so swapping TopoShot for a rival (set_strategy) changes the probe
// protocol without touching the call sites. Callers that must not take the
// session's two snapshot_metrics() calls per measurement (they publish
// gauges, which can raise `_max` companions in a written artifact) drive
// Scenario::make_strategy plus core::measure_all directly.

#include <vector>

#include "core/config.h"
#include "core/preprocess.h"
#include "core/schedule.h"
#include "core/strategy.h"
#include "core/toposhot.h"
#include "obs/metrics.h"

namespace topo::core {

/// A measurement result plus the metrics delta of producing it: counters
/// and histogram counts are per-call flows, gauges are the levels at the
/// time the call finished.
template <typename T>
struct Annotated {
  T value;
  obs::MetricsSnapshot metrics;
};

class MeasurementSession {
 public:
  /// Starts a session with the scenario's default measure config.
  explicit MeasurementSession(Scenario& scenario)
      : MeasurementSession(scenario, scenario.default_measure_config()) {}

  MeasurementSession(Scenario& scenario, MeasureConfig config)
      : scenario_(scenario), config_(config) {}

  MeasureConfig& config() { return config_; }
  const MeasureConfig& config() const { return config_; }

  Scenario& scenario() { return scenario_; }
  obs::MetricsRegistry& metrics() { return scenario_.metrics(); }

  /// Selects the measurement strategy for subsequent calls (default:
  /// TopoShot). The strategy's prepare() hook runs once per measurement
  /// call, before the probe traffic.
  void set_strategy(StrategyKind kind) { strategy_ = kind; }
  StrategyKind strategy() const { return strategy_; }

  /// measureOneLink(A, B) with the session config.
  Annotated<OneLinkResult> one_link(p2p::PeerId a, p2p::PeerId b);

  /// measurePar over explicit candidate edges.
  Annotated<ParallelResult> parallel(const std::vector<p2p::PeerId>& sources,
                                     const std::vector<p2p::PeerId>& sinks,
                                     const std::vector<ParallelEdge>& edges);

  /// Full-network schedule (§5.3.2) with group size K; `pre` filters
  /// excluded nodes and applies flood overrides when given.
  Annotated<NetworkMeasurementReport> network(size_t group_k,
                                              const PreprocessReport* pre = nullptr);

  /// Pre-processing pass over all scenario targets.
  Annotated<PreprocessReport> preprocess();

  /// Cumulative scenario metrics at this moment (includes `sim.*` and
  /// `cost.*` gauges; same as Scenario::snapshot_metrics).
  obs::MetricsSnapshot snapshot() { return scenario_.snapshot_metrics(); }

 private:
  /// Runs `fn`, returning its result annotated with the metrics delta.
  template <typename Fn>
  auto annotated(Fn&& fn) -> Annotated<decltype(fn())>;

  Scenario& scenario_;
  MeasureConfig config_;
  StrategyKind strategy_ = StrategyKind::kToposhot;
};

}  // namespace topo::core
