#pragma once

// Continuous topology monitoring (topo::monitor) — ROADMAP item 3.
//
// A one-shot TopoShot campaign answers "what is the topology right now";
// the TopologyMonitor answers "what is the topology *over time*" against a
// ground truth that keeps drifting. It runs discrete epochs. Epoch 0
// bootstraps with the full §5.3.2 schedule (the one-shot product); every
// later epoch (1) drifts the ground truth with seeded link churn
// (fault::drift_topology), (2) folds the churn's *node-level* discovery
// hints into the link table (the monitor learns which peers churned, as a
// real deployment would from peer-list discovery — never which links),
// (3) re-measures only the `epoch_budget` stalest / least-confident pairs,
// chosen by a priority order over decayed confidence (LinkTable::
// prioritized_pairs), via one sharded incremental campaign
// (exec::run_sharded_campaign with CampaignOptions::pairs), and (4)
// publishes an immutable TopologySnapshot. Published snapshots serve the
// rpc::MonitorRpcServer read API without ever blocking the measurement
// loop.
//
// Determinism contract (tests/test_determinism.cpp, MonitorGolden*):
// snapshots, diffs, and status carry no sim-time or wall-clock fields, so
// a scripted run's artifacts are byte-identical at any --threads width;
// the monitor's own metrics registry (and therefore the topo_getMetrics
// Prometheus exposition) keeps only shard-invariant `monitor.*` / `obs.*`
// series. The telemetry plane added for the live daemon — the EpochStats
// ring behind topo_getHealth and the structured event log — stamps
// everything with *sim* time, so it too is byte-identical across
// --threads widths; like trace spans (one kEpoch span per epoch) it does
// depend on --shards, because shard replicas repeat warm-up work and that
// moves sim-time durations and event counts.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include <string>

#include "core/config.h"
#include "core/strategy.h"
#include "core/toposhot.h"
#include "exec/campaign.h"
#include "fault/fault.h"
#include "graph/graph.h"
#include "monitor/health.h"
#include "monitor/link_table.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace topo::monitor {

/// Epoch-loop knobs. Campaign-level options (group_k, strategy, threads,
/// shards, traffic churn, fault plan) are forwarded into every epoch's
/// exec::run_sharded_campaign unchanged.
struct MonitorOptions {
  /// Pairs re-measured per post-bootstrap epoch. 0 = auto: max(16, 15% of
  /// all pairs) — comfortably under the 20%-per-epoch re-probe ceiling the
  /// acceptance gate holds the daemon to, clamped to the pair count.
  size_t epoch_budget = 0;

  /// Expected ground-truth link changes injected per epoch (the fractional
  /// part is a Bernoulli draw from the epoch's drift stream). 0 freezes the
  /// topology.
  double churn_per_epoch = 2.0;

  /// Confidence half-life in epochs: a verdict measured h epochs ago keeps
  /// 2^-(age/h) confidence. <= 0 disables decay (only churn hints force
  /// re-measurement).
  double decay_half_life = 4.0;

  /// Epoch 0 measures the full §5.3.2 schedule over all pairs instead of a
  /// budgeted subset — the warm-start every later epoch refines.
  bool bootstrap_full = true;

  /// Record one obs::SpanKind::kEpoch span per epoch into the monitor's
  /// tracer (sim-time clock = cumulative campaign makespans).
  bool collect_spans = false;

  /// Watchdog thresholds over the EpochStats ring (see monitor/health.h).
  HealthThresholds health;

  /// EpochStats ring depth — how many recent epochs topo_getHealth serves.
  size_t stats_capacity = 32;

  // -- forwarded into each epoch's CampaignOptions ---------------------------
  size_t group_k = 3;
  core::StrategyKind strategy = core::StrategyKind::kToposhot;
  size_t threads = 1;
  size_t shards = 0;
  double traffic_churn_rate = 0.0;  ///< organic traffic + mining per replica
  fault::FaultPlan fault_plan;
};

/// One ground-truth change the drift process injected, stamped with the
/// epoch whose measurements could first see it. Ground truth — kept for
/// evaluation (evaluate_tracking) only; the monitor's measurement path
/// never reads it.
struct InjectedChange {
  uint64_t epoch = 0;
  fault::LinkChange change;

  friend bool operator==(const InjectedChange&, const InjectedChange&) = default;
};

/// Detection scorecard versus the injected ground truth.
struct TrackingEvaluation {
  size_t scoreable = 0;   ///< changes with a full scoring window
  size_t detected = 0;    ///< reflected in some snapshot within the window
  size_t superseded = 0;  ///< overwritten by a later change before scoring
  size_t pending = 0;     ///< window extends past the last published epoch
  double mean_latency_epochs = 0.0;  ///< over detected changes

  double detection_rate() const {
    return scoreable == 0 ? 1.0
                          : static_cast<double>(detected) /
                                static_cast<double>(scoreable);
  }
};

/// The daemon core. Single-writer: run_epoch()/run() belong to one thread
/// (the measurement loop); the versioned read API (snapshot / latest /
/// diff / status / versions) is safe to call concurrently from any number
/// of reader threads and never blocks on a running epoch beyond a brief
/// pointer copy. Evaluation accessors (truth, injected_changes, metrics,
/// tracer) are writer-thread-only.
class TopologyMonitor {
 public:
  /// `truth` is the live ground-truth topology (the monitor drifts its own
  /// copy); `world` seeds and shapes every epoch's replicas (world.seed is
  /// the single seed of the whole run — drift streams and per-epoch world
  /// seeds derive from it); `cfg` is the probe configuration
  /// (collect_diagnostics is forced on — the monitor needs per-pair causes
  /// to reconstruct verdicts).
  TopologyMonitor(graph::Graph truth, core::ScenarioOptions world,
                  core::MeasureConfig cfg, MonitorOptions opt);

  struct EpochResult {
    uint64_t epoch = 0;
    size_t pairs_selected = 0;    ///< pairs this epoch measured
    size_t changes_injected = 0;  ///< ground-truth drift applied
    size_t hints = 0;             ///< table entries marked stale by node hints
    size_t flips = 0;             ///< verdict changes observed
    double sim_seconds = 0.0;     ///< campaign makespan (critical path)
    std::shared_ptr<const TopologySnapshot> snapshot;
  };

  /// Runs one epoch (drift → hint → select → measure → fold → publish) and
  /// returns its summary, including the published snapshot.
  EpochResult run_epoch();

  /// Runs `epochs` epochs back to back.
  void run(uint64_t epochs);

  size_t nodes() const { return table_.nodes(); }
  size_t pairs_total() const { return table_.pairs_total(); }
  uint64_t epochs_run() const { return epochs_run_; }

  /// Budget actually applied to post-bootstrap epochs (resolves the 0 =
  /// auto rule, clamped to pairs_total).
  size_t effective_epoch_budget() const;

  // -- versioned read API (thread-safe) --------------------------------------

  /// Published snapshot for `version`; nullptr when unknown. Versions are
  /// dense: 0 .. versions()-1.
  std::shared_ptr<const TopologySnapshot> snapshot(uint64_t version) const;
  std::shared_ptr<const TopologySnapshot> latest() const;
  uint64_t versions() const;

  /// Structural diff between two published versions; nullopt when either
  /// is unknown.
  std::optional<TopologyDiff> diff(uint64_t v1, uint64_t v2) const;

  /// Aggregate state. Before the first epoch, a zeroed status carrying
  /// only the topology dimensions. Always carries the daemon's own
  /// event-log pressure (log_dropped — status-v2).
  MonitorStatus status() const;

  /// Latest watchdog verdict over the EpochStats ring, published at the end
  /// of every epoch (before the first: `stalled`, empty ring). Never null.
  std::shared_ptr<const HealthReport> health() const;

  /// Latest Prometheus text exposition of the monitor's registry, published
  /// at the end of every epoch (empty string before the first). Never null.
  /// Like the registry itself it holds only shard-invariant series, so the
  /// bytes are identical across --threads widths.
  std::shared_ptr<const std::string> metrics_exposition() const;

  // -- evaluation / observability (writer thread only) -----------------------

  const graph::Graph& truth() const { return truth_; }
  const std::vector<InjectedChange>& injected_changes() const { return changes_log_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  const obs::SpanTracer& tracer() const { return tracer_; }

  /// Structured event log (epoch lifecycle, budget clamps, churn hints,
  /// ring/arena pressure, RPC errors). Unlike the other observability
  /// accessors it is internally synchronized, so the RPC server may append
  /// error events from reader threads while the epoch loop writes.
  obs::EventLog& event_log() const { return log_; }

 private:
  std::vector<std::pair<size_t, size_t>> select_pairs(uint64_t epoch) const;

  graph::Graph truth_;
  core::ScenarioOptions world_;
  core::MeasureConfig cfg_;
  MonitorOptions opt_;

  LinkTable table_;
  uint64_t epochs_run_ = 0;
  uint64_t pairs_measured_ = 0;
  uint64_t changes_observed_ = 0;
  double sim_seconds_total_ = 0.0;
  std::vector<InjectedChange> changes_log_;

  obs::MetricsRegistry metrics_;
  obs::SpanTracer tracer_;
  mutable obs::EventLog log_;
  std::vector<EpochStats> stats_;  // bounded ring, oldest first
  HealthState last_health_ = HealthState::kStalled;
  bool budget_clamp_logged_ = false;

  mutable std::mutex versions_mutex_;
  std::vector<std::shared_ptr<const TopologySnapshot>> versions_;
  std::shared_ptr<const HealthReport> health_;
  std::shared_ptr<const std::string> exposition_;
};

/// Scores the monitor's snapshots against its injected ground-truth log: a
/// change at epoch e is *detected* when some published version in
/// [e, e + within - 1] reports the pair's verdict agreeing with the change
/// (added → connected, removed → not connected). Changes overwritten by
/// later drift inside the window are `superseded`; changes whose window
/// runs past the last published epoch are `pending`; neither counts
/// against the detection rate.
TrackingEvaluation evaluate_tracking(const TopologyMonitor& m, uint64_t within);

}  // namespace topo::monitor
