#pragma once

#include <cstddef>

#include "core/config.h"
#include "core/schedule.h"
#include "core/toposhot.h"
#include "exec/merge.h"
#include "exec/shard.h"
#include "fault/fault.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace topo::exec {

/// Knobs of a sharded full-topology campaign.
struct CampaignOptions {
  /// Group size K of the §5.3.2 schedule.
  size_t group_k = 3;

  /// Measurement strategy each shard replica drives its batches through
  /// (Scenario::make_strategy over the replica's world). The default TopoShot
  /// keeps campaigns byte-identical to pre-seam builds; the choice is part
  /// of the campaign's identity and is echoed in the merged report.
  core::StrategyKind strategy = core::StrategyKind::kToposhot;

  /// Worker pool width. Execution-only: any value produces the same merged
  /// report, because the shard plan (not the pool) fixes the decomposition.
  size_t threads = 1;

  /// Shard count; 0 = min(kDefaultShards, batch count). Changing it changes
  /// which replica measures which batch — and therefore the sampled world —
  /// so it is part of the campaign's seed-like identity, unlike `threads`.
  size_t shards = 0;

  /// Explicit candidate-pair subset (target indices, caller's priority
  /// order). Empty (the default) measures the full §5.3.2 schedule over all
  /// of truth's pairs; non-empty batches exactly these pairs via
  /// core::make_batches_for_pairs — the incremental-re-measurement path the
  /// topology monitor (src/monitor) drives each epoch. Like group_k, the
  /// pair list is part of the campaign's identity.
  std::vector<std::pair<size_t, size_t>> pairs;

  /// >0: organic traffic + a mining drain per replica, mirroring what the
  /// sequential benches do on their single scenario before measuring.
  double churn_rate = 0.0;

  /// Fault injection, applied per replica with an injector seeded from the
  /// shard seed — the merged report stays a pure function of (truth,
  /// options, cfg, group_k, shards, fault_plan) at any thread count. A
  /// default (disabled) plan costs nothing and leaves reports
  /// byte-identical to pre-fault builds.
  fault::FaultPlan fault_plan;

  /// Build one warmed base world (populate + background seeding under the
  /// base seed) and stamp each shard's replica out of its snapshot
  /// (core::Scenario::fork) instead of rebuilding and re-warming per shard.
  /// Purely an execution strategy: replicas are reseeded with their shard
  /// seed after forking, exactly as the rebuild path reseeds after warming,
  /// so the merged report is byte-identical either way at any width.
  bool fork_worlds = true;

  /// Record causal spans (campaign → shard → batch → pair → phase) into
  /// CampaignResult::spans. Span ids are pure functions of the campaign
  /// structure, so the export is byte-identical at any `threads` width —
  /// but, like the report itself, it depends on `shards`. Off by default:
  /// tracing is observe-only but not free (one vector push per span).
  bool collect_spans = false;

  static constexpr size_t kDefaultShards = 16;
};

/// Outcome of a sharded campaign. `report` is the merged sequential-
/// equivalent artifact (`sim_seconds` = summed shard sim time);
/// `makespan_sim_seconds` is the slowest shard — the campaign's critical
/// path on an unbounded pool. `report.sim_seconds / makespan_sim_seconds`
/// bounds the achievable parallel speedup in simulated time.
struct CampaignResult {
  core::NetworkMeasurementReport report;
  obs::MetricsSnapshot metrics;

  /// Merged causal spans in canonical (stable-id) order; empty unless
  /// CampaignOptions::collect_spans. Export with obs::spans_to_chrome_json.
  std::vector<obs::Span> spans;

  double makespan_sim_seconds = 0.0;
  size_t shards = 0;            ///< effective shard count (post-clamp)
  size_t shards_requested = 0;  ///< what the caller asked for (pre-clamp)
  size_t batches = 0;
};

/// Measures the full topology of `truth` with the parallel schedule,
/// sharded across a worker pool (the scaling direction of the ROADMAP; the
/// independence it exploits is the paper's own: batches use disjoint EOAs,
/// Fig. 5 / Table 8).
///
/// The batch list comes from core::make_batches over all of truth's nodes;
/// ShardPlan partitions it; each shard gets a private world replica
/// (core::Scenario — p2p::Network + sim::Simulator + measurement node)
/// warmed under the *base* seed — forked from one shared warmed snapshot
/// when opt.fork_worlds, rebuilt from scratch otherwise — then reseeded
/// with its SplitMix-derived shard seed, prepared per `opt`, and driven
/// through the configured core::MeasurementStrategy (TopoShot by default).
/// Shard results merge via ReportMerger.
///
/// Determinism contract: the result is a pure function of (truth,
/// base_options, cfg, group_k, shards) — `threads` only changes wall-clock
/// time, never one byte of the merged report or metrics.
CampaignResult run_sharded_campaign(const graph::Graph& truth,
                                    const core::ScenarioOptions& base_options,
                                    const core::MeasureConfig& cfg,
                                    const CampaignOptions& opt);

}  // namespace topo::exec
