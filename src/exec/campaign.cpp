#include "exec/campaign.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "exec/worker_pool.h"

namespace topo::exec {

namespace {
/// Stream tag separating the fault-injection RNG from every other consumer
/// of the shard seed.
constexpr uint64_t kFaultStream = 0xFA01;
}  // namespace

CampaignResult run_sharded_campaign(const graph::Graph& truth,
                                    const core::ScenarioOptions& base_options,
                                    const core::MeasureConfig& cfg,
                                    const CampaignOptions& opt) {
  const size_t n = truth.num_nodes();
  const size_t budget = core::slot_budget(cfg.flood_Z);
  const std::vector<core::MeasurementBatch> batches =
      opt.pairs.empty() ? core::make_batches(n, opt.group_k, budget)
                        : core::make_batches_for_pairs(opt.pairs, budget);

  const size_t want_shards =
      opt.shards != 0 ? opt.shards
                      : std::min(CampaignOptions::kDefaultShards, std::max<size_t>(1, batches.size()));
  const ShardPlan plan = ShardPlan::build(batches.size(), want_shards, base_options.seed);

  std::vector<core::NetworkMeasurementReport> shard_reports(plan.size());
  std::vector<obs::MetricsSnapshot> shard_metrics(plan.size());
  // One tracer per shard, built up front so workers never share one: each
  // shard's span sequence is single-threaded, and the merge sorts by the
  // stable ids afterwards.
  std::vector<obs::SpanTracer> tracers;
  if (opt.collect_spans) {
    tracers.reserve(plan.size());
    for (size_t s = 0; s < plan.size(); ++s) tracers.emplace_back(static_cast<uint32_t>(s));
  }

  // Fork mode: build and warm ONE base world under the base seed (populate
  // + background seeding — the expensive, shard-independent prefix), freeze
  // it, and stamp every shard's replica out of the snapshot. The snapshot
  // is self-contained (copy-on-write pages), so the base scenario itself is
  // destroyed before the workers start.
  std::optional<core::WorldSnapshot> base_world;
  if (opt.fork_worlds) {
    core::Scenario base(truth, base_options);
    base.seed_background();
    base_world = base.snapshot();
  }

  const WorkerPool pool(opt.threads);
  pool.run(plan.size(), [&](size_t s) {
    const ShardPlan::Shard& shard = plan.shards[s];

    // Both paths warm the world under the *base* seed, then give the
    // replica its shard identity via reseed() — so fork vs rebuild is pure
    // execution strategy and the merged report is byte-identical either
    // way.
    std::unique_ptr<core::Scenario> owned;
    if (opt.fork_worlds) {
      owned = core::Scenario::fork(*base_world);
    } else {
      owned = std::unique_ptr<core::Scenario>(new core::Scenario(truth, base_options));
      owned->seed_background();
    }
    core::Scenario& sc = *owned;
    sc.reseed(shard.seed);

    // Seeded from the shard seed: each replica faults the same way however
    // many workers execute the plan.
    fault::FaultInjector injector(opt.fault_plan,
                                  util::derive_stream_seed(shard.seed, kFaultStream));
    std::unique_ptr<core::MeasurementStrategy> strat = sc.make_strategy(opt.strategy, cfg);
    // prepare() runs on the warmed, reseeded replica — after the shared
    // warm prefix, so node-config mutations never leak into the snapshot
    // other shards fork from; a no-op for the default TopoShot strategy.
    strat->prepare(sc);
    if (opt.churn_rate > 0.0) sc.start_churn(opt.churn_rate);
    if (opt.fault_plan.enabled()) injector.install(sc.net(), &sc.metrics());

    obs::SpanTracer* tracer = opt.collect_spans ? &tracers[s] : nullptr;
    strat->set_tracer(tracer);

    core::NetworkMeasurementReport report;
    report.measured = graph::Graph(n);
    report.strategy = opt.strategy;
    if (opt.fault_plan.enabled() || cfg.inconclusive_retries > 0) {
      report.fault = fault::make_fault_report(opt.fault_plan, cfg.inconclusive_retries);
    }
    if (cfg.collect_diagnostics) report.diagnostics.emplace();
    const double t0 = sc.sim().now();
    uint64_t shard_span = 0;
    if (tracer != nullptr) {
      shard_span = tracer->open(obs::SpanKind::kShard, t0, obs::shard_span_id(s),
                                obs::kCampaignSpanId, s, shard.batch_ids.size());
      tracer->set_scope(shard_span);
    }
    // Primary sweep first, bounded re-measurement strictly after it: the
    // sweep's trajectory is byte-identical to a retries-off run, so the
    // retry pass can only add edges this shard's losses cost it.
    std::vector<core::RetriedPair> inconclusive;
    std::vector<core::RetriedPair>* collect =
        report.fault.has_value() || report.diagnostics.has_value() ? &inconclusive : nullptr;
    for (size_t b : shard.batch_ids) {
      // The *global* batch index keys the span ids, so a batch keeps its
      // identity whatever shard (and whatever worker) runs it.
      core::run_batch(*strat, sc.targets(), batches[b], b, report, collect);
    }
    core::run_retry_pass(*strat, sc.targets(), std::move(inconclusive), budget,
                         cfg.inconclusive_retries, report);
    report.sim_seconds = sc.sim().now() - t0;
    if (tracer != nullptr) {
      tracer->close(shard_span, sc.sim().now());
      tracer->set_scope(0);
    }

    shard_reports[s] = std::move(report);
    shard_metrics[s] = sc.snapshot_metrics();
  });

  // Merge on the caller's thread, in shard order — completion order never
  // leaks into the artifacts.
  ReportMerger merger(n);
  for (size_t s = 0; s < plan.size(); ++s) {
    merger.add(shard_reports[s]);
    merger.add_metrics(shard_metrics[s]);
    if (opt.collect_spans) merger.add_spans(tracers[s].spans());
  }

  CampaignResult result;
  result.report = merger.report();
  result.metrics = merger.metrics();
  result.makespan_sim_seconds = merger.makespan_sim_seconds();
  result.shards = plan.size();
  result.shards_requested = plan.requested;
  result.batches = batches.size();
  // Echo the shard width into the merged metrics: ShardPlan::build clamps
  // the request to the batch count, and a silently narrower campaign should
  // be visible in every exported artifact, not just the CLI.
  result.metrics.gauges["campaign.shards.requested"] = static_cast<double>(plan.requested);
  result.metrics.gauge_maxes["campaign.shards.requested"] = static_cast<double>(plan.requested);
  result.metrics.gauges["campaign.shards.effective"] = static_cast<double>(plan.size());
  result.metrics.gauge_maxes["campaign.shards.effective"] = static_cast<double>(plan.size());
  if (opt.collect_spans) {
    // The campaign root closes at the latest shard-span end (each shard's
    // clock starts at 0, so that is the campaign's simulated makespan
    // including per-replica preparation).
    obs::Span root;
    root.id = obs::kCampaignSpanId;
    root.kind = obs::SpanKind::kCampaign;
    root.a = plan.size();
    root.b = batches.size();
    for (const obs::SpanTracer& t : tracers) {
      for (const obs::Span& sp : t.spans()) root.end = std::max(root.end, sp.end);
    }
    merger.add_spans({root});
    result.spans = merger.take_spans();
  }
  return result;
}

}  // namespace topo::exec
