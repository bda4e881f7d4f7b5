// Workload `campaign`: one sharded full-topology TopoShot campaign
// (exec::run_sharded_campaign) over a scaled-down Ropsten-recipe overlay,
// repeated on the same inputs for the whole timed phase.
//
// The traced run re-composes the campaign from the public calls
// run_sharded_campaign makes, with a host-time span around each, and
// requires the re-composed merged report to be byte-identical to the
// library's.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "core/report_io.h"
#include "core/validator.h"
#include "exec/campaign.h"
#include "exec/worker_pool.h"

namespace perfbench {

namespace {

using namespace topo;

struct Inputs {
  graph::Graph truth;
  core::ScenarioOptions world;
  core::MeasureConfig cfg;
  exec::CampaignOptions copt;
};

struct Recomposed {
  exec::CampaignResult result;
  std::map<std::string, double> counts;
  double pool_ms = 0.0;
};

/// run_sharded_campaign's steps, for the options this workload uses (fork
/// worlds, background seeding, organic churn, no faults, no span
/// collection), each wrapped in a ledger span. Also tallies the per-shard
/// world counts against `fork_before` — the metrics of a fresh fork of the
/// base world.
Recomposed recompose(const Inputs& in, Ledger& L,
                     std::optional<obs::MetricsSnapshot>& fork_before) {
  const size_t n = in.truth.num_nodes();
  const exec::CampaignOptions& opt = in.copt;
  const size_t budget = core::slot_budget(in.cfg.flood_Z);
  const std::vector<core::MeasurementBatch> batches =
      L.span("core.make_batches", [&] { return core::make_batches(n, opt.group_k, budget); });
  const size_t want_shards =
      std::min(exec::CampaignOptions::kDefaultShards, std::max<size_t>(1, batches.size()));
  const exec::ShardPlan plan = L.span(
      "exec.plan", [&] { return exec::ShardPlan::build(batches.size(), want_shards, in.world.seed); });

  std::optional<core::WorldSnapshot> base_world;
  {
    std::unique_ptr<core::Scenario> base = L.span("exec.warm", [&] {
      auto sc = std::make_unique<core::Scenario>(in.truth, in.world);
      sc->seed_background();
      return sc;
    });
    base_world = L.span("exec.snapshot", [&] { return base->snapshot(); });
    L.span("exec.warm", [&] { base.reset(); });
  }
  if (!fork_before) fork_before = core::Scenario::fork(*base_world)->snapshot_metrics();

  std::vector<core::NetworkMeasurementReport> shard_reports(plan.size());
  std::vector<obs::MetricsSnapshot> shard_metrics(plan.size());
  const exec::WorkerPool pool(opt.threads);
  const auto pool_t0 = Clock::now();
  pool.run(plan.size(), [&](size_t s) {
    L.span("exec.shard", [&] {
      const exec::ShardPlan::Shard& shard = plan.shards[s];
      std::unique_ptr<core::Scenario> owned =
          L.span("exec.fork", [&] { return core::Scenario::fork(*base_world); });
      core::Scenario& sc = *owned;
      L.span("exec.reseed", [&] { sc.reseed(shard.seed); });
      std::unique_ptr<core::MeasurementStrategy> strat =
          L.span("core.make_strategy", [&] { return sc.make_strategy(opt.strategy, in.cfg); });
      L.span("core.prepare", [&] { strat->prepare(sc); });
      L.span("core.start_churn", [&] { sc.start_churn(opt.churn_rate); });

      core::NetworkMeasurementReport report;
      report.measured = graph::Graph(n);
      report.strategy = opt.strategy;
      const double t0 = sc.sim().now();
      for (size_t b : shard.batch_ids) {
        L.span("core.run_batch",
               [&] { core::run_batch(*strat, sc.targets(), batches[b], b, report, nullptr); });
      }
      L.span("core.retry_pass", [&] {
        core::run_retry_pass(*strat, sc.targets(), {}, budget, in.cfg.inconclusive_retries,
                             report);
      });
      report.sim_seconds = sc.sim().now() - t0;
      shard_reports[s] = std::move(report);
      shard_metrics[s] = L.span("obs.snapshot_metrics", [&] { return sc.snapshot_metrics(); });
      strat.reset();
      L.span("exec.teardown", [&] { owned.reset(); });
    });
  });
  Recomposed out;
  out.pool_ms = seconds_since(pool_t0) * 1e3;

  L.span("exec.merge", [&] {
    exec::ReportMerger merger(n);
    for (size_t s = 0; s < plan.size(); ++s) {
      merger.add(shard_reports[s]);
      merger.add_metrics(shard_metrics[s]);
    }
    out.result.report = merger.report();
    out.result.metrics = merger.metrics();
    out.result.makespan_sim_seconds = merger.makespan_sim_seconds();
  });
  out.result.shards = plan.size();
  out.result.shards_requested = plan.requested;
  out.result.batches = batches.size();
  auto echo = [&](const char* name, size_t v) {
    out.result.metrics.gauges[name] = static_cast<double>(v);
    out.result.metrics.gauge_maxes[name] = static_cast<double>(v);
  };
  echo("campaign.shards.requested", plan.requested);
  echo("campaign.shards.effective", plan.size());
  for (const obs::MetricsSnapshot& m : shard_metrics) add_world_counts(out.counts, *fork_before, m);
  return out;
}

std::string report_bytes(const core::NetworkMeasurementReport& r) {
  return core::report_to_json(r).dump();
}

/// Checks every pair verdict of a full-schedule report against the truth.
void check_verdicts(RunResult& res, const graph::Graph& truth,
                    const core::NetworkMeasurementReport& report) {
  const size_t n = truth.num_nodes();
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      const bool real = truth.has_edge(u, v);
      res.check(report.measured.has_edge(u, v) == real,
                "pair " + std::to_string(u) + "-" + std::to_string(v) + " measured " +
                    (real ? "absent" : "present") + " against the ground truth");
    }
  }
}

}  // namespace

RunResult run_campaign(const Args& a) {
  RunResult res;
  Inputs in;
  std::vector<double> emerge_ms;
  // Set-up: overlay emergence plus the scout world that scales the measure
  // config to the pools (what a campaign needs before it can start).
  for (size_t rep = 0; rep < a.get("setup_reps"); ++rep) {
    const auto t0 = Clock::now();
    in.truth = emerge_overlay(a);
    emerge_ms.push_back(seconds_since(t0) * 1e3);
    in.world = core::ScenarioOptions{};
    in.world.seed = a.seed();
    in.world.mempool_capacity = a.get("pool_capacity");
    in.world.future_cap = a.get("pool_future_cap");
    in.world.background_txs = a.get("background_txs");
    in.world.block_gas_limit = a.get("block_txs") * eth::kTransferGas;
    in.cfg = core::MeasureConfig::Builder(core::Scenario(in.truth, in.world).default_measure_config())
                 .repetitions(a.get("repetitions"))
                 .build();
    res.setup_s.push_back(seconds_since(t0));
  }
  in.copt.group_k = a.get("group_k");
  in.copt.threads = a.get("width");
  in.copt.churn_rate = a.real("churn_rate");

  // Warm-up campaign (untimed): the reference report every repeat must
  // reproduce byte for byte.
  const exec::CampaignResult ref = exec::run_sharded_campaign(in.truth, in.world, in.cfg, in.copt);
  const std::string ref_bytes = report_bytes(ref.report);
  check_verdicts(res, in.truth, ref.report);
  const core::PrecisionRecall pr = core::compare_graphs(in.truth, ref.report.measured);
  res.recall = pr.recall();
  res.precision = pr.precision();

  if (!a.trace()) {
    const size_t min_samples = a.get("min_samples");
    const auto phase_t0 = Clock::now();
    while (seconds_since(phase_t0) < a.seconds() || res.work_ms.size() < min_samples) {
      const auto t0 = Clock::now();
      const exec::CampaignResult r = exec::run_sharded_campaign(in.truth, in.world, in.cfg, in.copt);
      res.work_ms.push_back(seconds_since(t0) * 1e3);
      res.pairs += r.report.pairs_tested;
      res.check(report_bytes(r.report) == ref_bytes && r.metrics == ref.metrics,
                "campaign repeat differs from the reference campaign");
      if (seconds_since(phase_t0) > a.real("max_seconds")) break;
    }
    res.work_s = seconds_since(phase_t0);
    // The merged report is the artifact a campaign publishes
    // (core::save_report): it must survive a JSON round trip.
    const auto parsed = rpc::Json::parse(ref_bytes);
    const auto back = parsed ? core::report_from_json(*parsed) : std::nullopt;
    res.check(back && report_bytes(*back) == ref_bytes, "report does not round-trip");
    return res;
  }

  // Traced run: one untraced and two traced executions of the same
  // campaign. The re-composition must reproduce the library's report and
  // metrics exactly, and both traced executions must count the same work.
  auto t0 = Clock::now();
  const exec::CampaignResult plain = exec::run_sharded_campaign(in.truth, in.world, in.cfg, in.copt);
  const double untraced_ms = seconds_since(t0) * 1e3;
  std::optional<obs::MetricsSnapshot> fork_before;
  Ledger ledger(true);
  t0 = Clock::now();
  const Recomposed rec = recompose(in, ledger, fork_before);
  const double traced_ms = seconds_since(t0) * 1e3;
  Ledger again(true);
  const Recomposed rec2 = recompose(in, again, fork_before);

  res.check(report_bytes(plain.report) == ref_bytes, "untraced campaign differs from reference");
  res.check(report_bytes(rec.result.report) == ref_bytes,
            "re-composed campaign report differs from run_sharded_campaign's");
  res.check(rec.result.metrics == ref.metrics,
            "re-composed campaign metrics differ from run_sharded_campaign's");
  check_counts_repeat(res, rec.counts, rec2.counts);

  std::map<std::string, double>& L = res.layers;
  L = rec.counts;
  const core::NetworkMeasurementReport& rep = rec.result.report;
  add_count_ratios(L, rep.pairs_tested);
  L["sim.seconds"] = rep.sim_seconds;
  L["core.probes"] = static_cast<double>(rep.pairs_tested);
  L["core.txs_sent"] = static_cast<double>(rep.txs_sent);
  L["core.batches"] = static_cast<double>(rec.result.batches);

  const Ledger::Stats st = ledger.by_name();
  L["core.batch_ms"] = stat_of(st, "core.run_batch").mean_ms();
  L["exec.warm_ms"] = stat_of(st, "exec.warm").total_ms;
  L["exec.snapshot_ms"] = stat_of(st, "exec.snapshot").total_ms;
  L["exec.fork_ms"] = stat_of(st, "exec.fork").mean_ms();
  L["exec.merge_ms"] = stat_of(st, "exec.merge").total_ms;
  const Ledger::Stat shard = stat_of(st, "exec.shard");
  L["exec.shard_ms_max"] = shard.max_ms;
  L["exec.shard_skew"] = shard.max_ms / shard.mean_ms();
  L["exec.worker_busy_frac"] =
      shard.total_ms / (static_cast<double>(in.copt.threads) * rec.pool_ms);
  L["obs.snapshot_metrics_ms"] = stat_of(st, "obs.snapshot_metrics").mean_ms();
  const auto& g = rec.result.metrics.gauges;
  L["obs.trace_pushed"] = g.count("obs.trace.total_pushed") ? g.at("obs.trace.total_pushed") : 0.0;
  L["obs.trace_dropped"] = g.count("obs.trace.dropped") ? g.at("obs.trace.dropped") : 0.0;
  L["disc.emerge_ms"] = median(emerge_ms);
  add_self_times(L, st);
  L["trace.overhead_frac"] = traced_ms / untraced_ms;
  return res;
}

}  // namespace perfbench
