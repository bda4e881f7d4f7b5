// Tests for the sharded campaign executor (topo::exec): worker pool
// semantics, shard-plan determinism, batch coverage, report/metrics merging,
// and the subsystem's core contract — the worker-pool width changes
// wall-clock time only, never one byte of the merged artifacts.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/report_io.h"
#include "core/validator.h"
#include "exec/campaign.h"
#include "exec/merge.h"
#include "exec/shard.h"
#include "exec/worker_pool.h"
#include "graph/generators.h"
#include "obs/span.h"
#include "util/rng.h"

namespace topo::exec {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsEveryJobExactlyOnce) {
  for (size_t width : {size_t{1}, size_t{2}, size_t{4}, size_t{9}}) {
    const size_t n_jobs = 103;
    std::vector<std::atomic<int>> hits(n_jobs);
    const WorkerPool pool(width);
    pool.run(n_jobs, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n_jobs; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "job " << i << " at width " << width;
    }
  }
}

TEST(WorkerPool, ZeroWidthClampsToOne) {
  const WorkerPool pool(0);
  EXPECT_EQ(pool.width(), 1u);
  size_t ran = 0;
  pool.run(5, [&](size_t) { ++ran; });
  EXPECT_EQ(ran, 5u);
}

TEST(WorkerPool, ZeroJobsIsNoop) {
  const WorkerPool pool(4);
  pool.run(0, [](size_t) { FAIL() << "no job should run"; });
}

TEST(WorkerPool, PropagatesFirstExceptionAfterDraining) {
  const WorkerPool pool(3);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(pool.run(20,
                        [&](size_t i) {
                          ran.fetch_add(1);
                          if (i == 7) throw std::runtime_error("job 7 failed");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 20u) << "remaining jobs still run; workers never die silently";
}

// ---------------------------------------------------------------------------
// ShardPlan
// ---------------------------------------------------------------------------

TEST(ShardPlan, PartitionsEveryBatchExactlyOnce) {
  const ShardPlan plan = ShardPlan::build(23, 5, 42);
  ASSERT_EQ(plan.size(), 5u);
  std::set<size_t> seen;
  for (const auto& shard : plan.shards) {
    for (size_t b : shard.batch_ids) {
      EXPECT_TRUE(seen.insert(b).second) << "batch " << b << " assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), 23u);
  EXPECT_EQ(*seen.rbegin(), 22u);
}

TEST(ShardPlan, ClampsShardCountToBatchCount) {
  EXPECT_EQ(ShardPlan::build(3, 16, 1).size(), 3u) << "no workless shards";
  EXPECT_EQ(ShardPlan::build(8, 0, 1).size(), 1u) << "zero shards clamps to one";
  const ShardPlan empty = ShardPlan::build(0, 4, 1);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty.shards[0].batch_ids.empty());
}

TEST(ShardPlan, SeedsAreDeterministicAndDistinct) {
  const ShardPlan a = ShardPlan::build(12, 4, 1025);
  const ShardPlan b = ShardPlan::build(12, 4, 1025);
  ASSERT_EQ(a.size(), b.size());
  std::set<uint64_t> seeds;
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a.shards[s].seed, b.shards[s].seed);
    EXPECT_EQ(a.shards[s].batch_ids, b.shards[s].batch_ids);
    seeds.insert(a.shards[s].seed);
  }
  EXPECT_EQ(seeds.size(), a.size()) << "per-shard seed streams must not collide";
  EXPECT_NE(ShardPlan::build(12, 4, 1026).shards[0].seed, a.shards[0].seed);
}

// ---------------------------------------------------------------------------
// Batches (the campaign's unit of work)
// ---------------------------------------------------------------------------

TEST(Batches, CoverEveryPairOnceWithinBudget) {
  const size_t n = 17, budget = 10;
  std::set<std::pair<size_t, size_t>> seen;
  for (const auto& batch : core::make_batches(n, 3, budget)) {
    EXPECT_LE(batch.edges.size(), budget);
    EXPECT_EQ(batch.edges.size(), batch.pairs.size());
    for (const auto& [s, t] : batch.pairs) {
      const auto key = std::minmax(s, t);
      EXPECT_TRUE(seen.insert(key).second) << "pair (" << s << "," << t << ") repeated";
    }
  }
  EXPECT_EQ(seen.size(), n * (n - 1) / 2) << "every unordered pair covered";
}

// ---------------------------------------------------------------------------
// ReportMerger / MetricsSnapshot::merge
// ---------------------------------------------------------------------------

TEST(ReportMerger, UnionsEdgesAndSumsTallies) {
  core::NetworkMeasurementReport r1, r2;
  r1.measured = graph::Graph(4);
  r1.measured.add_edge(0, 1);
  r1.iterations = 2;
  r1.pairs_tested = 3;
  r1.txs_sent = 100;
  r1.sim_seconds = 50.0;
  r2.measured = graph::Graph(4);
  r2.measured.add_edge(0, 1);  // duplicate across shards: union, not multiset
  r2.measured.add_edge(2, 3);
  r2.iterations = 1;
  r2.pairs_tested = 3;
  r2.txs_sent = 40;
  r2.sim_seconds = 80.0;

  ReportMerger merger(4);
  merger.add(r1);
  merger.add(r2);
  EXPECT_EQ(merger.report().measured.num_edges(), 2u);
  EXPECT_TRUE(merger.report().measured.has_edge(0, 1));
  EXPECT_TRUE(merger.report().measured.has_edge(2, 3));
  EXPECT_EQ(merger.report().iterations, 3u);
  EXPECT_EQ(merger.report().pairs_tested, 6u);
  EXPECT_EQ(merger.report().txs_sent, 140u);
  EXPECT_DOUBLE_EQ(merger.report().sim_seconds, 130.0) << "total simulated work sums";
  EXPECT_DOUBLE_EQ(merger.makespan_sim_seconds(), 80.0) << "critical path is the slowest shard";
  EXPECT_EQ(merger.shards_merged(), 2u);
}

TEST(MetricsMerge, CountersGaugesAndHistograms) {
  obs::MetricsSnapshot a, b;
  a.counters["net.messages"] = 10;
  b.counters["net.messages"] = 5;
  b.counters["only.b"] = 7;
  a.gauges["wei.spent"] = 1.5;
  b.gauges["wei.spent"] = 2.5;
  a.gauge_maxes["pool.high_water"] = 100.0;
  b.gauge_maxes["pool.high_water"] = 80.0;

  obs::HistogramSnapshot ha, hb;
  ha.bounds = {1.0, 2.0};
  ha.counts = {3, 1, 0};
  ha.count = 4;
  ha.sum = 5.0;
  ha.min = 0.5;
  ha.max = 1.9;
  hb.bounds = {1.0, 2.0};
  hb.counts = {0, 2, 1};
  hb.count = 3;
  hb.sum = 6.0;
  hb.min = 1.2;
  hb.max = 2.8;
  a.histograms["probe.phase"] = ha;
  b.histograms["probe.phase"] = hb;

  obs::MetricsSnapshot merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.counters["net.messages"], 15u);
  EXPECT_EQ(merged.counters["only.b"], 7u);
  EXPECT_DOUBLE_EQ(merged.gauges["wei.spent"], 4.0) << "levels sum across disjoint replicas";
  EXPECT_DOUBLE_EQ(merged.gauge_maxes["pool.high_water"], 100.0) << "high-waters take the max";
  const auto& h = merged.histograms["probe.phase"];
  EXPECT_EQ(h.count, 7u);
  EXPECT_DOUBLE_EQ(h.sum, 11.0);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 2.8);
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 3u);
  EXPECT_EQ(h.counts[1], 3u);
  EXPECT_EQ(h.counts[2], 1u);

  // Order independence: b.merge(a) produces the same snapshot.
  obs::MetricsSnapshot other = b;
  other.merge(a);
  EXPECT_EQ(merged, other);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the acceptance contract of the subsystem.
// ---------------------------------------------------------------------------

core::ScenarioOptions fast_options(uint64_t seed) {
  core::ScenarioOptions opt;
  opt.seed = seed;
  opt.mempool_capacity = 192;
  opt.future_cap = 48;
  opt.background_txs = 128;
  return opt;
}

TEST(Campaign, ThreadsChangeNothingButWallClock) {
  util::Rng rng(9);
  const graph::Graph truth = graph::erdos_renyi_gnm(32, 64, rng);
  const core::ScenarioOptions opt = fast_options(123);
  core::MeasureConfig cfg;
  {
    core::Scenario probe(truth, opt);
    cfg = probe.default_measure_config();
  }

  CampaignOptions copt;
  copt.group_k = 4;
  copt.shards = 4;
  copt.churn_rate = 0.0;

  copt.threads = 1;
  const CampaignResult serial = run_sharded_campaign(truth, opt, cfg, copt);
  copt.threads = 4;
  const CampaignResult parallel = run_sharded_campaign(truth, opt, cfg, copt);

  EXPECT_EQ(serial.shards, 4u);
  EXPECT_EQ(serial.batches, parallel.batches);
  EXPECT_EQ(serial.report.iterations, parallel.report.iterations);
  EXPECT_EQ(serial.report.pairs_tested, parallel.report.pairs_tested);
  EXPECT_EQ(serial.report.txs_sent, parallel.report.txs_sent);
  EXPECT_DOUBLE_EQ(serial.report.sim_seconds, parallel.report.sim_seconds);
  EXPECT_DOUBLE_EQ(serial.makespan_sim_seconds, parallel.makespan_sim_seconds);

  // The merged topologies must match edge-for-edge, not just in count.
  EXPECT_EQ(serial.report.measured.num_edges(), parallel.report.measured.num_edges());
  for (const auto& [u, v] : serial.report.measured.edges()) {
    EXPECT_TRUE(parallel.report.measured.has_edge(u, v)) << u << "-" << v;
  }
  EXPECT_EQ(serial.metrics, parallel.metrics) << "merged metrics are bit-identical too";

  // Sanity: the campaign actually measured something real.
  EXPECT_EQ(serial.report.pairs_tested, 32u * 31 / 2);
  const auto pr = core::compare_graphs(truth, serial.report.measured);
  EXPECT_DOUBLE_EQ(pr.precision(), 1.0);
  EXPECT_GE(pr.recall(), 0.9);
}

// The 24-node K=3 plan: nine one-batch shards whose sink counts are
// 21/18/15/12/9/6/3 (round 1) and 16/8 (round 2). Shard 7 is the third
// costliest, so it is dispatched third, not last.
TEST(Campaign, DispatchesLongestShardFirst) {
  const std::vector<core::MeasurementBatch> batches = core::make_batches(24, 3, 100);
  const ShardPlan plan = ShardPlan::build(batches.size(), CampaignOptions::kDefaultShards, 1);
  ASSERT_EQ(plan.size(), 9u);
  std::vector<size_t> sinks;
  for (const auto& shard : plan.shards) {
    ASSERT_EQ(shard.batch_ids.size(), 1u);
    sinks.push_back(batches[shard.batch_ids[0]].sinks.size());
  }
  EXPECT_EQ(sinks, (std::vector<size_t>{21, 18, 15, 12, 9, 6, 3, 16, 8}));
  EXPECT_EQ(dispatch_order(plan, batches), (std::vector<size_t>{0, 1, 7, 2, 3, 4, 8, 5, 6}));
}

// Dispatch order is execution only: the same 24-node K=3 campaign gives
// byte-identical reports, metrics and spans whether its nine shards run
// one at a time, three at a time in longest-first order, or all at once.
TEST(Campaign, DispatchOrderNeverReachesTheArtifacts) {
  util::Rng rng(11);
  const graph::Graph truth = graph::erdos_renyi_gnm(24, 60, rng);
  const core::ScenarioOptions opt = fast_options(29);
  core::MeasureConfig cfg;
  {
    core::Scenario probe(truth, opt);
    cfg = probe.default_measure_config();
  }
  CampaignOptions copt;
  copt.group_k = 3;
  copt.collect_spans = true;
  std::vector<std::string> reports, spans;
  std::vector<obs::MetricsSnapshot> metrics;
  for (size_t width : {size_t{1}, size_t{3}, size_t{9}}) {
    copt.threads = width;
    const CampaignResult r = run_sharded_campaign(truth, opt, cfg, copt);
    EXPECT_EQ(r.shards, 9u);
    EXPECT_EQ(r.report.pairs_tested, 24u * 23 / 2);
    reports.push_back(core::report_to_json(r.report).dump());
    spans.push_back(obs::spans_to_chrome_json(r.spans).dump());
    metrics.push_back(r.metrics);
  }
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], reports[0]);
    EXPECT_EQ(spans[i], spans[0]);
    EXPECT_EQ(metrics[i], metrics[0]);
  }
}

TEST(Campaign, ShardCountIsPartOfTheIdentityButThreadsAreNot) {
  // Different shard counts may legitimately measure a different sample of
  // the stochastic world; the plan records it so runs are reproducible.
  util::Rng rng(10);
  const graph::Graph truth = graph::erdos_renyi_gnm(12, 20, rng);
  const core::ScenarioOptions opt = fast_options(7);
  core::MeasureConfig cfg;
  {
    core::Scenario probe(truth, opt);
    cfg = probe.default_measure_config();
  }
  CampaignOptions copt;
  copt.group_k = 3;
  copt.shards = 2;
  copt.threads = 2;
  const CampaignResult two = run_sharded_campaign(truth, opt, cfg, copt);
  EXPECT_EQ(two.shards, 2u);
  copt.shards = 3;
  const CampaignResult three = run_sharded_campaign(truth, opt, cfg, copt);
  EXPECT_EQ(three.shards, 3u);
  // Both decompositions cover every pair exactly once.
  EXPECT_EQ(two.report.pairs_tested, 12u * 11 / 2);
  EXPECT_EQ(three.report.pairs_tested, 12u * 11 / 2);
}

}  // namespace
}  // namespace topo::exec
