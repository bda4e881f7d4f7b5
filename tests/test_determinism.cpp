// Golden determinism suite: campaign and monitor artifacts.
//
// Execution strategy must never be observable. A whole campaign must
// produce byte-identical artifacts at any worker width, with forked or
// rebuilt shard worlds, with or without fault injection, for every
// measurement strategy. These
// tests serialize the merged report and the merged causal-span export to
// JSON and compare the bytes.
//
// One carve-out: the `sim.queue.impl.*` gauges expose timing-wheel
// *internals* (cascade counts, heap peaks). They are deterministic and
// thread-width invariant, which the width tests pin, but a forked world
// rebuilds its queue by re-pushing the captured events, so fork-vs-rebuild
// comparisons strip that prefix and nothing else.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/report_io.h"
#include "core/validator.h"
#include "exec/campaign.h"
#include "graph/generators.h"
#include "monitor/monitor.h"
#include "obs/span.h"
#include "rpc/monitor_rpc.h"
#include "util/rng.h"

namespace topo {
namespace {

struct CampaignArtifacts {
  std::string report_json;
  std::string trace_json;  ///< Chrome trace-event export of the merged spans
  obs::MetricsSnapshot metrics;
};

/// Drops the timing-wheel `sim.queue.impl.*` gauges; see the file comment.
/// Used ONLY for fork-vs-rebuild comparisons — every other comparison
/// keeps the full snapshot.
obs::MetricsSnapshot strip_queue_internals(obs::MetricsSnapshot s) {
  auto strip = [](std::map<std::string, double>& m) {
    for (auto it = m.begin(); it != m.end();) {
      it = it->first.rfind("sim.queue.impl.", 0) == 0 ? m.erase(it) : std::next(it);
    }
  };
  strip(s.gauges);
  strip(s.gauge_maxes);
  return s;
}

CampaignArtifacts run_campaign(size_t threads, size_t shards, bool faults,
                               core::StrategyKind strategy = core::StrategyKind::kToposhot,
                               bool fork_worlds = true, double churn_rate = 0.0) {
  util::Rng rng(21);
  const graph::Graph truth = graph::erdos_renyi_gnm(24, 44, rng);
  core::ScenarioOptions opt;
  opt.seed = 77;
  opt.mempool_capacity = 192;
  opt.future_cap = 48;
  opt.background_txs = 128;
  core::MeasureConfig cfg;
  {
    core::Scenario probe(truth, opt);
    cfg = probe.default_measure_config();
  }
  // Diagnostics collection rides the faulted variants, exercising the
  // cause annex end to end; the clean variant keeps both annexes off so
  // the byte-identity below also covers the annex-absent report shape.
  cfg.collect_diagnostics = faults;
  exec::CampaignOptions copt;
  copt.group_k = 4;
  copt.strategy = strategy;
  copt.shards = shards;
  copt.threads = threads;
  copt.collect_spans = true;
  copt.fork_worlds = fork_worlds;
  copt.churn_rate = churn_rate;
  if (faults) {
    copt.fault_plan.drop_tx = 0.02;
    copt.fault_plan.drop_announce = 0.02;
    copt.fault_plan.spike_prob = 0.05;
  }
  const exec::CampaignResult result = exec::run_sharded_campaign(truth, opt, cfg, copt);
  return {core::report_to_json(result.report).dump(),
          obs::spans_to_chrome_json(result.spans).dump(), result.metrics};
}

// The two execution backends end to end, on a single shard: the default
// one (the shard world forked from a warmed snapshot) against the
// reference one (the world rebuilt and re-warmed). Only the timing-wheel
// internals strip_queue_internals drops may differ.
TEST(GoldenDeterminism, SmokeCampaignIsByteIdenticalAcrossBackends) {
  const auto fast = run_campaign(1, 1, false);
  const auto reference = run_campaign(1, 1, false, core::StrategyKind::kToposhot, false);
  EXPECT_EQ(fast.report_json, reference.report_json);
  EXPECT_EQ(fast.trace_json, reference.trace_json);
  EXPECT_EQ(strip_queue_internals(fast.metrics), strip_queue_internals(reference.metrics));
  EXPECT_FALSE(fast.report_json.empty());
  EXPECT_FALSE(fast.trace_json.empty());
  // Annexes stay absent when not configured: the serialized report is the
  // pre-annex document, byte for byte.
  EXPECT_EQ(fast.report_json.find("\"fault\""), std::string::npos);
  EXPECT_EQ(fast.report_json.find("\"diagnostics\""), std::string::npos);
}

TEST(GoldenDeterminism, ThreadWidthChangesNothing) {
  const auto serial = run_campaign(1, 3, false);
  const auto wide = run_campaign(4, 3, false);
  EXPECT_EQ(serial.report_json, wide.report_json);
  EXPECT_EQ(serial.trace_json, wide.trace_json);
  // Full-snapshot equality: even the queue internals must be thread-width
  // invariant (workers never share a queue).
  EXPECT_EQ(serial.metrics, wide.metrics);
}

// Every strategy behind the seam must satisfy the same golden contract the
// default one does: byte-identical artifacts across thread widths (per
// strategy, fixed shards) — the rivalry bench's numbers are only
// comparable because each strategy is deterministic on its own.
TEST(GoldenDeterminism, RivalStrategiesAreByteIdenticalAcrossWidths) {
  for (core::StrategyKind strategy :
       {core::StrategyKind::kDethna, core::StrategyKind::kTxprobe}) {
    SCOPED_TRACE(core::strategy_name(strategy));
    const auto serial = run_campaign(1, 2, false, strategy);
    const auto wide = run_campaign(4, 2, false, strategy);
    EXPECT_EQ(serial.report_json, wide.report_json);
    EXPECT_EQ(serial.trace_json, wide.trace_json);
    EXPECT_EQ(serial.metrics, wide.metrics);

    // The report is self-describing: the non-default strategy is named.
    EXPECT_NE(serial.report_json.find(std::string("\"strategy\":\"") +
                                      core::strategy_name(strategy) + "\""),
              std::string::npos);
  }
}

// The faulted (diagnostics-carrying) variant for the rivals, at different
// shard widths than above so the shard-plan axis is covered per strategy.
TEST(GoldenDeterminism, RivalStrategiesFaultCampaignsAreByteIdentical) {
  for (core::StrategyKind strategy :
       {core::StrategyKind::kDethna, core::StrategyKind::kTxprobe}) {
    SCOPED_TRACE(core::strategy_name(strategy));
    const auto narrow = run_campaign(2, 3, true, strategy);
    const auto wide = run_campaign(4, 3, true, strategy);
    EXPECT_EQ(narrow.report_json, wide.report_json);
    EXPECT_EQ(narrow.trace_json, wide.trace_json);
    EXPECT_EQ(narrow.metrics, wide.metrics);

    // Cause plumbing holds for rivals too: the histogram covers every pair.
    const auto parsed = rpc::Json::parse(narrow.report_json);
    ASSERT_TRUE(parsed.has_value());
    const auto report = core::report_from_json(*parsed);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->strategy, strategy);
    ASSERT_TRUE(report->diagnostics.has_value());
    uint64_t total = 0;
    for (uint64_t c : report->diagnostics->causes) total += c;
    EXPECT_EQ(total, report->pairs_tested);
  }
}

// World forking is pure execution strategy: a campaign whose shard
// replicas are forked from one warmed base snapshot must produce the same
// artifacts, byte for byte, as one that rebuilds and re-warms every
// replica from scratch — at multiple thread/shard widths, with and
// without fault injection.
TEST(GoldenDeterminism, ForkedWorldsMatchRebuiltWorldsByteForByte) {
  const auto forked = run_campaign(1, 2, false, core::StrategyKind::kToposhot, true);
  const auto rebuilt = run_campaign(1, 2, false, core::StrategyKind::kToposhot, false);
  EXPECT_EQ(forked.report_json, rebuilt.report_json);
  EXPECT_EQ(forked.trace_json, rebuilt.trace_json);
  // sim.queue.impl.* is the documented carve-out: a forked replica's
  // queue is reconstructed by re-pushing the captured events, so its
  // *internal* tallies (cascades, peaks) differ from a queue that lived
  // through the warm phase. Everything else must match exactly.
  EXPECT_EQ(strip_queue_internals(forked.metrics), strip_queue_internals(rebuilt.metrics));
  EXPECT_FALSE(forked.report_json.empty());
}

TEST(GoldenDeterminism, ForkedWorldsMatchRebuiltAtWiderWidths) {
  // A different (threads, shards) point than the pair above, so the
  // fork-identity contract is pinned at >= 2 widths; forked-wide vs
  // rebuilt-serial also crosses the thread axis in the same comparison.
  const auto forked = run_campaign(4, 3, false, core::StrategyKind::kToposhot, true);
  const auto rebuilt = run_campaign(1, 3, false, core::StrategyKind::kToposhot, false);
  EXPECT_EQ(forked.report_json, rebuilt.report_json);
  EXPECT_EQ(forked.trace_json, rebuilt.trace_json);
  EXPECT_EQ(strip_queue_internals(forked.metrics), strip_queue_internals(rebuilt.metrics));
}

TEST(GoldenDeterminism, ForkedFaultCampaignMatchesRebuilt) {
  const auto forked = run_campaign(2, 3, true, core::StrategyKind::kToposhot, true);
  const auto rebuilt = run_campaign(2, 3, true, core::StrategyKind::kToposhot, false);
  EXPECT_EQ(forked.report_json, rebuilt.report_json);
  EXPECT_EQ(forked.trace_json, rebuilt.trace_json);
  EXPECT_EQ(strip_queue_internals(forked.metrics), strip_queue_internals(rebuilt.metrics));
}

TEST(GoldenDeterminism, ForkedRivalStrategiesMatchRebuilt) {
  for (core::StrategyKind strategy :
       {core::StrategyKind::kDethna, core::StrategyKind::kTxprobe}) {
    SCOPED_TRACE(core::strategy_name(strategy));
    const auto forked = run_campaign(1, 2, false, strategy, true);
    const auto rebuilt = run_campaign(1, 2, false, strategy, false);
    EXPECT_EQ(forked.report_json, rebuilt.report_json);
    EXPECT_EQ(forked.trace_json, rebuilt.trace_json);
    // sim.queue.impl.* is the documented carve-out: a forked replica's
    // queue is reconstructed by re-pushing the captured events, so its
    // *internal* tallies (cascades, peaks) differ from a queue that lived
    // through the warm phase. Everything else must match exactly.
    EXPECT_EQ(strip_queue_internals(forked.metrics), strip_queue_internals(rebuilt.metrics));
  }
}

// Organic traffic and a mining drain in every replica (churn_rate > 0):
// fresh transactions flood each world while its batches are measured, so
// kDeliverTx events and their arena payload slots are live throughout, and
// blocks prune the pools underneath. Forked replicas must still match
// rebuilt ones byte for byte.
TEST(GoldenDeterminism, ForkedTrafficCampaignMatchesRebuilt) {
  const auto forked = run_campaign(2, 2, false, core::StrategyKind::kToposhot, true, 2.0);
  const auto rebuilt = run_campaign(2, 2, false, core::StrategyKind::kToposhot, false, 2.0);
  EXPECT_EQ(forked.report_json, rebuilt.report_json);
  EXPECT_EQ(forked.trace_json, rebuilt.trace_json);
  EXPECT_EQ(strip_queue_internals(forked.metrics), strip_queue_internals(rebuilt.metrics));
  EXPECT_GT(forked.metrics.gauges.at("sim.dispatch.campaign_step"), 0.0) << "no organic traffic";
  EXPECT_GT(forked.metrics.gauges.at("sim.dispatch.block_commit"), 0.0) << "no block mined";
}

// The faulted variant of the smoke test: default execution backend against
// the reference one, at two threads over two shards.
TEST(GoldenDeterminism, FaultCampaignIsByteIdenticalAcrossBackends) {
  const auto fast = run_campaign(2, 2, true);
  const auto reference = run_campaign(2, 2, true, core::StrategyKind::kToposhot, false);
  EXPECT_EQ(fast.report_json, reference.report_json);
  EXPECT_EQ(fast.trace_json, reference.trace_json);
  EXPECT_EQ(strip_queue_internals(fast.metrics), strip_queue_internals(reference.metrics));

  // The faulted campaign carries the diagnostics annex, and every pair it
  // left inconclusive names the protocol step that broke — never a bare
  // "inconclusive" with no cause.
  const auto parsed = rpc::Json::parse(fast.report_json);
  ASSERT_TRUE(parsed.has_value());
  const auto report = core::report_from_json(*parsed);
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->diagnostics.has_value());
  uint64_t total = 0;
  for (uint64_t c : report->diagnostics->causes) total += c;
  EXPECT_EQ(total, report->pairs_tested);
  for (const core::PairDiagnostic& p : report->diagnostics->inconclusive) {
    EXPECT_NE(p.cause, obs::ProbeCause::kNone)
        << "pair (" << p.u << ", " << p.v << ") is inconclusive without a cause";
  }
}

// -- the monitoring daemon ---------------------------------------------------
//
// The monitor's published documents (snapshots, diffs, status — and hence
// every MonitorRpcServer response) carry no sim-time or wall-clock fields,
// and its own metrics registry holds only shard-invariant monitor.* series.
// A scripted run — N epochs of drift + incremental re-measurement followed
// by a fixed RPC query script — must therefore produce byte-identical
// artifacts at any --threads width and at any --shards width. (Shard
// invariance is the strong claim: campaign
// *reports* are shard-dependent in general, but in the measure-regime world
// every probe resolves crisply, so clean verdicts equal ground truth no
// matter how the epoch's replicas were sharded.)

/// The fixed query script: status, a pinned version, the latest version, a
/// batch of two diffs, and an unknown-version error — errors are part of
/// the replayed conversation too.
constexpr const char* kMonitorScript[] = {
    R"({"jsonrpc":"2.0","id":1,"method":"topo_getStatus","params":[]})",
    R"({"jsonrpc":"2.0","id":2,"method":"topo_getSnapshot","params":[0]})",
    R"({"jsonrpc":"2.0","id":3,"method":"topo_getSnapshot","params":[]})",
    R"([{"jsonrpc":"2.0","id":4,"method":"topo_getDiff","params":[0,2]},)"
    R"({"jsonrpc":"2.0","id":5,"method":"topo_getDiff","params":[1,2]}])",
    R"({"jsonrpc":"2.0","id":6,"method":"topo_getSnapshot","params":[99]})",
};

/// The telemetry-plane script: the Prometheus exposition in both wrapping
/// modes, the health report, and a bad-mode error (which also exercises the
/// RPC-error event-log path inside a replayed conversation).
constexpr const char* kTelemetryScript[] = {
    R"({"jsonrpc":"2.0","id":7,"method":"topo_getMetrics","params":[]})",
    R"({"jsonrpc":"2.0","id":8,"method":"topo_getMetrics","params":["raw"]})",
    R"({"jsonrpc":"2.0","id":9,"method":"topo_getHealth","params":[]})",
    R"({"jsonrpc":"2.0","id":10,"method":"topo_getMetrics","params":["xml"]})",
};

struct MonitorArtifacts {
  std::string serve;          ///< concatenated RPC responses, one per line
  std::string snapshot_json;  ///< latest published snapshot
  std::string diff_json;      ///< diff across the full published range
  std::string status_json;
  obs::MetricsSnapshot metrics;
  // Telemetry plane. The exposition is a pure function of the (shard-
  // invariant) registry; health, the telemetry serve transcript, and the
  // event log carry sim-time durations and event counts, which are
  // thread-invariant but shard-DEPENDENT — compare them across --threads
  // widths only, never across --shards.
  std::string prom_text;       ///< published Prometheus exposition
  std::string health_json;     ///< published HealthReport document
  std::string telemetry_serve; ///< kTelemetryScript responses, one per line
  std::string log_jsonl;       ///< structured event log, JSON lines
};

MonitorArtifacts run_monitor(size_t threads, size_t shards) {
  util::Rng rng(5);
  graph::Graph truth = graph::erdos_renyi_gnm(20, 40, rng);
  core::ScenarioOptions wopt;
  wopt.seed = 42;
  // The measure-regime world (toposhot_cli / toposhot_monitord defaults):
  // a small block budget plus organic traffic keeps pool occupancy where
  // eviction probes resolve crisply — the precondition for the shard
  // invariance this suite pins.
  wopt.block_gas_limit = 30 * eth::kTransferGas;
  core::MeasureConfig cfg =
      core::MeasureConfig::Builder(core::Scenario(truth, wopt).default_measure_config())
          .repetitions(3)
          .inconclusive_retries(2)
          .build();
  monitor::MonitorOptions mopt;
  mopt.churn_per_epoch = 2.0;
  mopt.threads = threads;
  mopt.shards = shards;
  mopt.traffic_churn_rate = 3.0;
  monitor::TopologyMonitor mon(std::move(truth), wopt, cfg, mopt);
  mon.run(3);

  rpc::MonitorRpcServer server(&mon);
  MonitorArtifacts out;
  for (const char* line : kMonitorScript) out.serve += server.handle(line) + "\n";
  out.snapshot_json = monitor::snapshot_to_json(*mon.latest()).dump();
  out.diff_json = monitor::diff_to_json(*mon.diff(0, mon.versions() - 1)).dump();
  out.status_json = monitor::status_to_json(mon.status()).dump();
  out.metrics = mon.metrics().snapshot();
  out.prom_text = *mon.metrics_exposition();
  out.health_json = monitor::health_to_json(*mon.health()).dump();
  for (const char* line : kTelemetryScript) {
    out.telemetry_serve += server.handle(line) + "\n";
  }
  // The log is captured last so the scripted RPC errors (the unknown
  // version above, the bad metrics mode here) are part of the artifact.
  out.log_jsonl = mon.event_log().to_jsonl();
  return out;
}

TEST(MonitorGolden, ScriptedRunIsByteIdenticalAcrossThreads) {
  const auto serial = run_monitor(1, 2);
  const auto wide = run_monitor(4, 2);
  EXPECT_EQ(serial.serve, wide.serve);
  EXPECT_EQ(serial.snapshot_json, wide.snapshot_json);
  EXPECT_EQ(serial.diff_json, wide.diff_json);
  EXPECT_EQ(serial.status_json, wide.status_json);
  EXPECT_EQ(serial.metrics, wide.metrics);
  // The whole telemetry plane is thread-width invariant: exposition bytes,
  // the health document (sim-time durations only), the scripted telemetry
  // conversation, and the structured event log.
  EXPECT_EQ(serial.prom_text, wide.prom_text);
  EXPECT_EQ(serial.health_json, wide.health_json);
  EXPECT_EQ(serial.telemetry_serve, wide.telemetry_serve);
  EXPECT_EQ(serial.log_jsonl, wide.log_jsonl);

  EXPECT_FALSE(serial.serve.empty());
  // The error responses are part of both conversations.
  EXPECT_NE(serial.serve.find("unknown version"), std::string::npos);
  EXPECT_NE(serial.telemetry_serve.find("expected"), std::string::npos);
  // The telemetry documents are real: exposition and health both carry the
  // run's epoch count, and the raw RPC body equals the published bytes.
  EXPECT_NE(serial.prom_text.find("monitor_epochs 3\n"), std::string::npos);
  EXPECT_NE(serial.health_json.find("\"state\":"), std::string::npos);
  EXPECT_NE(serial.telemetry_serve.find("prometheus-text-0.0.4"), std::string::npos);
  EXPECT_FALSE(serial.log_jsonl.empty());
}

TEST(MonitorGolden, ScriptedRunIsByteIdenticalAcrossShardWidths) {
  const auto one = run_monitor(1, 1);
  const auto two = run_monitor(1, 2);
  const auto four = run_monitor(2, 4);
  for (const auto* other : {&two, &four}) {
    EXPECT_EQ(one.serve, other->serve);
    EXPECT_EQ(one.snapshot_json, other->snapshot_json);
    EXPECT_EQ(one.diff_json, other->diff_json);
    EXPECT_EQ(one.status_json, other->status_json);
    EXPECT_EQ(one.metrics, other->metrics);
    // The exposition is a pure function of the registry, so it inherits the
    // registry's shard invariance. health_json / telemetry_serve /
    // log_jsonl are deliberately NOT compared here: sim-time durations and
    // event counts depend on --shards (replica warm-up repeats work).
    EXPECT_EQ(one.prom_text, other->prom_text);
  }
}

}  // namespace
}  // namespace topo
