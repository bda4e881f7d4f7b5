// Unit tests of the observability substrate (src/obs): metric semantics,
// event-log wraparound, export round-trips, and the determinism guarantee
// (two identically seeded runs produce identical metric values).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/probe_obs.h"
#include "core/session.h"
#include "core/toposhot.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace topo {
namespace {

TEST(Metrics, CounterSemantics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeTracksHighWater) {
  obs::Gauge g;
  g.set(3.0);
  g.set(7.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
  g.update_max(100.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 100.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  obs::Histogram h({1.0, 10.0});
  h.observe(0.5);   // bucket <= 1
  h.observe(1.0);   // bucket <= 1 (inclusive upper edge)
  h.observe(5.0);   // bucket <= 10
  h.observe(50.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 56.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
  EXPECT_DOUBLE_EQ(h.mean(), 56.5 / 4.0);
}

TEST(Metrics, EmptyHistogramStatsAreZero) {
  obs::Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Metrics, RegistryInternsHandles) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b) << "same name must return the same handle";
  a.inc();
  EXPECT_EQ(reg.counter("x").value(), 1u);
  // Histogram bounds are only consulted on first use.
  obs::Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("h", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Metrics, SnapshotDiffSince) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  obs::Histogram& h = reg.histogram("h", {1.0});
  c.inc(10);
  g.set(5.0);
  h.observe(0.5);
  const obs::MetricsSnapshot before = reg.snapshot();
  c.inc(7);
  g.set(2.0);
  h.observe(3.0);
  const obs::MetricsSnapshot delta = reg.snapshot().diff_since(before);
  EXPECT_EQ(delta.counters.at("c"), 7u);           // counters are flows
  EXPECT_DOUBLE_EQ(delta.gauges.at("g"), 2.0);     // gauges are levels
  EXPECT_EQ(delta.histograms.at("h").count, 1u);   // one new observation
  EXPECT_EQ(delta.histograms.at("h").counts[1], 1u);
  EXPECT_EQ(delta.histograms.at("h").counts[0], 0u);
}

// Merge across shards with *matching* histogram bounds: the baseline the
// mismatch cases below deviate from.
TEST(Metrics, MergeAccumulatesFlowsAndLevels) {
  obs::MetricsRegistry a;
  a.counter("c").inc(3);
  a.gauge("g").set(2.0);
  a.histogram("h", {1.0}).observe(0.5);
  obs::MetricsRegistry b;
  b.counter("c").inc(4);
  b.gauge("g").set(5.0);
  b.histogram("h", {1.0}).observe(9.0);
  obs::MetricsSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  EXPECT_EQ(m.counters.at("c"), 7u);
  EXPECT_DOUBLE_EQ(m.gauges.at("g"), 7.0);           // gauges sum
  EXPECT_DOUBLE_EQ(m.gauge_maxes.at("g"), 5.0);      // maxes take max
  EXPECT_EQ(m.histograms.at("h").count, 2u);
  EXPECT_EQ(m.histograms.at("h").counts[0], 1u);
  EXPECT_EQ(m.histograms.at("h").counts[1], 1u);
}

// Incompatible bucket bounds: the loser's observations must land in the
// winner's overflow bucket so sum(counts) == count survives the merge.
TEST(Metrics, MergeMismatchedHistogramBoundsFoldIntoOverflow) {
  obs::MetricsRegistry a;
  a.histogram("h", {1.0, 10.0}).observe(0.5);
  a.histogram("h", {1.0, 10.0}).observe(5.0);
  obs::MetricsRegistry b;
  b.histogram("h", {2.0}).observe(1.5);
  b.histogram("h", {2.0}).observe(50.0);
  obs::MetricsSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  const obs::HistogramSnapshot& h = m.histograms.at("h");
  ASSERT_EQ(h.bounds, (std::vector<double>{1.0, 10.0}));  // first-observed wins
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 2u);  // b's two observations, folded
  EXPECT_EQ(h.count, 4u);
  uint64_t bucket_sum = 0;
  for (uint64_t c : h.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, h.count) << "invariant must survive the fold";
  EXPECT_DOUBLE_EQ(h.sum, 57.0);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 50.0);
}

// An empty placeholder (histogram interned but never observed) must not
// strand the other side's real observations in the overflow path: the
// first *observed* bounds win, not merely the first seen.
TEST(Metrics, MergeEmptySideAdoptsObservedBounds) {
  obs::MetricsRegistry a;
  (void)a.histogram("h", {1.0, 2.0});  // interned, zero observations
  obs::MetricsRegistry b;
  b.histogram("h", {5.0}).observe(3.0);
  obs::MetricsSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  const obs::HistogramSnapshot& h = m.histograms.at("h");
  EXPECT_EQ(h.bounds, (std::vector<double>{5.0}));
  EXPECT_EQ(h.count, 1u);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 1u);
  // And the mirror image: merging an empty other side is a no-op.
  obs::MetricsSnapshot m2 = b.snapshot();
  const obs::MetricsSnapshot before = m2;
  m2.merge(a.snapshot());
  EXPECT_EQ(m2.histograms.at("h"), before.histograms.at("h"));
}

// A gauge max present on only one side must survive the merge, even
// without a matching current value on the other.
TEST(Metrics, MergeOneSidedGaugeMax) {
  obs::MetricsSnapshot a;
  a.gauge_maxes["only.mine"] = 3.0;
  a.gauge_maxes["shared"] = 2.0;
  obs::MetricsSnapshot b;
  b.gauge_maxes["only.theirs"] = 7.0;
  b.gauge_maxes["shared"] = 9.0;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.gauge_maxes.at("only.mine"), 3.0);
  EXPECT_DOUBLE_EQ(a.gauge_maxes.at("only.theirs"), 7.0);
  EXPECT_DOUBLE_EQ(a.gauge_maxes.at("shared"), 9.0);
  EXPECT_TRUE(a.gauges.empty()) << "a one-sided max must not invent a value";
}

TEST(Prometheus, SanitizesMetricNames) {
  EXPECT_EQ(obs::sanitize_metric_name("monitor.pairs_measured"),
            "monitor_pairs_measured");
  EXPECT_EQ(obs::sanitize_metric_name("net:bytes"), "net:bytes");
  EXPECT_EQ(obs::sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(obs::sanitize_metric_name("a-b c"), "a_b_c");
  EXPECT_EQ(obs::sanitize_metric_name(""), "");
}

TEST(Prometheus, RendersCountersGaugesAndMaxes) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("b.level").set(1.5);
  reg.gauge("b.level").set(0.5);
  const std::string text = obs::expose_prometheus(reg);
  EXPECT_NE(text.find("# TYPE a_count counter\na_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE b_level gauge\nb_level 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE b_level_max gauge\nb_level_max 1.5\n"),
            std::string::npos);
  // Counters render before gauges; samples are name-sorted within a kind.
  EXPECT_LT(text.find("a_count 3"), text.find("b_level 0.5"));
}

TEST(Prometheus, HistogramBucketsAreCumulative) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h", {1.0, 10.0});
  h.observe(0.5);
  h.observe(1.0);
  h.observe(5.0);
  h.observe(50.0);
  const std::string text = obs::expose_prometheus(reg);
  EXPECT_NE(text.find("# TYPE h histogram\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"10\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("h_sum 56.5\n"), std::string::npos);
  EXPECT_NE(text.find("h_count 4\n"), std::string::npos);
}

// A high-water mark with no surviving current value (possible after a
// one-sided merge) still exposes, as `<name>_max` alone.
TEST(Prometheus, OrphanGaugeMaxStillExposes) {
  obs::MetricsSnapshot snap;
  snap.gauge_maxes["net.arena_peak"] = 4096.0;
  const std::string text = obs::expose_prometheus(snap);
  EXPECT_NE(text.find("# TYPE net_arena_peak_max gauge\nnet_arena_peak_max 4096\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE net_arena_peak gauge"), std::string::npos);
}

// The exposition is a pure function of the snapshot: equal snapshots from
// differently ordered construction render byte-identically.
TEST(Prometheus, ByteStableAcrossConstructionOrder) {
  obs::MetricsRegistry a;
  a.counter("z").inc(1);
  a.counter("a").inc(2);
  a.gauge("m").set(3.0);
  a.histogram("h", {1.0}).observe(0.5);
  obs::MetricsRegistry b;
  b.histogram("h", {1.0}).observe(0.5);
  b.gauge("m").set(3.0);
  b.counter("a").inc(2);
  b.counter("z").inc(1);
  EXPECT_EQ(obs::expose_prometheus(a), obs::expose_prometheus(b));
}

// After a mismatched-bounds merge the +Inf bucket and _count lines must
// agree — the exposition's own consistency requirement.
TEST(Prometheus, MergedMismatchedHistogramStaysConsistent) {
  obs::MetricsRegistry a;
  a.histogram("h", {1.0}).observe(0.5);
  obs::MetricsRegistry b;
  b.histogram("h", {2.0, 4.0}).observe(3.0);
  b.histogram("h", {2.0, 4.0}).observe(9.0);
  obs::MetricsSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  const std::string text = obs::expose_prometheus(m);
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("h_count 3\n"), std::string::npos);
  // The fold lands in the implicit overflow bucket, past every finite
  // bound: the finite cumulative counts only what was really bucketed.
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 1\n"), std::string::npos);
}

TEST(EventLog, ThresholdFiltersAndCountsSuppressed) {
  obs::EventLog log(8);
  EXPECT_FALSE(log.would_log(util::LogLevel::kDebug, "monitor"));
  log.log(util::LogLevel::kDebug, "monitor", "ignored");
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.suppressed(), 1u);
  EXPECT_EQ(log.total_pushed(), 0u);
  log.set_threshold(util::LogLevel::kDebug);
  log.log(util::LogLevel::kDebug, "monitor", "kept");
  EXPECT_EQ(log.size(), 1u);
  // Per-subsystem override wins over the global threshold.
  log.set_threshold("net", util::LogLevel::kError);
  EXPECT_FALSE(log.would_log(util::LogLevel::kWarn, "net"));
  EXPECT_TRUE(log.would_log(util::LogLevel::kWarn, "monitor"));
  log.log(util::LogLevel::kWarn, "net", "suppressed-by-override");
  EXPECT_EQ(log.suppressed(), 2u);
  log.log(util::LogLevel::kError, "net", "kept");
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.threshold("net"), util::LogLevel::kError);
  EXPECT_EQ(log.threshold("monitor"), util::LogLevel::kDebug);
}

TEST(EventLog, RingWrapsOldestFirstWithDropAccounting) {
  obs::EventLog log(4);
  log.set_threshold(util::LogLevel::kDebug);
  for (int i = 0; i < 10; ++i) {
    log.set_clock(static_cast<double>(i));
    log.log(util::LogLevel::kInfo, "s", "e" + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_pushed(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.suppressed(), 0u) << "drops are pressure, not policy";
  const std::vector<obs::LogEvent> events = log.events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].event, "e" + std::to_string(6 + i));
    EXPECT_DOUBLE_EQ(events[i].t, 6.0 + static_cast<double>(i));
  }
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLog, JsonlLinesParseWithSortedFields) {
  obs::EventLog log;
  log.set_clock(12.5);
  log.log(util::LogLevel::kWarn, "rpc", "method-error",
          {{"zcode", rpc::Json(-32601.0)}, {"attempt", rpc::Json(1.0)}});
  const std::string jsonl = log.to_jsonl();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  const std::string line = jsonl.substr(0, jsonl.size() - 1);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = rpc::Json::parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ((*parsed)["level"].as_string(), "warn");
  EXPECT_EQ((*parsed)["subsystem"].as_string(), "rpc");
  EXPECT_EQ((*parsed)["event"].as_string(), "method-error");
  EXPECT_DOUBLE_EQ((*parsed)["t"].as_number(), 12.5);
  EXPECT_DOUBLE_EQ((*parsed)["fields"]["zcode"].as_number(), -32601.0);
  // Keys render sorted regardless of field insertion order.
  EXPECT_LT(line.find("\"attempt\""), line.find("\"zcode\""));
}

TEST(EventLog, LevelNamesRoundTrip) {
  using util::LogLevel;
  for (LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                     LogLevel::kError, LogLevel::kOff}) {
    LogLevel back = LogLevel::kOff;
    ASSERT_TRUE(obs::log_level_from_name(obs::log_level_name(l), back));
    EXPECT_EQ(back, l);
  }
  LogLevel out = LogLevel::kInfo;
  EXPECT_FALSE(obs::log_level_from_name("verbose", out));
}

// The log is internally synchronized: concurrent appenders (the RPC server
// logs method errors from reader threads) must not corrupt the ring.
TEST(EventLog, ConcurrentWritersKeepAccountingExact) {
  obs::EventLog log(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.log(util::LogLevel::kInfo, "w" + std::to_string(t), "tick",
                {{"i", rpc::Json(static_cast<double>(i))}});
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(log.total_pushed(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.size(), 64u);
  EXPECT_EQ(log.dropped(), static_cast<uint64_t>(kThreads * kPerThread - 64));
  for (const obs::LogEvent& e : log.events()) EXPECT_EQ(e.event, "tick");
}

TEST(Phase, ScopedPhaseRecordsClockDelta) {
  sim::Simulator sim;
  sim.run_until(1.0);
  obs::Histogram h({1.0, 10.0});
  {
    core::ScopedPhase p(&h, sim);
    sim.run_until(3.5);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5);
  // finish() records once; the destructor then adds nothing.
  {
    core::ScopedPhase p(&h, sim);
    sim.run_until(4.0);
    p.finish();
    sim.run_until(9.0);
  }
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0);
  // Null histogram: no-op, no crash.
  {
    core::ScopedPhase p(nullptr, sim);
    sim.run_until(12.0);
  }
  EXPECT_EQ(h.count(), 2u);
}

TEST(Export, JsonRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("b.level").set(1.5);
  reg.gauge("b.level").set(0.5);
  reg.histogram("c.hist", obs::duration_bounds()).observe(0.2);
  reg.histogram("c.hist", obs::duration_bounds()).observe(42.0);
  const obs::MetricsSnapshot s = reg.snapshot();
  const rpc::Json j = obs::snapshot_to_json(s);
  const auto back = obs::snapshot_from_json(j);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  // Serialization itself is stable.
  EXPECT_EQ(j.dump(), obs::snapshot_to_json(*back).dump());
}

// Hostile integers: a counter or histogram count of 1e300 cannot be a
// uint64 (the cast is undefined behaviour), so the decoder rejects it.
TEST(Export, JsonRejectsOutOfRangeCounts) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.histogram("c.hist", obs::duration_bounds()).observe(0.2);
  const rpc::Json good = obs::snapshot_to_json(reg.snapshot());
  ASSERT_TRUE(obs::snapshot_from_json(good).has_value());

  rpc::Json j = good;
  j.as_object()["counters"].as_object()["a.count"] = rpc::Json(1e300);
  EXPECT_FALSE(obs::snapshot_from_json(j).has_value()) << "counter";
  j = good;
  j.as_object()["histograms"].as_object()["c.hist"].as_object()["count"] = rpc::Json(1e300);
  EXPECT_FALSE(obs::snapshot_from_json(j).has_value()) << "histogram count";
  j = good;
  j.as_object()["histograms"].as_object()["c.hist"].as_object()["counts"].as_array()[0] =
      rpc::Json(1e300);
  EXPECT_FALSE(obs::snapshot_from_json(j).has_value()) << "histogram bucket count";
}

// The paper-level guarantee the subsystem is built around: metrics are
// keyed to simulation quantities only, so identically seeded runs export
// byte-identical documents.
TEST(ObsDeterminism, SameSeedSameMetrics) {
  auto run = [] {
    graph::Graph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(0, 2);
    core::ScenarioOptions opt;
    opt.seed = 11;
    opt.mempool_capacity = 256;
    opt.future_cap = 64;
    opt.background_txs = 192;
    core::Scenario sc(g, opt);
    sc.seed_background();
    const auto cfg = sc.default_measure_config();
    (void)core::MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
    return obs::snapshot_to_json(sc.snapshot_metrics()).dump();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("mempool.evictions"), std::string::npos);
  EXPECT_NE(first.find("probe.phase.flood_seconds"), std::string::npos);
}

// A scenario measurement populates every layer's metrics.
TEST(ObsWiring, ScenarioMeasurementTouchesAllLayers) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  core::ScenarioOptions opt;
  opt.seed = 3;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  core::Scenario sc(g, opt);
  sc.seed_background();
  (void)core::MeasurementSession(sc).one_link(sc.targets()[0], sc.targets()[1]).value;
  const obs::MetricsSnapshot s = sc.snapshot_metrics();
  EXPECT_GT(s.counters.at("net.messages"), 0u);
  EXPECT_GT(s.counters.at("mempool.evictions"), 0u);
  EXPECT_GT(s.counters.at("mempool.admits.future"), 0u);
  EXPECT_GT(s.counters.at("probe.runs"), 0u);
  EXPECT_GT(s.counters.at("probe.txs_injected"), 0u);
  EXPECT_GT(s.histograms.at("probe.phase.flood_seconds").count, 0u);
  EXPECT_GT(s.histograms.at("probe.link_seconds").count, 0u);
  EXPECT_GT(s.gauges.at("sim.events_processed"), 0.0);
  EXPECT_GT(s.gauges.at("sim.queue_high_water"), 0.0);
}

}  // namespace
}  // namespace topo
