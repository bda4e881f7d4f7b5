// Coverage for the causal-tracing layer (obs/span.*) and the diagnostics
// report annex: span nesting and stable ids, Chrome-trace schema, strict
// annex round-trips, and the cause plumbing through the serial one-link
// driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/report_io.h"
#include "core/session.h"
#include "core/toposhot.h"
#include "graph/generators.h"
#include "obs/span.h"
#include "util/cli.h"

namespace topo {
namespace {

// -- stable span ids ---------------------------------------------------------

TEST(SpanIds, PackingIsInjectiveAcrossCoordinates) {
  // Same coordinates, different kinds → different ids; different
  // coordinates never collide within a kind.
  EXPECT_NE(obs::shard_span_id(0), obs::batch_span_id(0, 0));
  EXPECT_NE(obs::batch_span_id(0, 0), obs::pair_span_id(0, 0, 0));
  EXPECT_NE(obs::pair_span_id(1, 2, 3), obs::pair_span_id(1, 3, 2));
  EXPECT_NE(obs::pair_span_id(2, 1, 3), obs::pair_span_id(3, 1, 2));
  // Ordinal ids live in their own (bit-63) namespace.
  EXPECT_NE(obs::ordinal_span_id(0, 0, obs::SpanKind::kObserve) >> 63, 0u);
  EXPECT_EQ(obs::pair_span_id(5, 9, 100) >> 63, 0u);
  // The kind nibble is recoverable from any id.
  EXPECT_EQ(obs::batch_span_id(7, 31) & 0xF, static_cast<uint64_t>(obs::SpanKind::kBatch));
  EXPECT_EQ(obs::ordinal_span_id(7, 31, obs::SpanKind::kRetryRound) & 0xF,
            static_cast<uint64_t>(obs::SpanKind::kRetryRound));
}

// -- SpanTracer nesting ------------------------------------------------------

TEST(SpanTracer, RecordsNestedStructureWithScopedParents) {
  obs::SpanTracer tr(3);
  const uint64_t shard =
      tr.open(obs::SpanKind::kShard, 0.0, obs::shard_span_id(3), obs::kCampaignSpanId, 3, 2);
  tr.set_scope(shard);
  tr.set_batch(5);
  const uint64_t batch = tr.open(obs::SpanKind::kBatch, 1.0, obs::batch_span_id(3, 5), shard, 5, 1);
  const uint64_t prev = tr.set_scope(batch);
  EXPECT_EQ(prev, shard);

  const uint64_t pair = tr.open_pair_at(0, 1.5, 10, 11);
  EXPECT_EQ(pair, obs::pair_span_id(3, 5, 0));
  const uint64_t pair_scope = tr.set_scope(pair);
  const uint64_t phase = tr.open_auto(obs::SpanKind::kPlantTxC, 1.6, 10);
  tr.close(phase, 2.0);
  tr.set_scope(pair_scope);
  tr.close_pair(pair, 3.0, 2, obs::ProbeCause::kTxANeverReturned);
  tr.close(batch, 3.5);
  tr.set_scope(0);
  tr.close(shard, 4.0);

  auto find = [&tr](uint64_t id) {
    const auto& v = tr.spans();
    return *std::find_if(v.begin(), v.end(), [id](const obs::Span& s) { return s.id == id; });
  };
  EXPECT_EQ(find(shard).parent, obs::kCampaignSpanId);
  EXPECT_EQ(find(batch).parent, shard);
  EXPECT_EQ(find(pair).parent, batch);
  EXPECT_EQ(find(phase).parent, pair);
  EXPECT_EQ(find(phase).shard, 3u);
  const obs::Span& p = find(pair);
  EXPECT_EQ(p.verdict, 2) << "negative";
  EXPECT_EQ(p.cause, obs::ProbeCause::kTxANeverReturned);
  EXPECT_DOUBLE_EQ(p.end, 3.0);
}

TEST(SpanTracer, SetBatchResetsThePairOrdinal) {
  obs::SpanTracer tr(0);
  tr.set_batch(0);
  EXPECT_EQ(tr.open_pair(0.0, 1, 2), obs::pair_span_id(0, 0, 0));
  EXPECT_EQ(tr.open_pair(0.0, 3, 4), obs::pair_span_id(0, 0, 1));
  tr.set_batch(1);
  EXPECT_EQ(tr.open_pair(0.0, 5, 6), obs::pair_span_id(0, 1, 0))
      << "pair ordinal restarts per batch";
}

// -- Chrome trace export -----------------------------------------------------

std::vector<obs::Span> sample_spans() {
  obs::SpanTracer tr(1);
  const uint64_t shard =
      tr.open(obs::SpanKind::kShard, 0.0, obs::shard_span_id(1), obs::kCampaignSpanId, 1, 1);
  tr.set_scope(shard);
  tr.set_batch(0);
  const uint64_t pair = tr.open_pair_at(0, 0.5, 4, 7);
  tr.set_scope(pair);
  const uint64_t phase = tr.open_auto(obs::SpanKind::kEvictFlood, 0.6, 7);
  tr.close(phase, 1.1);
  tr.instant(obs::SpanKind::kRetryClear, 1.2, 4, 7, 1, obs::ProbeCause::kTxCNotEvicted);
  tr.set_scope(shard);
  tr.close_pair(pair, 1.5, 1, obs::ProbeCause::kNone);
  tr.set_scope(0);
  tr.close(shard, 2.0);
  return tr.spans();
}

TEST(ChromeTrace, ExportFollowsTheTraceEventSchema) {
  const rpc::Json doc = obs::spans_to_chrome_json(sample_spans());
  // The dump must re-parse: Perfetto consumes this byte stream.
  const auto reparsed = rpc::Json::parse(doc.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(doc["displayTimeUnit"].as_string(), "ms");
  const auto& events = doc["traceEvents"].as_array();
  ASSERT_EQ(events.size(), sample_spans().size());
  for (const auto& e : events) {
    EXPECT_EQ(e["ph"].as_string(), "X") << "complete events only";
    EXPECT_TRUE(e["name"].is_string());
    EXPECT_TRUE(e["cat"].is_string());
    EXPECT_TRUE(e["ts"].is_number());
    EXPECT_TRUE(e["dur"].is_number());
    EXPECT_TRUE(e["pid"].is_number());
    EXPECT_EQ(static_cast<uint64_t>(e["tid"].as_number()), 1u) << "tid = shard";
    EXPECT_TRUE(e["args"]["id"].is_number());
    EXPECT_TRUE(e["args"]["parent"].is_number());
  }
  // Sorted order puts the structural pair span before the ordinal phase
  // span; its args carry the verdict annotations, µs timestamps.
  const auto& pair = events[1];
  EXPECT_EQ(pair["name"].as_string(), "pair 4-7");
  EXPECT_EQ(pair["cat"].as_string(), "schedule");
  EXPECT_EQ(pair["args"]["verdict"].as_string(), "connected");
  EXPECT_EQ(pair["args"]["cause"].as_string(), "none");
  EXPECT_DOUBLE_EQ(pair["ts"].as_number(), 0.5 * 1e6);
  EXPECT_DOUBLE_EQ(pair["dur"].as_number(), 1e6);
}

TEST(ChromeTrace, ExportIsRecordingOrderIndependent) {
  std::vector<obs::Span> spans = sample_spans();
  std::vector<obs::Span> reversed(spans.rbegin(), spans.rend());
  EXPECT_EQ(obs::spans_to_chrome_json(spans).dump(),
            obs::spans_to_chrome_json(reversed).dump())
      << "canonical sort makes the export a pure function of the span set";
}

TEST(ChromeTrace, VerdictAndCauseNamesRoundTrip) {
  for (uint8_t code = 1; code <= 3; ++code) EXPECT_STRNE(obs::span_verdict_name(code), "");
  EXPECT_STREQ(obs::span_verdict_name(0), "");
  for (size_t c = 0; c < obs::kNumProbeCauses; ++c) {
    const auto cause = static_cast<obs::ProbeCause>(c);
    obs::ProbeCause back = obs::ProbeCause::kNone;
    ASSERT_TRUE(obs::probe_cause_from_name(obs::probe_cause_name(cause), back));
    EXPECT_EQ(back, cause);
  }
  obs::ProbeCause out;
  EXPECT_FALSE(obs::probe_cause_from_name("unknown-cause", out));
}

// -- diagnostics annex round-trip -------------------------------------------

core::NetworkMeasurementReport diag_report() {
  util::Rng rng(4);
  core::NetworkMeasurementReport report;
  report.measured = graph::erdos_renyi_gnm(6, 8, rng);
  report.iterations = 1;
  report.pairs_tested = 15;
  report.sim_seconds = 5.0;
  report.txs_sent = 200;
  core::DiagnosticsReport d;
  d.causes[static_cast<size_t>(obs::ProbeCause::kNone)] = 9;
  d.causes[static_cast<size_t>(obs::ProbeCause::kTxANeverReturned)] = 4;
  d.causes[static_cast<size_t>(obs::ProbeCause::kTxCNotEvicted)] = 2;
  d.cleared[static_cast<size_t>(obs::ProbeCause::kNodeOffline)] = 1;
  d.inconclusive = {{0, 3, obs::ProbeCause::kTxCNotEvicted},
                    {2, 5, obs::ProbeCause::kPayloadNotPlanted}};
  report.diagnostics = std::move(d);
  return report;
}

TEST(DiagnosticsAnnex, RoundTripsAndIsOmittedWhenAbsent) {
  core::NetworkMeasurementReport report = diag_report();
  const auto back = core::report_from_json(core::report_to_json(report));
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->diagnostics.has_value());
  EXPECT_EQ(*back->diagnostics, *report.diagnostics);

  report.diagnostics.reset();
  EXPECT_EQ(core::report_to_json(report).dump().find("diagnostics"), std::string::npos)
      << "no annex key when collection was off (byte-identity with pre-annex reports)";
}

TEST(DiagnosticsAnnex, StrictParseRejectsMalformedDocuments) {
  const rpc::Json good = core::report_to_json(diag_report());
  ASSERT_TRUE(core::report_from_json(good).has_value());

  auto mutate = [&good](auto&& fn) {
    rpc::Json j = good;
    fn(j.as_object()["diagnostics"].as_object());
    return core::report_from_json(j).has_value();
  };
  // Unknown cause name inside a triple.
  EXPECT_FALSE(mutate([](rpc::JsonObject& d) {
    d["inconclusive"].as_array()[0].as_array()[2] = rpc::Json("cosmic-rays");
  }));
  // Truncated triple.
  EXPECT_FALSE(mutate([](rpc::JsonObject& d) {
    d["inconclusive"].as_array()[0].as_array().pop_back();
  }));
  // Tally object missing a cause key.
  EXPECT_FALSE(mutate([](rpc::JsonObject& d) { d["causes"].as_object().erase("none"); }));
  // Tally object with an extra (unknown) key.
  EXPECT_FALSE(mutate([](rpc::JsonObject& d) {
    d["cleared"].as_object()["bit-flip"] = rpc::Json(uint64_t{1});
  }));
  // Negative tally.
  EXPECT_FALSE(mutate([](rpc::JsonObject& d) {
    d["causes"].as_object()["none"] = rpc::Json(-1.0);
  }));
  // Wrong type for the whole annex.
  {
    rpc::Json j = good;
    j.as_object()["diagnostics"] = rpc::Json("nope");
    EXPECT_FALSE(core::report_from_json(j).has_value());
  }
}

// -- cause plumbing through the serial driver --------------------------------

TEST(ProbeCausePlumbing, OneLinkDriverAnnotatesVerdictsAndSpans) {
  // Path A - C - B: A-B negative; triangle leg A-C connected. Both verdicts
  // must carry the matching cause, and the attached tracer must record the
  // pair span with nested protocol phases.
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  core::ScenarioOptions opt;
  opt.seed = 7;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  core::Scenario scenario(g, opt);
  scenario.seed_background();
  obs::SpanTracer tracer(0);
  scenario.set_span_tracer(&tracer);

  core::MeasurementSession session(scenario);
  const auto neg = session.one_link(scenario.targets()[0], scenario.targets()[1]).value;
  EXPECT_EQ(neg.verdict, core::Verdict::kNegative);
  EXPECT_EQ(neg.cause, obs::ProbeCause::kTxANeverReturned)
      << "clean negatives name the unreturned probe";

  const auto pos = session.one_link(scenario.targets()[0], scenario.targets()[2]).value;
  EXPECT_EQ(pos.verdict, core::Verdict::kConnected);
  EXPECT_EQ(pos.cause, obs::ProbeCause::kNone);

  const auto& spans = tracer.spans();
  const auto pairs = std::count_if(spans.begin(), spans.end(), [](const obs::Span& s) {
    return s.kind == obs::SpanKind::kPair;
  });
  EXPECT_EQ(pairs, 2) << "one pair span per measured link";
  // Every phase span hangs off a pair span, on the protocol's own steps.
  bool saw_phase = false;
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kPair || s.kind == obs::SpanKind::kRetryClear) continue;
    saw_phase = true;
    EXPECT_EQ(s.parent & 0xF, static_cast<uint64_t>(obs::SpanKind::kPair))
        << span_kind_name(s.kind) << " span not nested under a pair";
    EXPECT_GE(s.end, s.start);
  }
  EXPECT_TRUE(saw_phase);
  // Pair spans carry the verdicts in measurement order.
  std::vector<uint8_t> verdicts;
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kPair) verdicts.push_back(s.verdict);
  }
  EXPECT_EQ(verdicts, (std::vector<uint8_t>{2, 1}));
}

// -- CLI flag validation -----------------------------------------------------

// A traced run's numeric flags (here --threads) fail loudly beside an
// empty --trace-out.
TEST(TraceCliDeathTest, RejectsMalformedTraceCapacity) {
  const char* argv[] = {"prog", "--threads=4k", "--trace-out="};
  util::Cli cli(3, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_uint("threads", 1), ::testing::ExitedWithCode(2),
              "invalid value for --threads");
  EXPECT_EQ(cli.get_string("trace-out", "dflt"), "") << "empty path is a string, not a crash";
}

}  // namespace
}  // namespace topo
