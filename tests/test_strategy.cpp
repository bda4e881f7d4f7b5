// The measurement-strategy seam: name/kind round-trips, the "strategy"
// report field (omitted-when-default byte identity, strict rejection),
// dispatch equivalence between the session and a hand-wired TopoShot
// strategy, and
// the two rival strategies' characteristic behaviour — DEthna's cheap
// timing inference and TxProbe's propagation-regime-dependent isolation
// (it works announce-only, and honestly fails on Ethereum-style push).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/report_io.h"
#include "core/session.h"
#include "core/strategy.h"
#include "core/toposhot.h"
#include "core/validator.h"
#include "graph/generators.h"
#include "p2p/node.h"
#include "util/cli.h"

namespace topo::core {
namespace {

ScenarioOptions small_options(uint64_t seed) {
  ScenarioOptions opt;
  opt.seed = seed;
  opt.mempool_capacity = 192;
  opt.future_cap = 48;
  opt.background_txs = 128;
  return opt;
}

TEST(StrategyNames, RoundTripAndRejection) {
  EXPECT_STREQ(strategy_name(StrategyKind::kToposhot), "toposhot");
  EXPECT_STREQ(strategy_name(StrategyKind::kDethna), "dethna");
  EXPECT_STREQ(strategy_name(StrategyKind::kTxprobe), "txprobe");
  for (size_t k = 0; k < kNumStrategies; ++k) {
    const auto kind = static_cast<StrategyKind>(k);
    StrategyKind parsed = StrategyKind::kToposhot;
    ASSERT_TRUE(strategy_from_name(strategy_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  StrategyKind out = StrategyKind::kToposhot;
  EXPECT_FALSE(strategy_from_name("TopoShot", out)) << "names are case-sensitive";
  EXPECT_FALSE(strategy_from_name("txprobe2", out));
  EXPECT_FALSE(strategy_from_name("", out));
}

TEST(StrategyNames, FactoryProducesMatchingKinds) {
  graph::Graph g(2);
  Scenario sc(g, small_options(5));
  const MeasureConfig cfg = sc.default_measure_config();
  for (size_t k = 0; k < kNumStrategies; ++k) {
    const auto kind = static_cast<StrategyKind>(k);
    EXPECT_EQ(sc.make_strategy(kind, cfg)->kind(), kind);
  }
}

TEST(StrategyReportField, OmittedWhenDefaultPresentOtherwise) {
  NetworkMeasurementReport report;
  report.measured = graph::Graph(3);
  report.pairs_tested = 3;
  const std::string def = report_to_json(report).dump();
  EXPECT_EQ(def.find("\"strategy\""), std::string::npos)
      << "default-strategy reports must keep the pre-seam document shape";

  for (StrategyKind kind : {StrategyKind::kDethna, StrategyKind::kTxprobe}) {
    report.strategy = kind;
    const rpc::Json j = report_to_json(report);
    ASSERT_TRUE(j["strategy"].is_string());
    EXPECT_EQ(j["strategy"].as_string(), strategy_name(kind));
    const auto parsed = report_from_json(j);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->strategy, kind);
  }

  // Absent field parses as the default.
  report.strategy = StrategyKind::kToposhot;
  const auto parsed = report_from_json(*rpc::Json::parse(def));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->strategy, StrategyKind::kToposhot);
}

TEST(StrategyReportField, StrictlyRejectsUnknownOrMistyped) {
  NetworkMeasurementReport report;
  report.measured = graph::Graph(2);
  report.strategy = StrategyKind::kDethna;
  const std::string good = report_to_json(report).dump();

  std::string unknown = good;
  unknown.replace(unknown.find("\"dethna\""), 8, "\"bitcoin\"");
  EXPECT_FALSE(report_from_json(*rpc::Json::parse(unknown)).has_value())
      << "an unknown strategy name must reject the whole document";

  std::string mistyped = good;
  mistyped.replace(mistyped.find("\"dethna\""), 8, "7");
  EXPECT_FALSE(report_from_json(*rpc::Json::parse(mistyped)).has_value())
      << "a non-string strategy must reject the whole document";
}

// The session's default dispatch (Scenario::make_strategy's wiring) must be
// trajectory-identical to a ToposhotStrategy wired by hand from the
// scenario's parts: same seed, same probe, same bytes out.
TEST(StrategySeam, DefaultDispatchMatchesLegacyEntryPoints) {
  util::Rng rng(11);
  const graph::Graph truth = graph::erdos_renyi_gnm(10, 18, rng);

  Scenario direct(truth, small_options(33));
  direct.seed_background();
  const MeasureConfig cfg = direct.default_measure_config();
  ToposhotStrategy one(direct.net(), direct.m(), direct.accounts(), direct.factory(), cfg);
  one.set_cost_tracker(&direct.costs());
  one.set_metrics(&direct.metrics());
  const OneLinkResult via_direct = one.measure_pair(direct.targets()[0], direct.targets()[1]);

  Scenario seam(truth, small_options(33));
  seam.seed_background();
  MeasurementSession session(seam, cfg);
  ASSERT_EQ(session.strategy(), StrategyKind::kToposhot);
  const OneLinkResult via_seam =
      session.one_link(seam.targets()[0], seam.targets()[1]).value;

  EXPECT_EQ(via_seam.connected, via_direct.connected);
  EXPECT_EQ(via_seam.verdict, via_direct.verdict);
  EXPECT_EQ(via_seam.cause, via_direct.cause);
  EXPECT_EQ(via_seam.attempts, via_direct.attempts);
  EXPECT_EQ(via_seam.txa_hash, via_direct.txa_hash);
  EXPECT_EQ(via_seam.txb_hash, via_direct.txb_hash);
  EXPECT_EQ(via_seam.txc_hash, via_direct.txc_hash);
  EXPECT_EQ(via_seam.txs_sent, via_direct.txs_sent);
  EXPECT_DOUBLE_EQ(via_seam.started_at, via_direct.started_at);
  EXPECT_DOUBLE_EQ(via_seam.finished_at, via_direct.finished_at);
  EXPECT_EQ(via_seam.txc_evicted_on_a, via_direct.txc_evicted_on_a);
  EXPECT_EQ(via_seam.txc_evicted_on_b, via_direct.txc_evicted_on_b);
}

TEST(StrategySeam, SessionEchoesSelectedStrategyIntoReport) {
  util::Rng rng(13);
  const graph::Graph truth = graph::erdos_renyi_gnm(8, 12, rng);
  Scenario sc(truth, small_options(55));
  sc.seed_background();
  MeasurementSession session(sc);
  session.set_strategy(StrategyKind::kDethna);
  const auto measured = session.network(3);
  EXPECT_EQ(measured.value.strategy, StrategyKind::kDethna);
  EXPECT_EQ(measured.value.pairs_tested, 8u * 7 / 2);
  const std::string json = report_to_json(measured.value).dump();
  EXPECT_NE(json.find("\"strategy\":\"dethna\""), std::string::npos);
}

// DEthna: a line graph's adjacency is recoverable from echo timing alone,
// at a tiny fraction of TopoShot's transaction budget (one unmined marker
// per source instead of a Z-future flood per pair).
TEST(DethnaStrategy, InfersNeighborsFromEchoTimingCheaply) {
  graph::Graph truth(6);
  for (graph::NodeId v = 0; v + 1 < 6; ++v) truth.add_edge(v, v + 1);
  Scenario sc(truth, small_options(7));
  sc.seed_background();
  MeasureConfig cfg = sc.default_measure_config();
  cfg.repetitions = 3;
  MeasurementSession session(sc, cfg);
  session.set_strategy(StrategyKind::kDethna);

  const auto measured = session.network(3);
  const auto pr = compare_graphs(truth, measured.value.measured);
  EXPECT_GE(pr.recall(), 0.6) << "adjacent sinks echo one hop earlier";
  EXPECT_GE(pr.precision(), 0.6) << "two-hop echoes arrive a latency draw later";

  // One marker per source per repetition — orders of magnitude below the
  // TopoShot flood budget, and nothing is ever mined.
  EXPECT_LT(measured.value.txs_sent, 200u);
  const auto wei = measured.metrics.gauges.find("cost.wei_spent");
  if (wei != measured.metrics.gauges.end()) {
    EXPECT_EQ(wei->second, 0.0) << "below-market markers must never be mined";
  }
}

TEST(DethnaStrategy, PlumbsOfflineCauseAndVerdicts) {
  graph::Graph truth(3);
  truth.add_edge(0, 1);
  truth.add_edge(1, 2);
  Scenario sc(truth, small_options(9));
  sc.seed_background();
  auto strat = sc.make_strategy(StrategyKind::kDethna, sc.default_measure_config());
  strat->prepare(sc);

  sc.net().node(sc.targets()[0]).set_unresponsive(true);
  const OneLinkResult down = strat->measure_pair(sc.targets()[0], sc.targets()[1]);
  EXPECT_EQ(down.verdict, Verdict::kInconclusive);
  EXPECT_EQ(down.cause, obs::ProbeCause::kNodeOffline);
  sc.net().node(sc.targets()[0]).set_unresponsive(false);

  const OneLinkResult up = strat->measure_pair(sc.targets()[1], sc.targets()[2]);
  EXPECT_NE(up.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(up.txa_planted_on_a) << "the marker must sit on the source";
}

// TxProbe's regime dependence, the §4.1 story: announcement blocking
// isolates a pair on an announce-only (Bitcoin-style) network, and is
// bypassed by Ethereum-style direct pushes, which flood the marker and
// manufacture false positives.
TEST(TxProbeStrategy, IsolationHoldsAnnounceOnlyAndBreaksUnderPush) {
  graph::Graph truth(5);
  truth.add_edge(0, 1);
  truth.add_edge(1, 2);
  truth.add_edge(2, 3);
  truth.add_edge(3, 4);

  // Announce-only world: blocked nodes ignore the marker's announcements,
  // so only the probed pair can carry it.
  Scenario iso(truth, small_options(17));
  auto strat = iso.make_strategy(StrategyKind::kTxprobe, iso.default_measure_config());
  apply_propagation_mode(iso, PropagationMode::kAnnounceOnly);
  strat->prepare(iso);
  iso.seed_background();
  const OneLinkResult adj = strat->measure_pair(iso.targets()[0], iso.targets()[1]);
  EXPECT_TRUE(adj.connected);
  const OneLinkResult far = strat->measure_pair(iso.targets()[0], iso.targets()[3]);
  EXPECT_FALSE(far.connected) << "announce blocking must contain the marker";

  // Ethereum-style push world: the push path ignores announce blocks, the
  // marker floods, and the distant pair looks connected.
  Scenario push(truth, small_options(17));
  auto pstrat = push.make_strategy(StrategyKind::kTxprobe, push.default_measure_config());
  pstrat->prepare(push);
  push.seed_background();
  const OneLinkResult leaked = pstrat->measure_pair(push.targets()[0], push.targets()[3]);
  EXPECT_TRUE(leaked.connected) << "pushes bypass announcement blocking (the honest failure)";
}

TEST(TxProbeStrategy, PropagationOverridePreparesTheScenario) {
  graph::Graph truth(3);
  truth.add_edge(0, 1);
  Scenario sc(truth, small_options(19));
  auto strat = sc.make_strategy(StrategyKind::kTxprobe, sc.default_measure_config());
  auto* txprobe = static_cast<TxProbeStrategy*>(strat.get());
  txprobe->set_propagation_override(PropagationMode::kAnnounceOnly);
  strat->prepare(sc);
  for (p2p::PeerId id : sc.targets()) {
    EXPECT_TRUE(sc.net().node(id).config().announce_only);
    EXPECT_FALSE(sc.net().node(id).config().use_announcements);
  }
}

TEST(StrategyCli, GetChoiceAcceptsVocabulary) {
  const char* argv[] = {"prog", "--strategy=dethna"};
  util::Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_choice("strategy", "toposhot", {"toposhot", "dethna", "txprobe"}), "dethna");
  EXPECT_EQ(cli.get_choice("absent", "toposhot", {"toposhot", "dethna", "txprobe"}), "toposhot");
}

using StrategyCliDeathTest = ::testing::Test;

TEST(StrategyCliDeathTest, RejectsUnknownStrategy) {
  const char* argv[] = {"prog", "--strategy=txprober"};
  util::Cli cli(2, const_cast<char**>(argv));
  EXPECT_EXIT(cli.get_choice("strategy", "toposhot", {"toposhot", "dethna", "txprobe"}),
              ::testing::ExitedWithCode(2), "invalid value for --strategy");
}

}  // namespace
}  // namespace topo::core
