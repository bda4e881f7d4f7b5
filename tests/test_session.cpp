// MeasurementSession facade: per-call metrics annotation, the parallel
// entry point, the MeasureConfig builder, and ScenarioOptions validation.
// (Equivalence with a hand-wired TopoShot strategy is in test_strategy.cpp.)

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/session.h"
#include "core/toposhot.h"
#include "graph/generators.h"

namespace topo {
namespace {

core::ScenarioOptions small_options(uint64_t seed = 7) {
  core::ScenarioOptions opt;
  opt.seed = seed;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  return opt;
}

graph::Graph triangle() {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  return g;
}

TEST(Session, AnnotatesResultsWithPerCallDeltas) {
  core::Scenario sc(triangle(), small_options());
  sc.seed_background();
  core::MeasurementSession session(sc);
  const auto first = session.one_link(sc.targets()[0], sc.targets()[1]);
  EXPECT_EQ(first.metrics.counters.at("probe.runs"), 1u);
  EXPECT_GT(first.metrics.counters.at("net.messages"), 0u);
  EXPECT_GT(first.metrics.counters.at("mempool.evictions"), 0u);
  // A second call's delta counts only itself.
  const auto second = session.one_link(sc.targets()[0], sc.targets()[2]);
  EXPECT_EQ(second.metrics.counters.at("probe.runs"), 1u);
  // The cumulative snapshot saw both.
  EXPECT_EQ(session.snapshot().counters.at("probe.runs"), 2u);
}

TEST(Session, ParallelEntryPoint) {
  util::Rng rng(99);
  const graph::Graph g = graph::erdos_renyi_gnm(6, 9, rng);
  core::Scenario sc(g, small_options(21));
  sc.seed_background();
  core::MeasurementSession session(sc);

  const std::vector<p2p::PeerId> sources = {sc.targets()[0]};
  const std::vector<p2p::PeerId> sinks = {sc.targets()[1]};
  const auto r = session.parallel(sources, sinks, {{0, 0}});
  ASSERT_EQ(r.value.connected.size(), 1u);
  EXPECT_EQ(r.value.connected[0], g.has_edge(0, 1));
  EXPECT_EQ(r.metrics.counters.at("probe.parallel.runs"), 1u);
}

TEST(ConfigBuilder, FluentConstructionAndDefaults) {
  const auto cfg = core::MeasureConfig::Builder()
                       .wait_X(15.0)
                       .flood_Z(777)
                       .bump_bp(1200)
                       .repetitions(2)
                       .eip1559(true)
                       .build();
  EXPECT_DOUBLE_EQ(cfg.wait_X, 15.0);
  EXPECT_EQ(cfg.flood_Z, 777u);
  EXPECT_EQ(cfg.bump_bp, 1200u);
  EXPECT_EQ(cfg.repetitions, 2u);
  EXPECT_TRUE(cfg.eip1559);
  // Untouched fields keep the MeasureConfig defaults.
  const core::MeasureConfig defaults;
  EXPECT_DOUBLE_EQ(cfg.detect_wait, defaults.detect_wait);
  EXPECT_EQ(cfg.futures_per_account_U, defaults.futures_per_account_U);
}

TEST(ConfigBuilder, StartsFromExistingConfig) {
  core::MeasureConfig base;
  base.flood_Z = 4321;
  const auto cfg = core::MeasureConfig::Builder(base).repetitions(5).build();
  EXPECT_EQ(cfg.flood_Z, 4321u);
  EXPECT_EQ(cfg.repetitions, 5u);
}

TEST(ConfigBuilder, RejectsUnsoundParameters) {
  EXPECT_THROW((void)core::MeasureConfig::Builder().wait_X(0.0).build(), std::invalid_argument);
  EXPECT_THROW((void)core::MeasureConfig::Builder().detect_wait(-1.0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)core::MeasureConfig::Builder().flood_Z(0).build(), std::invalid_argument);
  EXPECT_THROW((void)core::MeasureConfig::Builder().repetitions(0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)core::MeasureConfig::Builder().bump_bp(20000).build(),
               std::invalid_argument);
  // Y = 1 wei collapses the integer price ladder (min_viable_Y = 40 at
  // the default 10% bump).
  EXPECT_THROW((void)core::MeasureConfig::Builder().price_Y(1).build(), std::invalid_argument);
  // Y = 0 means "estimate dynamically" and stays allowed.
  EXPECT_NO_THROW((void)core::MeasureConfig::Builder().price_Y(0).build());
}

TEST(ScenarioValidation, RejectsBackgroundLargerThanCapacity) {
  core::ScenarioOptions opt = small_options();
  opt.background_txs = opt.mempool_capacity + 1;
  EXPECT_THROW(core::Scenario(triangle(), opt), std::invalid_argument);
}

TEST(ScenarioValidation, RejectsFutureCapLargerThanCapacity) {
  core::ScenarioOptions opt = small_options();
  opt.future_cap = opt.mempool_capacity + 1;
  EXPECT_THROW(core::Scenario(triangle(), opt), std::invalid_argument);
}

TEST(ScenarioValidation, ValidatesAgainstEffectiveStockCapacity) {
  // capacity = 0 means "client stock" (Geth 5120); the raw option value
  // must not be compared directly.
  core::ScenarioOptions opt = small_options();
  opt.mempool_capacity = 0;
  opt.future_cap = 1024;
  opt.background_txs = 4000;
  EXPECT_NO_THROW(core::Scenario(triangle(), opt));
}

}  // namespace
}  // namespace topo
