// Tests for the pre-processing phase (§5.2.3, §6.2.1): future-forwarder
// detection, unresponsive-node detection, and flood-size discovery.

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/toposhot.h"
#include "core/validator.h"
#include "p2p/node.h"

namespace topo::core {
namespace {

ScenarioOptions opt_with(uint64_t seed) {
  ScenarioOptions opt;
  opt.seed = seed;
  opt.mempool_capacity = 128;
  opt.future_cap = 32;
  opt.background_txs = 96;
  return opt;
}

TEST(Preprocess, DetectsFutureForwarder) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  Scenario sc(g, opt_with(1));
  sc.seed_background();
  // Node 2 misbehaves: forwards future transactions.
  sc.net().node(sc.targets()[2]).mutable_config().forwards_future = true;

  const auto report = MeasurementSession(sc).preprocess().value;
  EXPECT_TRUE(report.future_forwarders.count(sc.targets()[2]));
  EXPECT_FALSE(report.future_forwarders.count(sc.targets()[0]));
  EXPECT_FALSE(report.future_forwarders.count(sc.targets()[1]));
}

TEST(Preprocess, DetectsUnresponsiveNode) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Scenario sc(g, opt_with(2));
  sc.seed_background();
  sc.net().node(sc.targets()[1]).set_unresponsive(true);

  const auto report = MeasurementSession(sc).preprocess().value;
  EXPECT_TRUE(report.unresponsive.count(sc.targets()[1]));
  EXPECT_FALSE(report.unresponsive.count(sc.targets()[0]));
  EXPECT_FALSE(report.unresponsive.count(sc.targets()[2]));
}

TEST(Preprocess, NonForwardingNodeIsFlaggedUnresponsive) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ScenarioOptions opt = opt_with(3);
  Scenario sc(g, opt);
  sc.seed_background();
  sc.net().node(sc.targets()[0]).mutable_config().forwards_transactions = false;

  const auto report = MeasurementSession(sc).preprocess().value;
  EXPECT_TRUE(report.unresponsive.count(sc.targets()[0]))
      << "a node that never forwards looks unresponsive to the probe";
}

TEST(Preprocess, FilterRemovesExcluded) {
  PreprocessReport report;
  report.future_forwarders.insert(2);
  report.unresponsive.insert(5);
  const auto kept = report.filter({1, 2, 3, 5, 8});
  EXPECT_EQ(kept, (std::vector<p2p::PeerId>{1, 3, 8}));
  EXPECT_TRUE(report.excluded(2));
  EXPECT_TRUE(report.excluded(5));
  EXPECT_FALSE(report.excluded(1));
}

TEST(Preprocess, FloodSizeProbeFindsCustomMempool) {
  // Target node 0 runs a double-size mempool; the default-Z measurement
  // misses, the escalated one succeeds.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  ScenarioOptions opt = opt_with(4);
  Scenario sc(g, opt);
  sc.seed_background();
  Preprocessor pre(sc.net(), sc.m(), sc.accounts(), sc.factory(),
                   sc.default_measure_config());
  const size_t z =
      pre.probe_flood_size(sc.targets()[0], sc.targets()[1], {8, 128, 256});
  EXPECT_EQ(z, 128u) << "Z=8 cannot evict txC from a 128-slot pool seeded with 96";
}


TEST(Preprocess, FloodOverridesRecoverCustomMempoolNodes) {
  // Node 0 runs a 2x mempool: the stock-Z schedule misses its links; a
  // pre-processing report carrying the discovered flood override fixes it.
  graph::Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(0, 4);
  g.add_edge(1, 3);
  ScenarioOptions opt = opt_with(9);
  Scenario sc(g, opt);
  mempool::MempoolPolicy big = mempool::profile_for(mempool::ClientKind::kGeth).policy;
  big.capacity = 2 * opt.mempool_capacity;
  big.future_cap = opt.future_cap;
  sc.net().node(sc.targets()[0]).pool() = mempool::Mempool(big, &sc.chain());
  sc.seed_background();

  MeasureConfig cfg = sc.default_measure_config();
  const auto blind = MeasurementSession(sc, cfg).network(2).value;
  EXPECT_FALSE(blind.measured.has_edge(0, 1)) << "stock flood cannot evict the 2x pool";

  PreprocessReport pre;
  pre.flood_override[sc.targets()[0]] = 2 * opt.mempool_capacity;
  const auto informed = MeasurementSession(sc, cfg).network(2, &pre).value;
  EXPECT_TRUE(informed.measured.has_edge(0, 1));
  EXPECT_TRUE(informed.measured.has_edge(0, 4));
  const auto pr = compare_graphs(g, informed.measured);
  EXPECT_DOUBLE_EQ(pr.precision(), 1.0);
  EXPECT_DOUBLE_EQ(pr.recall(), 1.0);
}

}  // namespace
}  // namespace topo::core
