// Edge-case and failure-injection tests for the measureOneLink primitive:
// the recall culprits of §6.1 reproduced deterministically, the strict
// isolation check, repetitions, and dynamic Y estimation.

#include <gtest/gtest.h>

#include "core/gas_estimator.h"
#include "core/session.h"
#include "core/toposhot.h"
#include "graph/generators.h"
#include "p2p/node.h"

namespace topo::core {
namespace {

ScenarioOptions base_options(uint64_t seed) {
  ScenarioOptions opt;
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

TEST(OneLinkEdgeCases, InsufficientFloodMissesLink) {
  // Z far below the pool content: txC survives, txA cannot replace it.
  Scenario sc(triangle(), base_options(1));
  sc.seed_background();
  MeasureConfig cfg = sc.default_measure_config();
  cfg.flood_Z = 16;
  const auto r = MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_FALSE(r.connected) << "tiny flood must fail closed (false negative)";
  EXPECT_FALSE(r.txc_evicted_on_b);
}

TEST(OneLinkEdgeCases, UnlimitedFuturesPerAccountStillFloods) {
  // Regression: U = 0 ("the target caps nothing") used to make the flood
  // loop body run zero times — an empty flood, so txC was never evicted and
  // every link measured as a silent false negative. The flood plan now
  // crafts one future per account in that case.
  Scenario sc(triangle(), base_options(10));
  sc.seed_background();
  MeasureConfig cfg = sc.default_measure_config();
  cfg.futures_per_account_U = 0;
  const auto r = MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_TRUE(r.connected) << "U=0 must not silently skip the eviction flood";
  EXPECT_TRUE(r.txc_evicted_on_a);
  EXPECT_TRUE(r.txc_evicted_on_b);
}

TEST(OneLinkEdgeCases, CustomLargerMempoolNeedsLargerFlood) {
  // Culprit 1 of §6.1: the target runs a double-size pool.
  graph::Graph g = triangle();
  Scenario sc(g, base_options(2));
  mempool::MempoolPolicy big = mempool::profile_for(mempool::ClientKind::kGeth).policy;
  big.capacity = 512;
  big.future_cap = 64;
  sc.net().node(sc.targets()[0]).pool() = mempool::Mempool(big, &sc.chain());
  sc.seed_background();

  MeasureConfig cfg = sc.default_measure_config();  // Z = 256
  auto r = MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_FALSE(r.connected) << "default flood cannot evict txC from a 2x pool";

  cfg.flood_Z = 512;  // the pre-processing remedy (§5.2.3)
  r = MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_TRUE(r.connected);
}

TEST(OneLinkEdgeCases, CustomBumpBlocksReplacement) {
  // Culprit 2: the sink requires a 25% bump; txA's 10.5% over txB fails.
  graph::Graph g = triangle();
  Scenario sc(g, base_options(3));
  mempool::MempoolPolicy proud = mempool::profile_for(mempool::ClientKind::kGeth).policy;
  proud.capacity = 256;
  proud.future_cap = 64;
  proud.replace_bump_bp = 2500;
  sc.net().node(sc.targets()[1]).pool() = mempool::Mempool(proud, &sc.chain());
  sc.seed_background();
  const auto r = MeasurementSession(sc).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_FALSE(r.connected);
}

TEST(OneLinkEdgeCases, NonForwardingSourceMissesLink) {
  // Culprit 3: the source buffers txA but never propagates it.
  graph::Graph g = triangle();
  Scenario sc(g, base_options(4));
  sc.seed_background();
  sc.net().node(sc.targets()[0]).mutable_config().forwards_transactions = false;
  const auto r = MeasurementSession(sc).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_FALSE(r.connected);
}

TEST(OneLinkEdgeCases, RepetitionsUnionPositives) {
  Scenario sc(triangle(), base_options(5));
  sc.seed_background();
  MeasureConfig cfg = sc.default_measure_config();
  cfg.repetitions = 3;
  const auto r = MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_TRUE(r.connected);
  // A positive first pass stops early: one pass of ~2 floods + 3 txs.
  EXPECT_LT(r.txs_sent, 2 * (2 * cfg.flood_Z + 3));
}

TEST(OneLinkEdgeCases, DynamicYMatchesMedianEstimator) {
  Scenario sc(triangle(), base_options(6));
  sc.seed_background();
  const eth::Wei median = estimate_price_Y(sc.m().view());
  EXPECT_GT(median, 0u);
  MeasureConfig cfg = sc.default_measure_config();
  EXPECT_EQ(cfg.price_Y, 0u) << "scenario default defers Y to the estimator";
  const auto r = MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_TRUE(r.connected);
}

TEST(OneLinkEdgeCases, StrictIsolationDiscardsLeakedMeasurement) {
  // Force a leak: node C has a zero-bump pool, so txA replaces its txC and
  // C relays txA onward. The isolation check must then discard the
  // positive (txA also reached M through C).
  graph::Graph path(3);
  path.add_edge(0, 2);  // A - C
  path.add_edge(2, 1);  // C - B   (A and B NOT adjacent)
  Scenario sc(path, base_options(7));
  mempool::MempoolPolicy flawed = mempool::profile_for(mempool::ClientKind::kGeth).policy;
  flawed.capacity = 256;
  flawed.future_cap = 64;
  flawed.replace_bump_bp = 0;  // the Aleth-style zero-bump flaw
  sc.net().node(sc.targets()[2]).pool() = mempool::Mempool(flawed, &sc.chain());
  sc.seed_background();

  const auto r = MeasurementSession(sc).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_FALSE(r.connected) << "leak observed at M -> measurement discarded";
  EXPECT_TRUE(sc.m().received_from_since(r.txa_hash, sc.targets()[1], r.started_at))
      << "txA did arrive from B; only the isolation check ruled the pair out";
}

TEST(OneLinkEdgeCases, MinedTxCKillsMeasurementSafely) {
  // An aggressive miner includes txC mid-measurement: the sender nonce is
  // consumed, txA/txB go stale, and the result is a clean negative.
  graph::Graph g = triangle();
  ScenarioOptions opt = base_options(8);
  opt.background_price_lo = eth::gwei(10.0);  // txC (median) is attractive
  opt.background_price_hi = eth::gwei(11.0);
  opt.block_gas_limit = 200 * eth::kTransferGas;  // blocks swallow the pool
  Scenario sc(g, opt);
  sc.seed_background();
  sc.net().start_mining({sc.targets()[2]}, 4.0);
  const auto r = MeasurementSession(sc).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_FALSE(r.connected);
}

TEST(OneLinkEdgeCases, SelfPairAndIsolatedNodes) {
  // Disconnected targets: nothing propagates, measurement is negative.
  graph::Graph g(3);
  g.add_edge(0, 2);
  Scenario sc(g, base_options(9));
  sc.seed_background();
  const auto r = MeasurementSession(sc).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_FALSE(r.connected);
}

}  // namespace
}  // namespace topo::core
