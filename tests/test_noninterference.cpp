// Tests for the non-interference extension (§6.3, Appendix C): V1/V2
// verification and the Theorem C.2 replay experiment — with both conditions
// holding, the measured and unmeasured worlds include identical transactions.

#include <gtest/gtest.h>

#include "core/noninterference.h"
#include "core/session.h"
#include "core/toposhot.h"
#include "eth/miner.h"
#include "graph/generators.h"

namespace topo::core {
namespace {

TEST(NonInterference, V1FailsOnNonFullBlock) {
  eth::Chain chain(2 * eth::kTransferGas);
  eth::TxFactory f;
  eth::Block b;
  b.timestamp = 1.0;
  b.txs.push_back(f.make(1, 0, 100));  // only half-full
  chain.commit(std::move(b));
  const auto check = verify_noninterference(chain, 0.0, 2.0, 0.0, 10);
  EXPECT_FALSE(check.v1_blocks_full);
  EXPECT_TRUE(check.v2_prices_above_y0);
  EXPECT_FALSE(check.holds());
}

TEST(NonInterference, V2FailsOnCheapIncludedTx) {
  eth::Chain chain(2 * eth::kTransferGas);
  eth::TxFactory f;
  eth::Block b;
  b.timestamp = 1.0;
  b.txs.push_back(f.make(1, 0, 100));
  b.txs.push_back(f.make(2, 0, 5));  // at/below Y0
  chain.commit(std::move(b));
  const auto check = verify_noninterference(chain, 0.0, 2.0, 0.0, 5);
  EXPECT_TRUE(check.v1_blocks_full);
  EXPECT_FALSE(check.v2_prices_above_y0);
}

TEST(NonInterference, HoldsOnFullExpensiveBlocks) {
  eth::Chain chain(2 * eth::kTransferGas);
  eth::TxFactory f;
  for (int i = 0; i < 3; ++i) {
    eth::Block b;
    b.timestamp = 1.0 + i;
    b.txs.push_back(f.make(10 + i, 0, 1000));
    b.txs.push_back(f.make(20 + i, 0, 2000));
    chain.commit(std::move(b));
  }
  const auto check = verify_noninterference(chain, 0.0, 2.0, 2.0, 10);
  EXPECT_TRUE(check.holds());
  EXPECT_EQ(check.blocks_inspected, 3u);
}

TEST(NonInterference, EmptyWindowDoesNotHold) {
  eth::Chain chain(1'000'000);
  const auto check = verify_noninterference(chain, 0.0, 1.0, 0.0, 10);
  EXPECT_FALSE(check.holds());
}

TEST(NonInterference, SameIncludedComparesModuloMeasurementAccounts) {
  eth::TxFactory f;
  const auto user_tx = f.make(1, 0, 100);
  const auto meas_tx = f.make(99, 0, 5);

  eth::Block with;
  with.txs = {user_tx, meas_tx};
  eth::Block without;
  without.txs = {user_tx};

  EXPECT_TRUE(same_included_transactions({with}, {without}, {99}));
  EXPECT_FALSE(same_included_transactions({with}, {without}, {}));
  EXPECT_FALSE(same_included_transactions({with}, {}, {99})) << "length mismatch";
}

// The Theorem C.2 experiment: run the same world twice — once with a
// TopoShot measurement, once without — under an identical mining schedule,
// and compare the included transactions per block.
TEST(NonInterference, TheoremC2ReplayExperiment) {
  auto run_world = [](bool measure) {
    util::Rng rng(17);
    graph::Graph g = graph::erdos_renyi_gnm(10, 20, rng);
    ScenarioOptions opt;
    opt.seed = 17;
    opt.mempool_capacity = 256;
    opt.future_cap = 64;
    opt.background_txs = 224;  // high-priced organic load keeps blocks full
    opt.background_price_lo = eth::gwei(5.0);
    opt.background_price_hi = eth::gwei(50.0);
    // Small blocks so every block is full (V1).
    opt.block_gas_limit = 4 * eth::kTransferGas;
    Scenario sc(g, opt);
    sc.seed_background();
    sc.net().start_mining({sc.targets()[0]}, 5.0);

    MeasureConfig cfg = sc.default_measure_config();
    cfg.price_Y = eth::gwei(0.01);  // far below every organic price (V2 safe)
    double t1 = sc.sim().now();
    if (measure) {
      MeasurementSession(sc, cfg).one_link(sc.targets()[1], sc.targets()[2]);
    }
    sc.sim().run_until(120.0);
    double t2 = sc.sim().now();
    return std::tuple{sc.chain().blocks(),
                      verify_noninterference(sc.chain(), t1, t2, 0.0, cfg.price_Y)};
  };

  const auto [with_blocks, with_check] = run_world(true);
  const auto [without_blocks, without_check] = run_world(false);

  EXPECT_TRUE(with_check.v1_blocks_full);
  EXPECT_TRUE(with_check.v2_prices_above_y0);
  ASSERT_EQ(with_blocks.size(), without_blocks.size());
  // Identical non-measurement transactions per block (Theorem C.2). The
  // measurement accounts differ per run, but since V2 holds no measurement
  // transaction was included at all, so the full sets must match.
  EXPECT_TRUE(same_included_transactions(with_blocks, without_blocks, {}));
}

}  // namespace
}  // namespace topo::core
