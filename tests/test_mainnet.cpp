// Tests for the mainnet critical-subnetwork substrate (§6.3): census
// scaling, biased wiring, discovery, and the end-to-end Table 6 pattern.

#include <gtest/gtest.h>

#include "core/gas_estimator.h"
#include "core/mainnet.h"
#include "core/noninterference.h"
#include "core/session.h"
#include "core/toposhot.h"
#include "p2p/node.h"

namespace topo::core {
namespace {

TEST(Mainnet, CensusMatchesPaperAtFullScale) {
  const auto census = paper_service_census(1.0);
  ASSERT_EQ(census.size(), 8u);
  auto find = [&](const std::string& name) -> const ServiceSpec& {
    for (const auto& s : census) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << name << " missing";
    static ServiceSpec dummy;
    return dummy;
  };
  EXPECT_EQ(find("SrvR1").node_count, 48u);
  EXPECT_EQ(find("SrvR2").node_count, 1u);
  EXPECT_EQ(find("SrvM1").node_count, 59u);
  EXPECT_EQ(find("SrvM2").node_count, 8u);
  EXPECT_FALSE(find("SrvM1").peers_with_same_service) << "Table 6's SrvM1 quirk";
  EXPECT_FALSE(find("SrvR2").prioritizes_critical) << "SrvR2 is a vanilla node";
  EXPECT_TRUE(find("SrvR1").is_relay);
}

TEST(Mainnet, ScalingKeepsMinimumOnePerService) {
  for (const auto& s : paper_service_census(0.01)) {
    EXPECT_GE(s.node_count, 1u) << s.name;
  }
}

TEST(Mainnet, BiasedWiringMatchesTable6Pattern) {
  util::Rng rng(1);
  const auto census = paper_service_census(0.3);
  const auto world = build_mainnet_world(120, census, 8, rng);

  auto nodes_of = [&](const std::string& svc) { return discover_service_nodes(world, svc); };
  const auto r1 = nodes_of("SrvR1");
  const auto r2 = nodes_of("SrvR2");
  const auto m1 = nodes_of("SrvM1");
  const auto m2 = nodes_of("SrvM2");
  ASSERT_GE(r1.size(), 2u);
  ASSERT_GE(m1.size(), 2u);
  ASSERT_GE(m2.size(), 2u);

  auto linked = [&](size_t a, size_t b) {
    return world.topology.has_edge(static_cast<graph::NodeId>(a),
                                   static_cast<graph::NodeId>(b));
  };
  // Prioritizing services interconnect.
  EXPECT_TRUE(linked(r1[0], r1[1]));
  EXPECT_TRUE(linked(r1[0], m1[0]));
  EXPECT_TRUE(linked(r1[0], m2[0]));
  EXPECT_TRUE(linked(m1[0], m2[0]));
  EXPECT_TRUE(linked(m2[0], m2[1])) << "SrvM2 backends peer with each other";
  // The two exceptions.
  EXPECT_FALSE(linked(m1[0], m1[1])) << "SrvM1 backends do not self-peer";
  // SrvR2 gets no *biased* links; only its random organic ones may exist,
  // which is seed-dependent — so don't assert either way there.
  (void)r2;
}

TEST(Mainnet, DiscoveryFindsExactlyTheBackends) {
  util::Rng rng(2);
  const auto census = paper_service_census(0.1);
  const auto world = build_mainnet_world(100, census, 8, rng);
  size_t discovered = 0;
  for (const auto& s : census) discovered += discover_service_nodes(world, s.name).size();
  EXPECT_EQ(discovered, world.critical_indices.size());
  EXPECT_TRUE(discover_service_nodes(world, "NoSuchService").empty());
}

TEST(Mainnet, OrdinaryNodesCarryNoLabel) {
  util::Rng rng(3);
  const auto world = build_mainnet_world(80, paper_service_census(0.05), 6, rng);
  size_t labelled = 0;
  for (const auto& s : world.service_of) labelled += !s.empty();
  EXPECT_EQ(labelled, world.critical_indices.size());
  EXPECT_LT(labelled, world.topology.num_nodes());
}

TEST(Mainnet, EndToEndMeasurementRecoversWiredPattern) {
  // A small end-to-end run of the §6.3 study under the non-interference
  // configuration: the measured verdicts must match the wired truth.
  util::Rng rng(63);
  const auto census = paper_service_census(0.05);
  const auto world = build_mainnet_world(60, census, 8, rng);
  const auto r1 = discover_service_nodes(world, "SrvR1");
  const auto m1 = discover_service_nodes(world, "SrvM1");
  ASSERT_GE(r1.size(), 1u);
  ASSERT_GE(m1.size(), 2u);

  ScenarioOptions opt;
  opt.seed = 63;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  opt.background_price_lo = eth::gwei(1.0);
  opt.background_price_hi = eth::gwei(60.0);
  opt.block_gas_limit = 8 * eth::kTransferGas;
  Scenario sc(world.topology, opt);
  sc.seed_background();
  sc.start_churn(0.65);
  sc.sim().run_until(sc.sim().now() + 30.0);

  MeasureConfig cfg = sc.default_measure_config();
  cfg.price_Y = estimate_price_Y0(sc.m().view(), min_included_price(sc.chain()));
  const double t1 = sc.sim().now();

  const auto relay_pool =
      MeasurementSession(sc, cfg).one_link(sc.targets()[r1[0]], sc.targets()[m1[0]]).value;
  EXPECT_TRUE(relay_pool.connected) << "SrvR1 - SrvM1 must be detected";

  sc.sim().run_until(sc.sim().now() + 60.0);
  cfg.price_Y = estimate_price_Y0(sc.m().view(), min_included_price(sc.chain()));
  const auto pool_pool =
      MeasurementSession(sc, cfg).one_link(sc.targets()[m1[0]], sc.targets()[m1[1]]).value;
  EXPECT_FALSE(pool_pool.connected) << "SrvM1 backends do not self-peer";

  // Non-interference held throughout.
  const auto check = verify_noninterference(sc.chain(), t1, sc.sim().now(), 0.0, cfg.price_Y);
  EXPECT_TRUE(check.v1_blocks_full);
  EXPECT_TRUE(check.v2_prices_above_y0);
}

}  // namespace
}  // namespace topo::core
