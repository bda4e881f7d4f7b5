// End-to-end smoke tests of the measureOneLink primitive (paper §5.2) on
// small networks with known ground truth.

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/toposhot.h"
#include "graph/generators.h"

namespace topo {
namespace {

core::ScenarioOptions small_options() {
  core::ScenarioOptions opt;
  opt.seed = 7;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  return opt;
}

TEST(OneLinkSmoke, DetectsDirectLinkOnTriangle) {
  // M measures A-B on a triangle A-B-C: positive expected.
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  core::Scenario scenario(g, small_options());
  scenario.seed_background();

  core::MeasurementSession session(scenario);
  const auto r = session.one_link(scenario.targets()[0], scenario.targets()[1]).value;
  EXPECT_TRUE(r.txc_evicted_on_a) << "flood failed to evict txC on A";
  EXPECT_TRUE(r.txc_evicted_on_b) << "flood failed to evict txC on B";
  EXPECT_TRUE(r.txa_planted_on_a) << "txA was not admitted on A";
  EXPECT_TRUE(r.connected);
}

TEST(OneLinkSmoke, RejectsNonLinkOnPath) {
  // Path A - C - B: A and B are not direct neighbors; isolation must keep
  // txA from crossing C.
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  core::Scenario scenario(g, small_options());
  scenario.seed_background();

  core::MeasurementSession session(scenario);
  const auto r = session.one_link(scenario.targets()[0], scenario.targets()[1]).value;
  EXPECT_TRUE(r.txc_evicted_on_a);
  EXPECT_TRUE(r.txc_evicted_on_b);
  EXPECT_TRUE(r.txa_planted_on_a);
  EXPECT_FALSE(r.connected);
}

TEST(OneLinkSmoke, AllPairsOnSmallRandomGraph) {
  util::Rng rng(99);
  graph::Graph g = graph::erdos_renyi_gnm(8, 12, rng);
  core::Scenario scenario(g, small_options());
  scenario.seed_background();
  core::MeasurementSession session(scenario);

  size_t wrong = 0;
  for (graph::NodeId u = 0; u < 8; ++u) {
    for (graph::NodeId v = u + 1; v < 8; ++v) {
      const auto r = session.one_link(scenario.targets()[u], scenario.targets()[v]).value;
      if (r.connected != g.has_edge(u, v)) ++wrong;
      // Precision must be perfect: no false positives, ever.
      if (!g.has_edge(u, v)) {
        EXPECT_FALSE(r.connected) << "false positive " << u << "-" << v;
      }
    }
  }
  EXPECT_EQ(wrong, 0u);
}

}  // namespace
}  // namespace topo
