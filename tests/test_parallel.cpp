// Integration tests for measurePar (§5.3.1) including the Appendix B.1.1
// local validation matrix (paper Table 8) and full-network measurement via
// the schedule.

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/toposhot.h"
#include "core/validator.h"
#include "graph/generators.h"
#include "graph/metrics.h"

namespace topo::core {
namespace {

ScenarioOptions fast_options(uint64_t seed = 21) {
  ScenarioOptions opt;
  opt.seed = seed;
  opt.mempool_capacity = 192;
  opt.future_cap = 48;
  opt.background_txs = 128;
  return opt;
}

TEST(Parallel, BipartiteMeasurementMatchesTruth) {
  // 2 sources x 2 sinks over a known 6-node graph; all four cross pairs.
  graph::Graph g(6);
  g.add_edge(0, 2);  // A0 - B0
  g.add_edge(1, 3);  // A1 - B1
  g.add_edge(0, 4);
  g.add_edge(1, 4);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  Scenario sc(g, fast_options());
  sc.seed_background();

  const auto& t = sc.targets();
  const std::vector<p2p::PeerId> sources{t[0], t[1]};
  const std::vector<p2p::PeerId> sinks{t[2], t[3]};
  const std::vector<ParallelEdge> edges{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const auto res = MeasurementSession(sc).parallel(sources, sinks, edges).value;

  EXPECT_TRUE(res.connected[0]) << "A0-B0 is a real link";
  EXPECT_FALSE(res.connected[1]) << "A0-B1 is not";
  EXPECT_FALSE(res.connected[2]) << "A1-B0 is not";
  EXPECT_TRUE(res.connected[3]) << "A1-B1 is a real link";
  for (bool planted : res.txa_planted) EXPECT_TRUE(planted);
}

// ---------------------------------------------------------------------------
// Table 8: the six local connection configurations among A1, A2, B, each
// measured with the parallel primitive — expect 100% recall and precision.
// ---------------------------------------------------------------------------

struct LocalCase {
  const char* name;
  bool a1a2, a1b, a2b;
};

// Printed into the test name; gtest's default byte dump would embed the
// address of `name`, which changes from run to run.
void PrintTo(const LocalCase& c, std::ostream* os) { *os << c.name; }

class Table8Cases : public ::testing::TestWithParam<LocalCase> {};

TEST_P(Table8Cases, PerfectPrecisionAndRecall) {
  const LocalCase& c = GetParam();
  // Node order: 0=A1, 1=A2, 2=B.
  graph::Graph g(3);
  if (c.a1a2) g.add_edge(0, 1);
  if (c.a1b) g.add_edge(0, 2);
  if (c.a2b) g.add_edge(1, 2);

  Scenario sc(g, fast_options(33));
  sc.seed_background();
  const auto& t = sc.targets();
  const std::vector<p2p::PeerId> sources{t[0], t[1]};
  const std::vector<p2p::PeerId> sinks{t[2]};
  const std::vector<ParallelEdge> edges{{0, 0}, {1, 0}};
  const auto res = MeasurementSession(sc).parallel(sources, sinks, edges).value;

  EXPECT_EQ(res.connected[0], c.a1b) << "A1-B mismatch";
  EXPECT_EQ(res.connected[1], c.a2b) << "A2-B mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Table8Cases,
    ::testing::Values(LocalCase{"all_three", true, true, true},
                      LocalCase{"a1a2_a1b", true, true, false},
                      LocalCase{"a1a2_only", true, false, false},
                      LocalCase{"a1b_a2b", false, true, true},
                      LocalCase{"a1b_only", false, true, false},
                      LocalCase{"none", false, false, false}),
    [](const ::testing::TestParamInfo<LocalCase>& info) { return info.param.name; });

TEST(Parallel, UnlimitedFuturesPerAccountStillFloods) {
  // Same U = 0 empty-flood regression as the one-link driver, through the
  // parallel primitive's shared flood path.
  graph::Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  Scenario sc(g, fast_options(91));
  sc.seed_background();
  MeasureConfig cfg = sc.default_measure_config();
  cfg.futures_per_account_U = 0;
  const auto& t = sc.targets();
  const auto res =
      MeasurementSession(sc, cfg).parallel({t[0], t[1]}, {t[2]}, {{0, 0}, {1, 0}}).value;
  EXPECT_TRUE(res.connected[0]) << "U=0 must not silently skip the eviction flood";
  EXPECT_TRUE(res.connected[1]);
}

TEST(Parallel, EmptyEdgeListIsNoop) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  Scenario sc(g, fast_options());
  sc.seed_background();
  const auto res = MeasurementSession(sc).parallel({sc.targets()[0]}, {sc.targets()[1]}, {}).value;
  EXPECT_TRUE(res.connected.empty());
  EXPECT_EQ(res.txs_sent, 0u);
}

TEST(Parallel, FullNetworkScheduleRecoversTopology) {
  util::Rng rng(5);
  graph::Graph g = graph::erdos_renyi_gnm(12, 20, rng);
  Scenario sc(g, fast_options(55));
  sc.seed_background();

  const auto report = MeasurementSession(sc).network(4).value;
  EXPECT_EQ(report.pairs_tested, 12u * 11 / 2);
  const auto pr = compare_graphs(g, report.measured);
  EXPECT_DOUBLE_EQ(pr.precision(), 1.0) << "no false positives, ever";
  EXPECT_GE(pr.recall(), 0.95) << "near-perfect recall under default configs";
}

TEST(Parallel, ManySinksOneSourceGroup) {
  // q = 1 inverted: one sink serving many sources, the Fig 4b layout.
  util::Rng rng(6);
  graph::Graph g(8);
  for (graph::NodeId u = 1; u < 8; ++u) {
    if (u % 2 == 1) g.add_edge(0, u);  // B connects to odd nodes
  }
  // Connect everything through a hub so txC floods reach all nodes.
  for (graph::NodeId u = 1; u + 1 < 8; ++u) g.add_edge(u, u + 1);
  Scenario sc(g, fast_options(77));
  sc.seed_background();
  const auto& t = sc.targets();
  std::vector<p2p::PeerId> sources;
  std::vector<ParallelEdge> edges;
  for (size_t u = 1; u < 8; ++u) {
    edges.push_back({sources.size(), 0});
    sources.push_back(t[u]);
  }
  const auto res = MeasurementSession(sc).parallel(sources, {t[0]}, edges).value;
  for (size_t i = 0; i < edges.size(); ++i) {
    const graph::NodeId u = static_cast<graph::NodeId>(i + 1);
    EXPECT_EQ(res.connected[i], g.has_edge(0, u)) << "node " << u;
  }
}

}  // namespace
}  // namespace topo::core
