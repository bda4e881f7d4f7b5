// Integration: the full §6.2 pipeline — emerge each testnet recipe, run
// pre-processing + the parallel schedule under live churn, validate against
// ground truth, and persist/reload the report.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/report_io.h"
#include "core/session.h"
#include "core/toposhot.h"
#include "core/validator.h"
#include "disc/emergence.h"

namespace topo::core {
namespace {

struct Recipe {
  const char* name;
  disc::EmergenceConfig (*make)(size_t);
};

// Printed into the test name; gtest's default byte dump would embed the
// addresses of `name` and `make`, which change from run to run.
void PrintTo(const Recipe& r, std::ostream* os) { *os << r.name; }

class TestnetPipeline : public ::testing::TestWithParam<Recipe> {};

TEST_P(TestnetPipeline, MeasuresWithPerfectPrecision) {
  const Recipe& recipe = GetParam();
  util::Rng rng(2024);
  auto cfg = recipe.make(28);
  for (auto& b : cfg.supernode_budgets) b = std::min<size_t>(b, 12);
  const graph::Graph truth = disc::emerge_topology(cfg, rng);
  ASSERT_GT(truth.num_edges(), 20u);

  ScenarioOptions opt;
  opt.seed = 2024;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  opt.block_gas_limit = 30 * eth::kTransferGas;
  Scenario sc(truth, opt);
  sc.seed_background();
  sc.start_churn(2.0);

  const auto pre = MeasurementSession(sc).preprocess().value;
  EXPECT_TRUE(pre.future_forwarders.empty());
  EXPECT_TRUE(pre.unresponsive.empty());

  MeasureConfig mcfg = sc.default_measure_config();
  mcfg.repetitions = 2;
  const auto report = MeasurementSession(sc, mcfg).network(3).value;
  const auto pr = compare_graphs(truth, report.measured);
  EXPECT_DOUBLE_EQ(pr.precision(), 1.0) << recipe.name;
  EXPECT_GE(pr.recall(), 0.85) << recipe.name;
  EXPECT_EQ(report.pairs_tested, 28u * 27 / 2);

  // Persist and reload the campaign.
  const std::string path = std::string("/tmp/toposhot_") + recipe.name + "_report.json";
  ASSERT_TRUE(save_report(report, path));
  const auto loaded = load_report(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->measured.num_edges(), report.measured.num_edges());
  EXPECT_EQ(loaded->pairs_tested, report.pairs_tested);
}

INSTANTIATE_TEST_SUITE_P(Recipes, TestnetPipeline,
                         ::testing::Values(Recipe{"ropsten", disc::ropsten_like},
                                           Recipe{"rinkeby", disc::rinkeby_like},
                                           Recipe{"goerli", disc::goerli_like}),
                         [](const ::testing::TestParamInfo<Recipe>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace topo::core
