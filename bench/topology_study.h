#pragma once

// Shared driver for the testnet topology studies (Ropsten / Rinkeby /
// Goerli). Each study has two parts:
//
//  1. Full-scale topology analysis — the testnet-sized overlay emerges
//     from the discovery + dial substrate and is analyzed exactly like the
//     paper's captured graphs: degree distribution (Figs 6/8/9/10), graph
//     statistics against ER / configuration-model / BA baselines (Tables
//     4/9/10), and Louvain communities (Table 5).
//
//  2. Scaled end-to-end measurement — a smaller instance of the same
//     recipe is actually measured with the full TopoShot pipeline
//     (pre-processing + parallel schedule) and validated against ground
//     truth, reporting the paper's precision/recall and cost columns.

#include <chrono>

#include "bench_common.h"
#include "core/cost.h"
#include "exec/campaign.h"
#include "graph/cliques.h"
#include "graph/generators.h"
#include "graph/louvain.h"
#include "obs/export.h"
#include "obs/span.h"

namespace topo::bench {

struct TestnetStudyConfig {
  std::string name;
  disc::EmergenceConfig recipe;      ///< full-scale recipe (paper n)
  size_t measured_nodes = 90;        ///< scaled end-to-end measurement size
  size_t group_k = 3;
  uint64_t seed = 7;
  std::string paper_reference;       ///< reference text printed at the end
};

inline void print_degree_distribution(const graph::Graph& g) {
  const auto h = graph::degree_histogram(g);
  util::Table table({"Degree range", "Nodes", "Fraction"});
  const long long buckets[] = {1, 5, 10, 15, 20, 30, 40, 60, 90, 150, 200, 300, 500, 1000};
  long long lo = 0;
  for (long long hi : buckets) {
    size_t count = 0;
    for (const auto& [deg, c] : h.buckets()) {
      if (deg >= lo && deg < hi) count += c;
    }
    if (count > 0) {
      table.add_row({std::to_string(lo) + "-" + std::to_string(hi - 1), util::fmt(count),
                     util::fmt_pct(static_cast<double>(count) / h.total())});
    }
    lo = hi;
  }
  size_t tail = 0;
  for (const auto& [deg, c] : h.buckets()) {
    if (deg >= lo) tail += c;
  }
  if (tail > 0) table.add_row({">=" + std::to_string(lo), util::fmt(tail), ""});
  table.print(std::cout);
  std::cout << "max degree: " << h.max() << ", mean degree: " << util::fmt(h.mean(), 1)
            << "\n";
}

inline void print_graph_comparison(const graph::Graph& measured, util::Rng& rng) {
  const size_t n = measured.num_nodes();
  const size_t m = measured.num_edges();
  const size_t avg_deg = static_cast<size_t>(measured.average_degree());

  util::Rng g1 = rng.split(), g2 = rng.split(), g3 = rng.split();
  const graph::Graph er = graph::erdos_renyi_gnm(n, m, g1);
  const graph::Graph cm = graph::configuration_model(graph::degree_sequence(measured), g2);
  const graph::Graph ba = graph::barabasi_albert(n, std::max<size_t>(1, avg_deg / 2), g3);

  util::Table table({"Property", "Measured", "ER", "CM", "BA"});
  struct Row {
    std::string name;
    std::function<std::string(const graph::Graph&)> fn;
  };
  util::Rng lrng = rng.split();
  std::vector<Row> rows = {
      {"Diameter",
       [](const graph::Graph& g) {
         return util::fmt(static_cast<long long>(graph::distance_stats(g).diameter));
       }},
      {"Periphery size",
       [](const graph::Graph& g) {
         return util::fmt(static_cast<long long>(graph::distance_stats(g).periphery_size));
       }},
      {"Radius",
       [](const graph::Graph& g) {
         return util::fmt(static_cast<long long>(graph::distance_stats(g).radius));
       }},
      {"Center size",
       [](const graph::Graph& g) {
         return util::fmt(static_cast<long long>(graph::distance_stats(g).center_size));
       }},
      {"Eccentricity (mean)",
       [](const graph::Graph& g) { return util::fmt(graph::distance_stats(g).mean_eccentricity, 3); }},
      {"Clustering coefficient",
       [](const graph::Graph& g) { return util::fmt(graph::clustering_coefficient(g), 4); }},
      {"Transitivity", [](const graph::Graph& g) { return util::fmt(graph::transitivity(g), 4); }},
      {"Degree assortativity",
       [](const graph::Graph& g) { return util::fmt(graph::degree_assortativity(g), 4); }},
      {"Maximal cliques",
       [](const graph::Graph& g) {
         const auto c = graph::count_maximal_cliques(g, 500'000);
         return util::fmt(c.maximal_cliques) + (c.truncated ? "+" : "");
       }},
      {"Modularity (Louvain)", [&lrng](const graph::Graph& g) {
         util::Rng r = lrng.split();
         return util::fmt(graph::louvain(g, r).modularity, 4);
       }}};
  for (const auto& row : rows) {
    table.add_row({row.name, row.fn(measured), row.fn(er), row.fn(cm), row.fn(ba)});
  }
  table.print(std::cout);
}

inline void print_communities(const graph::Graph& g, util::Rng& rng) {
  util::Rng lrng = rng.split();
  const auto comm = graph::louvain(g, lrng);
  const auto stats = graph::community_stats(g, comm.assignment);
  util::Table table(
      {"Community", "Nodes", "Intra edges", "Density", "Inter edges", "Avg degree", "Deg-1"});
  size_t idx = 1;
  for (const auto& s : stats) {
    if (s.nodes < 2 && idx > 8) continue;
    table.add_row({util::fmt(idx++), util::fmt(s.nodes), util::fmt(s.intra_edges),
                   util::fmt_pct(s.intra_density), util::fmt(s.inter_edges),
                   util::fmt(s.average_degree, 1), util::fmt(s.degree_one)});
    if (idx > 12) break;
  }
  table.print(std::cout);
  std::cout << "communities: " << comm.count << ", modularity: " << util::fmt(comm.modularity, 4)
            << "\n";
}

inline int run_testnet_study(const TestnetStudyConfig& cfg, int argc, char** argv) {
  util::Cli cli(argc, argv);
  const uint64_t seed = cli.get_uint("seed", cfg.seed);
  const size_t measured_nodes = cli.get_uint("nodes", cfg.measured_nodes);
  const size_t group_k = cli.get_uint("group", cfg.group_k);
  const size_t threads = cli.get_uint("threads", 1);
  const size_t shards = cli.get_uint("shards", 0);
  const bool skip_measure = cli.get_bool("analysis-only", false);
  const double fault_loss = cli.get_double("fault-loss", 0.0);
  const double fault_churn = cli.get_double("fault-churn", 0.0);
  const size_t retries = cli.get_uint("retries", 0);
  const std::string trace_out = cli.get_string("trace-out", "");
  core::StrategyKind strategy = core::StrategyKind::kToposhot;
  core::strategy_from_name(
      cli.get_choice("strategy", "toposhot", {"toposhot", "dethna", "txprobe"}), strategy);

  banner(cfg.name + " topology study", cfg.paper_reference);
  util::Rng rng(seed);

  // Part 1: full-scale emerged topology analysis.
  std::cout << "\n--- Part 1: full-scale topology (" << cfg.recipe.nodes
            << " nodes, emerged from discovery + dialing) ---\n\n";
  auto recipe = cfg.recipe;
  graph::Graph full = disc::emerge_topology(recipe, rng);
  std::cout << "nodes=" << full.num_nodes() << " edges=" << full.num_edges() << "\n\n";
  std::cout << "Degree distribution:\n";
  print_degree_distribution(full);
  std::cout << "\nGraph statistics vs random-graph baselines:\n";
  print_graph_comparison(full, rng);
  std::cout << "\nCommunity structure (Louvain):\n";
  print_communities(full, rng);

  if (skip_measure) return 0;

  // Part 2: scaled end-to-end measurement with validation.
  std::cout << "\n--- Part 2: end-to-end TopoShot measurement (scaled to " << measured_nodes
            << " nodes, group K=" << group_k << ") ---\n\n";
  auto small_recipe = cfg.recipe;
  small_recipe.nodes = measured_nodes;
  // Scale supernode budgets below the node count.
  for (auto& b : small_recipe.supernode_budgets) b = std::min(b, measured_nodes / 2);
  graph::Graph truth = disc::emerge_topology(small_recipe, rng);

  core::ScenarioOptions opt = scaled_options(seed);
  opt.block_gas_limit = 30 * eth::kTransferGas;

  // A scout replica reports the pre-processing picture (future-forwarders,
  // unresponsive nodes) before the sharded campaign fans out.
  core::MeasureConfig mcfg;
  {
    core::Scenario scout(truth, opt);
    scout.seed_background();
    scout.start_churn(3.0);
    mcfg = scout.default_measure_config();
    const auto pre = core::MeasurementSession(scout, mcfg).preprocess().value;
    std::cout << "pre-processing: " << pre.future_forwarders.size() << " future-forwarders, "
              << pre.unresponsive.size() << " unresponsive nodes excluded\n";
  }

  mcfg.repetitions = 3;  // union of three runs, the paper's validation recipe
  mcfg.inconclusive_retries = retries;
  exec::CampaignOptions copt;
  copt.group_k = group_k;
  copt.strategy = strategy;
  copt.threads = threads;
  copt.shards = shards;
  // Live-network churn: organic traffic + mining drain measurement residue
  // between iterations (the role the testnets' own traffic plays).
  copt.churn_rate = 3.0;
  // Adversarial conditions: uniform message loss and random node faults
  // (--fault-loss / --fault-churn), with --retries bounding the per-pair
  // inconclusive re-measurement budget.
  copt.fault_plan.drop_tx = fault_loss;
  copt.fault_plan.drop_announce = fault_loss;
  copt.fault_plan.drop_get_tx = fault_loss;
  copt.fault_plan.churn_rate = fault_churn;
  copt.fault_plan.crash_fraction = 0.5;
  copt.collect_spans = !trace_out.empty();

  const auto wall0 = std::chrono::steady_clock::now();
  const auto campaign = exec::run_sharded_campaign(truth, opt, mcfg, copt);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  const auto& report = campaign.report;
  const auto pr = core::compare_graphs(truth, report.measured);
  util::Table table({"Metric", "Value"});
  table.add_row({"strategy", std::string(core::strategy_name(report.strategy))});
  table.add_row({"nodes", util::fmt(truth.num_nodes())});
  table.add_row({"ground-truth edges", util::fmt(truth.num_edges())});
  table.add_row({"measured edges", util::fmt(report.measured.num_edges())});
  table.add_row({"pairs tested", util::fmt(report.pairs_tested)});
  table.add_row({"iterations", util::fmt(report.iterations)});
  table.add_row({"precision", util::fmt_pct(pr.precision())});
  table.add_row({"recall", util::fmt_pct(pr.recall())});
  table.add_row({"sim duration (s)", util::fmt(report.sim_seconds, 0)});
  table.add_row({"sim makespan (s)", util::fmt(campaign.makespan_sim_seconds, 0)});
  table.add_row({"measurement txs sent", util::fmt(report.txs_sent)});
  table.add_row({"campaign shards", util::fmt(campaign.shards)});
  table.add_row({"campaign batches", util::fmt(campaign.batches)});
  table.add_row({"worker threads", util::fmt(threads)});
  table.add_row({"wall-clock (s)", util::fmt(wall_seconds, 2)});
  if (report.fault.has_value()) {
    table.add_row({"probe attempts", util::fmt(report.fault->attempts)});
    table.add_row({"still inconclusive", util::fmt(report.fault->inconclusive)});
    table.add_row({"pairs re-measured", util::fmt(report.fault->retried.size())});
  }
  table.print(std::cout);

  if (!trace_out.empty()) {
    if (obs::write_json_file(trace_out, obs::spans_to_chrome_json(campaign.spans))) {
      std::cout << "trace written to " << trace_out << "\n";
    } else {
      std::cerr << "failed to write " << trace_out << "\n";
    }
  }

  std::cout << "\nMeasured-graph statistics vs baselines (shape check):\n";
  graph::Graph measured_cc = report.measured;
  print_graph_comparison(measured_cc, rng);
  return 0;
}

}  // namespace topo::bench
