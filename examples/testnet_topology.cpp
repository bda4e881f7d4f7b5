// Uncover a full testnet topology, the paper's §6.2 workflow:
//
//   1. a Ropsten-like overlay emerges from discovery + dialing;
//   2. pre-processing filters future-forwarders and unresponsive nodes;
//   3. the two-round parallel schedule measures every pair;
//   4. the measured graph is validated against ground truth and analyzed
//      (degree distribution, distances, clustering, Louvain communities);
//   5. the edge list is exported as CSV and DOT for external tooling.
//
//   $ ./example_testnet_topology [--nodes=48] [--group=3] [--seed=7]

#include <fstream>
#include <iostream>

#include "core/session.h"
#include "core/toposhot.h"
#include "core/validator.h"
#include "disc/emergence.h"
#include "graph/io.h"
#include "graph/louvain.h"
#include "graph/metrics.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace topo;
  util::Cli cli(argc, argv);
  const size_t n = cli.get_uint("nodes", 48);
  const size_t group_k = cli.get_uint("group", 3);
  const uint64_t seed = cli.get_uint("seed", 7);

  // 1. Emergent ground-truth topology.
  util::Rng rng(seed);
  auto recipe = disc::ropsten_like(n);
  const graph::Graph truth = disc::emerge_topology(recipe, rng);
  std::cout << "Emerged testnet: " << truth.num_nodes() << " nodes, " << truth.num_edges()
            << " edges\n";

  core::ScenarioOptions opt;
  opt.seed = seed;
  opt.block_gas_limit = 30 * eth::kTransferGas;
  core::Scenario sc(truth, opt);
  sc.seed_background();
  sc.start_churn(3.0);  // live-network conditions drain probe residue

  // 2. Pre-processing.
  core::MeasurementSession session(sc);
  const auto pre = session.preprocess().value;
  std::cout << "Pre-processing excluded " << pre.future_forwarders.size()
            << " future-forwarders and " << pre.unresponsive.size() << " unresponsive nodes\n";

  // 3. Full measurement (union of three passes, the paper's recipe).
  session.config().repetitions = 3;
  const auto report = session.network(group_k).value;
  std::cout << "Measured " << report.measured.num_edges() << " edges over "
            << report.pairs_tested << " pairs in " << report.iterations << " iterations ("
            << report.sim_seconds << " sim-seconds, " << report.txs_sent << " txs)\n";

  // 4. Validation + analysis.
  const auto pr = core::compare_graphs(truth, report.measured);
  std::cout << "Precision: " << pr.precision() * 100 << "%  Recall: " << pr.recall() * 100
            << "%\n\n";

  const auto d = graph::distance_stats(report.measured);
  std::cout << "Measured-graph analysis:\n"
            << "  diameter " << d.diameter << ", radius " << d.radius << ", center "
            << d.center_size << ", periphery " << d.periphery_size << "\n"
            << "  clustering " << graph::clustering_coefficient(report.measured)
            << ", transitivity " << graph::transitivity(report.measured) << ", assortativity "
            << graph::degree_assortativity(report.measured) << "\n";
  util::Rng lrng(seed + 1);
  const auto comm = graph::louvain(report.measured, lrng);
  std::cout << "  " << comm.count << " communities, modularity " << comm.modularity << "\n";

  // 5. Export.
  graph::write_edge_csv(report.measured, "measured_topology.csv");
  std::ofstream dot("measured_topology.dot");
  graph::write_dot(report.measured, dot);
  std::cout << "\nWrote measured_topology.csv and measured_topology.dot\n";
  return 0;
}
