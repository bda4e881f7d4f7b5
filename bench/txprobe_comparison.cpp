// Experimental reproduction of §4.1 / Appendix A: why TxProbe's
// announcement-blocking technique works on Bitcoin-style propagation but
// fails on Ethereum.
//
// TxProbe's isolation trick: the measurement node announces the marker's
// hash to every node except the pair under test; those nodes then ignore
// further announcements of the same hash for the blocking window, so the
// marker can only cross the direct A-B link. This bench runs that probe
// (core::TxProbeStrategy, through a MeasurementSession) over every node
// pair of a small ground-truth overlay, twice:
//
//   1. Bitcoin mode  — announce-only propagation: isolation holds,
//      precision stays at 100%;
//   2. Ethereum mode — Geth's push+announce: the direct pushes bypass the
//      announcement block and carry the marker over multi-hop paths,
//      producing false positives (the paper's argument for why a new
//      technique was needed at all), and some real links are missed.

#include "bench_common.h"
#include "core/session.h"
#include "graph/generators.h"

namespace {

using namespace topo;

core::PrecisionRecall run_txprobe(core::PropagationMode mode, const graph::Graph& g,
                                  uint64_t seed) {
  core::ScenarioOptions opt = bench::scaled_options(seed);
  opt.background_txs = 64;  // light load; TxProbe does not need full pools
  core::Scenario sc(g, opt);
  core::apply_propagation_mode(sc, mode);
  sc.seed_background();
  core::MeasurementSession session(sc);
  session.set_strategy(core::StrategyKind::kTxprobe);

  core::PrecisionRecall pr;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = u + 1; v < g.num_nodes(); ++v) {
      const bool positive = session.one_link(sc.targets()[u], sc.targets()[v]).value.connected;
      const bool real = g.has_edge(u, v);
      if (positive && real) ++pr.true_positive;
      else if (positive && !real) ++pr.false_positive;
      else if (!positive && real) ++pr.false_negative;
      else ++pr.true_negative;
    }
  }
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace topo;
  util::Cli cli(argc, argv);
  const size_t n = cli.get_uint("nodes", 12);
  const uint64_t seed = cli.get_uint("seed", 41);
  bench::banner("TxProbe on Bitcoin-style vs Ethereum propagation", "§4.1, Appendix A");

  util::Rng rng(seed);
  const graph::Graph g = graph::erdos_renyi_gnm(n, n * 2, rng);
  std::cout << "Probing all " << n * (n - 1) / 2 << " pairs of a " << n << "-node overlay ("
            << g.num_edges() << " true links) with the TxProbe primitive.\n\n";

  const auto bitcoin = run_txprobe(core::PropagationMode::kAnnounceOnly, g, seed);
  const auto ethereum = run_txprobe(core::PropagationMode::kPushAndAnnounce, g, seed);

  util::Table table({"Propagation model", "TP", "FP", "FN", "Precision", "Recall"});
  table.add_row({"announce-only (Bitcoin-style)", util::fmt(bitcoin.true_positive),
                 util::fmt(bitcoin.false_positive), util::fmt(bitcoin.false_negative),
                 util::fmt_pct(bitcoin.precision()), util::fmt_pct(bitcoin.recall())});
  table.add_row({"push + announce (Ethereum)", util::fmt(ethereum.true_positive),
                 util::fmt(ethereum.false_positive), util::fmt(ethereum.false_negative),
                 util::fmt_pct(ethereum.precision()), util::fmt_pct(ethereum.recall())});
  table.print(std::cout);

  const size_t non_adjacent = n * (n - 1) / 2 - g.num_edges();
  const double fp_share =
      static_cast<double>(ethereum.false_positive) / static_cast<double>(non_adjacent);
  std::cout << "\nPaper reference (§4.1): \"The existence of direct propagation, no matter\n"
               "how small portion it plays, negates the isolation property\". Under push +\n"
               "announce, direct pushes carry the marker past the announcement blocks to B\n"
               "over multi-hop paths: "
            << ethereum.false_positive << " of the " << non_adjacent << " non-adjacent pairs ("
            << util::fmt_pct(fp_share) << ") look connected.\nFor " << ethereum.false_negative
            << " of the " << g.num_edges()
            << " real links the marker never comes back from B within the\n"
               "detection window, so they are missed. That is why TopoShot replaces\n"
               "announcement blocking with the replacement-price ladder.\n";
  return 0;
}
