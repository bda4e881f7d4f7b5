// strategy_rivalry — the three measurement strategies behind the
// core::MeasurementStrategy seam, raced head-to-head on one ground-truth
// overlay across client mixes and fault levels.
//
// Grid: {toposhot, dethna, txprobe} x client mix {geth-legacy (push to
// all peers), geth-1.9.11 (sqrt push + announce)} x fault level {none,
// 2% uniform message loss}. Every cell is a full sharded campaign over
// the same overlay, so the numbers are comparable: precision/recall vs
// ground truth, probe transactions sent, and Ether actually spent
// (included transactions from tracked accounts; DEthna's markers are
// never mineable, so its wei column is structurally zero).
//
// The expected shape of the table (pinned by the tier-1 expectation):
//   - TopoShot holds its fig4/fig5-grade precision+recall on both mixes —
//     the price ladder does not care how the marker propagates;
//   - DEthna trades recall for cost: timing inference is noisy, but it
//     sends an order of magnitude fewer transactions and spends nothing;
//   - TxProbe's announcement blocking floods through Ethereum's direct
//     pushes on BOTH mixes (§4.1: "the existence of direct propagation,
//     no matter how small portion it plays, negates the isolation
//     property") — precision collapses while recall looks flattering.
//
// Diagnostics collection rides every cell, so each strategy also reports
// *why* probes failed (per-cause tallies) in the annex table.
//
// Flags: --nodes=N --edges=M --seed=S --group=K --threads=T --shards=P
//        --loss=F (the faulted level; 0.02 default)
//        --out=PATH (JSON artifact, cells under the "rivalry" key; tier-1
//        ctest byte-compares the default run's artifact against
//        tests/expected/strategy_rivalry.json)

#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/campaign.h"
#include "graph/generators.h"
#include "rpc/json.h"

using namespace topo;

namespace {

/// Cause-keyed JSON object of a diagnostics tally array.
rpc::Json causes_json(const std::array<uint64_t, obs::kNumProbeCauses>& tallies) {
  rpc::JsonObject o;
  for (size_t c = 0; c < obs::kNumProbeCauses; ++c) {
    o[obs::probe_cause_name(static_cast<obs::ProbeCause>(c))] = rpc::Json(tallies[c]);
  }
  return rpc::Json(std::move(o));
}

struct Mix {
  const char* name;
  bool use_announcements;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const size_t nodes = cli.get_uint("nodes", 16);
  const size_t edges = cli.get_uint("edges", 32);
  const uint64_t seed = cli.get_uint("seed", 97);
  const size_t group_k = cli.get_uint("group", 4);
  const size_t threads = cli.get_uint("threads", 1);
  const size_t shards = cli.get_uint("shards", 2);
  const double fault_loss = cli.get_double("loss", 0.02);
  const std::string out = cli.get_string("out", "");

  bench::banner("Strategy rivalry: TopoShot vs DEthna vs TxProbe",
                "the MeasurementStrategy seam, raced (§4.1, §5, §6)");

  util::Rng rng(seed);
  const graph::Graph truth = graph::erdos_renyi_gnm(nodes, edges, rng);
  std::cout << "Overlay: " << nodes << " nodes, " << truth.num_edges()
            << " true links; every cell measures all pairs through the seam.\n\n";

  const Mix mixes[] = {
      {"geth-legacy", false},  // direct push to every peer (< 1.9.11)
      {"geth-1.9.11", true},   // sqrt push + hash announcements
  };
  const double losses[] = {0.0, fault_loss};

  util::Table table({"Strategy", "Client mix", "Loss", "Recall", "Precision", "Txs sent",
                     "Wei spent"});
  util::Table cause_table({"Strategy", "Client mix", "Loss", "Offline", "txC stuck",
                           "Payload lost", "txA lost", "No echo"});
  rpc::JsonArray cells;
  for (const core::StrategyKind strategy :
       {core::StrategyKind::kToposhot, core::StrategyKind::kDethna,
        core::StrategyKind::kTxprobe}) {
    for (const Mix& mix : mixes) {
      for (const double loss : losses) {
        // Laptop-scale mempools (the fault_recall recipe) keep the 12-cell
        // grid CI-sized while Z still evicts the whole pool.
        core::ScenarioOptions opt;
        opt.seed = seed;
        opt.mempool_capacity = 192;
        opt.future_cap = 48;
        opt.background_txs = 128;
        opt.use_announcements = mix.use_announcements;

        core::MeasureConfig cfg;
        {
          core::Scenario probe(truth, opt);
          cfg = probe.default_measure_config();
        }
        cfg.collect_diagnostics = true;

        exec::CampaignOptions copt;
        copt.strategy = strategy;
        copt.group_k = group_k;
        copt.threads = threads;
        copt.shards = shards;
        copt.fault_plan.drop_tx = loss;
        copt.fault_plan.drop_announce = loss;
        copt.fault_plan.drop_get_tx = loss;

        const auto campaign = exec::run_sharded_campaign(truth, opt, cfg, copt);
        const auto pr = core::compare_graphs(truth, campaign.report.measured);
        const auto wei_it = campaign.metrics.gauges.find("cost.wei_spent");
        const double wei = wei_it == campaign.metrics.gauges.end() ? 0.0 : wei_it->second;

        table.add_row({std::string(core::strategy_name(strategy)), mix.name,
                       util::fmt_pct(loss), util::fmt_pct(pr.recall()),
                       util::fmt_pct(pr.precision()), util::fmt(campaign.report.txs_sent),
                       util::fmt(wei, 0)});
        rpc::JsonObject cell{
            {"strategy", rpc::Json(std::string(core::strategy_name(strategy)))},
            {"mix", rpc::Json(std::string(mix.name))},
            {"loss", rpc::Json(loss)},
            {"recall", rpc::Json(pr.recall())},
            {"precision", rpc::Json(pr.precision())},
            {"txs_sent", rpc::Json(campaign.report.txs_sent)},
            {"wei_spent", rpc::Json(wei)},
        };
        if (campaign.report.diagnostics.has_value()) {
          const core::DiagnosticsReport& d = *campaign.report.diagnostics;
          auto tally = [&d](obs::ProbeCause c) {
            return util::fmt(d.causes[static_cast<size_t>(c)]);
          };
          cause_table.add_row({std::string(core::strategy_name(strategy)), mix.name,
                               util::fmt_pct(loss), tally(obs::ProbeCause::kNodeOffline),
                               tally(obs::ProbeCause::kTxCNotEvicted),
                               tally(obs::ProbeCause::kPayloadNotPlanted),
                               tally(obs::ProbeCause::kTxANotPlanted),
                               tally(obs::ProbeCause::kTxANeverReturned)});
          cell.emplace("causes", causes_json(d.causes));
        }
        cells.push_back(rpc::Json(std::move(cell)));
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nWhy probes failed (final causes per cell; TopoShot's ladder names the "
               "broken protocol step, DEthna/TxProbe map their own failure onto the "
               "same vocabulary):\n";
  cause_table.print(std::cout);
  std::cout << "\nReading: TopoShot is the only strategy that keeps precision AND recall "
               "on both mixes; DEthna is the cheap-but-noisy rival; TxProbe's isolation "
               "is negated by Ethereum's direct pushes (§4.1), so its false positives "
               "are a property of the protocol, not of this simulator.\n";

  if (!out.empty()) {
    const rpc::Json doc(rpc::JsonObject{
        {"bench", rpc::Json("strategy_rivalry")},
        {"nodes", rpc::Json(static_cast<uint64_t>(nodes))},
        {"edges", rpc::Json(static_cast<uint64_t>(edges))},
        {"seed", rpc::Json(seed)},
        {"rivalry", rpc::Json(std::move(cells))},
    });
    if (obs::write_json_file(out, doc)) {
      std::cout << "[sweep: " << out << "]\n";
    } else {
      std::cerr << "failed to write " << out << "\n";
      return 1;
    }
  }
  return 0;
}
