// Tracking quality of the continuous topology monitor (docs/MONITORING.md).
//
// A one-shot campaign has no notion of "keeping up"; the TopologyMonitor's
// whole value is detecting ground-truth link changes quickly while
// re-probing only a budgeted fraction of pairs per epoch. This bench sweeps
// the drift rate and reports, per churn level:
//
//   detect_within_2 — fraction of injected changes reflected in a published
//                     snapshot within 2 epochs (the ISSUE acceptance bar
//                     holds the default config to >= 0.9)
//   coverage        — pairs tracked / pairs total at the final epoch
//   reprobe         — epoch budget as a fraction of all pairs (< 0.20)
//   inconclusive    — links still unresolved at the final epoch
//   epoch sim-s     — mean post-bootstrap epoch makespan (sim seconds),
//                     from the monitor's EpochStats ring
//   utilization     — mean post-bootstrap budget utilization (forced
//                     demand / budget; >= 1 means saturation)
//
// The --out artifact holds one cell per churn level under "monitor". The
// runs are deterministic, so tier-1 ctest byte-compares the default run's
// artifact against tests/expected/monitor_tracking.json: any cell moving,
// in either direction, is a behaviour change, not noise.

#include "bench_common.h"
#include "graph/generators.h"
#include "monitor/monitor.h"
#include "rpc/json.h"

int main(int argc, char** argv) {
  using namespace topo;
  util::Cli cli(argc, argv);
  const uint64_t seed = cli.get_uint("seed", 1);
  const size_t nodes = cli.get_uint("nodes", 24);
  const uint64_t epochs = cli.get_uint("epochs", 6);
  const uint64_t within = cli.get_uint("eval-within", 2);
  const std::string out = cli.get_string("out", "");
  bench::banner("Monitor tracking quality",
                "continuous re-measurement under churn (docs/MONITORING.md)");

  std::cout << "TopologyMonitor over a drifting " << nodes << "-node testnet, "
            << epochs << " epochs per churn level, default (auto) budget.\n\n";

  util::Table table({"Churn/epoch", "Budget", "Reprobe", "Detected<=" + util::fmt(within),
                     "Coverage", "Inconclusive", "Flips", "Epoch sim-s", "Util"});
  rpc::JsonArray cells;
  bool ok = true;

  for (const double churn : {0.5, 1.0, 2.0, 3.0}) {
    util::Rng rng(seed);
    graph::Graph truth = graph::erdos_renyi_gnm(nodes, nodes * 2, rng);
    core::ScenarioOptions wopt;
    wopt.seed = seed;
    // The measure-regime world (toposhot_monitord defaults): small block
    // budget + organic traffic, where probes resolve crisply.
    wopt.block_gas_limit = 30 * eth::kTransferGas;
    const core::MeasureConfig cfg =
        core::MeasureConfig::Builder(
            core::Scenario(truth, wopt).default_measure_config())
            .repetitions(3)
            .inconclusive_retries(2)
            .build();
    monitor::MonitorOptions mopt;
    mopt.churn_per_epoch = churn;
    mopt.traffic_churn_rate = 3.0;
    monitor::TopologyMonitor mon(std::move(truth), wopt, cfg, mopt);
    mon.run(epochs);

    const monitor::MonitorStatus status = mon.status();
    const monitor::TrackingEvaluation ev = monitor::evaluate_tracking(mon, within);
    const double reprobe = mon.pairs_total() == 0
                               ? 0.0
                               : static_cast<double>(mon.effective_epoch_budget()) /
                                     static_cast<double>(mon.pairs_total());
    // Per-epoch cost from the telemetry ring, bootstrap excluded (epoch 0
    // measures every pair; averaging it in would swamp the steady state).
    double sim_sum = 0.0, util_sum = 0.0;
    size_t post_bootstrap = 0;
    for (const monitor::EpochStats& s : mon.health()->epochs) {
      if (s.epoch == 0) continue;
      sim_sum += s.sim_seconds;
      util_sum += s.budget_utilization;
      ++post_bootstrap;
    }
    const double epoch_sim =
        post_bootstrap == 0 ? 0.0 : sim_sum / static_cast<double>(post_bootstrap);
    const double utilization =
        post_bootstrap == 0 ? 0.0 : util_sum / static_cast<double>(post_bootstrap);
    table.add_row({util::fmt(churn, 1), util::fmt(mon.effective_epoch_budget()),
                   util::fmt_pct(reprobe),
                   util::fmt(ev.detected) + "/" + util::fmt(ev.scoreable) + " (" +
                       util::fmt_pct(ev.detection_rate()) + ")",
                   util::fmt_pct(status.coverage), util::fmt(status.links_inconclusive),
                   util::fmt(status.changes_observed), util::fmt(epoch_sim, 1),
                   util::fmt_pct(utilization)});
    cells.push_back(rpc::Json(rpc::JsonObject{
        {"churn", rpc::Json(churn)},
        {"budget", rpc::Json(static_cast<uint64_t>(mon.effective_epoch_budget()))},
        {"reprobe", rpc::Json(reprobe)},
        {"detect_within_2", rpc::Json(ev.detection_rate())},
        {"coverage", rpc::Json(status.coverage)},
        {"inconclusive", rpc::Json(static_cast<uint64_t>(status.links_inconclusive))},
        {"scoreable", rpc::Json(static_cast<uint64_t>(ev.scoreable))},
        {"epoch_sim_seconds", rpc::Json(epoch_sim)},
        {"budget_utilization", rpc::Json(utilization)},
    }));
    ok = ok && reprobe < 0.20;
  }

  table.print(std::cout);
  std::cout << "\nAcceptance: >= 90% of injected changes detected within " << within
            << " epochs at the\ndefault budget (< 20% of pairs re-probed per epoch); "
               "see docs/MONITORING.md.\n";

  if (!out.empty()) {
    const rpc::Json doc(rpc::JsonObject{
        {"bench", rpc::Json("monitor_tracking")},
        {"seed", rpc::Json(seed)},
        {"nodes", rpc::Json(static_cast<uint64_t>(nodes))},
        {"epochs", rpc::Json(epochs)},
        {"monitor", rpc::Json(std::move(cells))},
    });
    if (obs::write_json_file(out, doc)) {
      std::cout << "[sweep: " << out << "]\n";
    } else {
      std::cerr << "failed to write " << out << "\n";
      return 1;
    }
  }
  return ok ? 0 : 1;
}
