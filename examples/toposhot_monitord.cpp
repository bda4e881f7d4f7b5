// toposhot_monitord — the continuous topology-monitoring daemon
// (docs/MONITORING.md). Emerges a ground-truth testnet topology, then runs
// N epochs of incremental re-measurement while the topology drifts under
// seeded link churn, publishing one versioned snapshot per epoch and
// finally replaying a JSON-RPC query script against the read API:
//
//   toposhot_monitord --nodes=32 --epochs=6 --churn=2 --decay-half-life=4
//       --serve-script=queries.jsonl --serve-out=responses.jsonl
//
// Flags:
//   --nodes=N --seed=S --recipe=ropsten|rinkeby|goerli   world construction
//   --epochs=N              epochs to run (default 4)
//   --epoch-budget=B        pairs re-measured per epoch; 0 = auto
//                           (max(16, 15% of all pairs))
//   --churn=C               expected ground-truth link changes per epoch
//   --decay-half-life=H     confidence half-life in epochs (<=0 disables)
//   --bootstrap=BOOL        epoch 0 measures the full schedule (default true)
//   --group=K --repetitions=R --strategy=toposhot|dethna|txprobe
//   --threads=N --shards=S  forwarded into each epoch's sharded campaign
//   --traffic-churn=R       organic traffic + mining per replica (default 3)
//   --fault-loss=P --fault-churn=RATE --retries=R   per-epoch fault plan
//   --eval-within=W         detection window for the scorecard (default 2)
//   --serve-script=PATH     JSON-RPC requests, one document per line
//                           (objects or batch arrays), replayed after the
//                           final epoch through the MonitorRpcServer
//   --serve-out=PATH        responses, one line per request line (default
//                           stdout); an all-notification batch yields an
//                           empty line so request/response lines align
//   --snapshot-out=PATH     final published snapshot as JSON
//   --metrics-out=PATH      the monitor's metrics registry as JSON
//   --prom-out=PATH         the registry as Prometheus text exposition
//   --log-out=PATH          the structured event log as JSON lines
//   --log-level=LVL         event-log threshold: debug|info|warn|error
//                           (default info)
//   --trace-out=PATH        per-epoch span trace (Chrome trace-event JSON)
//
// Determinism: snapshot/diff/status documents (and therefore --serve-out
// and --snapshot-out) are byte-identical at any --threads width;
// --metrics-out and --prom-out hold only shard-invariant monitor.*/obs.*
// series and share that contract. --log-out and the topo_getHealth ring
// stamp sim time only, so they are thread-invariant too but, like
// --trace-out, depend on --shards.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "disc/emergence.h"
#include "graph/graph.h"
#include "monitor/monitor.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "rpc/monitor_rpc.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace topo;

disc::EmergenceConfig recipe_for(const std::string& name, size_t nodes) {
  if (name == "rinkeby") return disc::rinkeby_like(nodes);
  if (name == "goerli") return disc::goerli_like(nodes);
  return disc::ropsten_like(nodes);
}

core::StrategyKind strategy_from(const util::Cli& cli) {
  const std::string name =
      cli.get_choice("strategy", "toposhot", {"toposhot", "dethna", "txprobe"});
  core::StrategyKind kind = core::StrategyKind::kToposhot;
  core::strategy_from_name(name, kind);
  return kind;
}

/// Replays --serve-script line by line through the read API; writes one
/// response line per request line. Returns false on I/O failure only —
/// error *responses* are part of the replayed conversation.
bool replay_script(rpc::MonitorRpcServer& server, const std::string& script_path,
                   const std::string& out_path) {
  std::ifstream in(script_path);
  if (!in) {
    std::cerr << "failed to read " << script_path << "\n";
    return false;
  }
  std::ostringstream replies;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;  // blank lines are not requests
    replies << server.handle(line) << "\n";
  }
  if (out_path.empty()) {
    std::cout << replies.str();
    return true;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return false;
  }
  out << replies.str();
  std::cout << "responses written to " << out_path << "\n";
  return true;
}

int run(const util::Cli& cli) {
  const size_t nodes = cli.get_uint("nodes", 32);
  const uint64_t seed = cli.get_uint("seed", 1);
  const uint64_t epochs = cli.get_uint("epochs", 4);
  const uint64_t within = cli.get_uint("eval-within", 2);

  util::Rng rng(seed);
  auto recipe = recipe_for(cli.get_string("recipe", "ropsten"), nodes);
  graph::Graph truth = disc::emerge_topology(recipe, rng);

  core::ScenarioOptions wopt;
  wopt.seed = seed;
  // Same world shaping as toposhot_cli's measure mode: a slow mining drain
  // (via the organic-churn option below) against a small block budget keeps
  // pool occupancy in the regime where eviction probes resolve crisply.
  wopt.block_gas_limit = 30 * eth::kTransferGas;
  core::MeasureConfig cfg =
      core::MeasureConfig::Builder(core::Scenario(truth, wopt).default_measure_config())
          .repetitions(cli.get_uint("repetitions", 3))
          .inconclusive_retries(cli.get_uint("retries", 0))
          .build();

  monitor::MonitorOptions mopt;
  mopt.epoch_budget = cli.get_uint("epoch-budget", 0);
  mopt.churn_per_epoch = cli.get_double("churn", 2.0);
  mopt.decay_half_life = cli.get_double("decay-half-life", 4.0);
  mopt.bootstrap_full = cli.get_bool("bootstrap", true);
  mopt.collect_spans = !cli.get_string("trace-out", "").empty();
  mopt.group_k = cli.get_uint("group", 3);
  mopt.strategy = strategy_from(cli);
  mopt.threads = cli.get_uint("threads", 1);
  mopt.shards = cli.get_uint("shards", 0);
  mopt.traffic_churn_rate = cli.get_double("traffic-churn", 3.0);
  const double loss = cli.get_double("fault-loss", 0.0);
  mopt.fault_plan.drop_tx = loss;
  mopt.fault_plan.drop_announce = loss;
  mopt.fault_plan.drop_get_tx = loss;
  mopt.fault_plan.churn_rate = cli.get_double("fault-churn", 0.0);
  mopt.fault_plan.crash_fraction = 0.5;

  monitor::TopologyMonitor mon(std::move(truth), wopt, cfg, mopt);

  util::LogLevel log_level = util::LogLevel::kInfo;
  if (!obs::log_level_from_name(
          cli.get_choice("log-level", "info", {"debug", "info", "warn", "error"}),
          log_level)) {
    log_level = util::LogLevel::kInfo;
  }
  mon.event_log().set_threshold(log_level);

  uint64_t injected_total = 0;
  for (uint64_t e = 0; e < epochs; ++e) {
    const auto res = mon.run_epoch();
    injected_total += res.changes_injected;
    const auto health = mon.health();
    std::cout << "epoch " << res.epoch << ": measured " << res.pairs_selected
              << " pairs, " << res.changes_injected << " drift changes, "
              << res.hints << " hinted entries, " << res.flips
              << " verdict flips -> version " << res.snapshot->version << "\n";
    std::cout << "  health: " << monitor::health_state_name(health->state) << " ("
              << health->reason << ")\n";
  }

  const monitor::MonitorStatus status = mon.status();
  const monitor::TrackingEvaluation eval = monitor::evaluate_tracking(mon, within);
  const double reprobe = mon.pairs_total() == 0
                             ? 0.0
                             : static_cast<double>(mon.effective_epoch_budget()) /
                                   static_cast<double>(mon.pairs_total());
  util::Table table({"Metric", "Value"});
  table.add_row({"nodes / pairs", util::fmt(status.nodes) + " / " + util::fmt(status.pairs_total)});
  table.add_row({"epochs / versions", util::fmt(status.epoch + 1) + " / " + util::fmt(status.versions)});
  table.add_row({"epoch budget", util::fmt(mon.effective_epoch_budget()) + " (" +
                                     util::fmt_pct(reprobe) + " of pairs)"});
  table.add_row({"coverage", util::fmt_pct(status.coverage)});
  table.add_row({"links connected", util::fmt(status.links_connected)});
  table.add_row({"still inconclusive", util::fmt(status.links_inconclusive)});
  table.add_row({"drift injected", util::fmt(injected_total)});
  table.add_row({"verdict flips seen", util::fmt(status.changes_observed)});
  table.add_row({"detected within " + util::fmt(within) + " epochs",
                 util::fmt(eval.detected) + " / " + util::fmt(eval.scoreable) + " (" +
                     util::fmt_pct(eval.detection_rate()) + ")"});
  table.add_row({"mean detection latency", util::fmt(eval.mean_latency_epochs, 2) + " epochs"});
  table.add_row({"health", monitor::health_state_name(mon.health()->state)});
  table.print(std::cout);

  bool ok = true;
  rpc::MonitorRpcServer server(&mon);
  const std::string script = cli.get_string("serve-script", "");
  if (!script.empty()) {
    ok = replay_script(server, script, cli.get_string("serve-out", "")) && ok;
  }
  const std::string snapshot_out = cli.get_string("snapshot-out", "");
  if (!snapshot_out.empty()) {
    const auto snap = mon.latest();
    if (snap == nullptr ||
        !obs::write_json_file(snapshot_out, monitor::snapshot_to_json(*snap))) {
      std::cerr << "failed to write " << snapshot_out << "\n";
      ok = false;
    } else {
      std::cout << "snapshot written to " << snapshot_out << "\n";
    }
  }
  const std::string metrics_out = cli.get_string("metrics-out", "");
  if (!metrics_out.empty()) {
    if (!obs::write_json_file(metrics_out, obs::snapshot_to_json(mon.metrics().snapshot()))) {
      std::cerr << "failed to write " << metrics_out << "\n";
      ok = false;
    } else {
      std::cout << "metrics written to " << metrics_out << "\n";
    }
  }
  const std::string trace_out = cli.get_string("trace-out", "");
  if (!trace_out.empty()) {
    if (!obs::write_json_file(trace_out,
                              obs::spans_to_chrome_json(mon.tracer().spans()))) {
      std::cerr << "failed to write " << trace_out << "\n";
      ok = false;
    } else {
      std::cout << "trace written to " << trace_out << "\n";
    }
  }
  const std::string prom_out = cli.get_string("prom-out", "");
  if (!prom_out.empty()) {
    std::ofstream out(prom_out, std::ios::binary);
    if (!out || !(out << *mon.metrics_exposition())) {
      std::cerr << "failed to write " << prom_out << "\n";
      ok = false;
    } else {
      std::cout << "exposition written to " << prom_out << "\n";
    }
  }
  // Written last so RPC errors from the --serve-script replay land in it.
  const std::string log_out = cli.get_string("log-out", "");
  if (!log_out.empty()) {
    std::ofstream out(log_out, std::ios::binary);
    if (!out || !(out << mon.event_log().to_jsonl())) {
      std::cerr << "failed to write " << log_out << "\n";
      ok = false;
    } else {
      std::cout << "event log written to " << log_out << "\n";
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  topo::util::Cli cli(argc, argv);
  if (cli.get_bool("help", false)) {
    std::cout
        << "toposhot_monitord: continuous topology monitoring over a drifting testnet\n"
           "  world:   --nodes=N --seed=S --recipe=ropsten|rinkeby|goerli\n"
           "  epochs:  --epochs=N --epoch-budget=B (0 = auto) --churn=C\n"
           "           --decay-half-life=H --bootstrap=BOOL --eval-within=W\n"
           "  probe:   --group=K --repetitions=R --strategy=toposhot|dethna|txprobe\n"
           "           --threads=N --shards=S --traffic-churn=R\n"
           "           --fault-loss=P --fault-churn=RATE --retries=R\n"
           "  output:  --serve-script=PATH --serve-out=PATH --snapshot-out=PATH\n"
           "           --metrics-out=PATH --prom-out=PATH --trace-out=PATH\n"
           "           --log-out=PATH --log-level=debug|info|warn|error\n";
    return 0;
  }
  try {
    return run(cli);
  } catch (const std::invalid_argument& e) {
    std::cerr << "invalid parameters: " << e.what() << "\n";
    return 2;
  }
}
