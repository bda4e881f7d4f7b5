// toposhot_cli — a driver binary exposing the library's workflows behind
// one command-line interface:
//
//   --mode=profile                      profile the Table 3 client policies
//   --mode=measure --nodes=N --group=K  measure an emergent testnet topology
//   --mode=analyze --nodes=N            graph analytics on an emergent topology
//   --mode=pair --a=I --b=J --nodes=N   measure one link with diagnostics
//   --mode=export --nodes=N --out=PATH  emerge a topology and write CSV/DOT
//
// Common flags: --seed, --recipe=ropsten|rinkeby|goerli, --repetitions,
// and --strategy=toposhot|dethna|txprobe to pick the measurement strategy
// (core::MeasurementStrategy seam; the non-default choice is echoed in the
// table, the report JSON, and the metrics snapshot).
// measure also accepts --threads=N / --shards=S to run the sharded campaign
// (topo::exec), --fault-loss=P / --fault-churn=RATE / --retries=R for
// deterministic fault injection with bounded inconclusive re-measurement
// (topo::fault), and --metrics-out=PATH to dump the metrics snapshot
// (counters, gauges, probe-phase histograms) as JSON; pair accepts
// --metrics-out too.
//
// Observability (measure and pair): --trace-out=PATH writes the causal span
// export as Chrome trace-event JSON (load in Perfetto / chrome://tracing),
// and --diagnostics prints the per-cause verdict breakdown and embeds the
// diagnostics annex in the report (docs/TRACING.md).

#include <fstream>
#include <iostream>

#include "core/profiler.h"
#include "core/session.h"
#include "core/toposhot.h"
#include "core/validator.h"
#include "exec/campaign.h"
#include "fault/fault.h"
#include "obs/export.h"
#include "obs/span.h"
#include "disc/emergence.h"
#include "graph/centrality.h"
#include "graph/io.h"
#include "graph/louvain.h"
#include "graph/metrics.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace topo;

disc::EmergenceConfig recipe_for(const std::string& name, size_t nodes) {
  if (name == "rinkeby") return disc::rinkeby_like(nodes);
  if (name == "goerli") return disc::goerli_like(nodes);
  return disc::ropsten_like(nodes);
}

int mode_profile() {
  core::ClientProfiler profiler;
  util::Table table({"Client", "R", "U", "P", "L", "Measurable"});
  for (const auto kind : mempool::kAllClients) {
    const auto est = profiler.profile(kind);
    table.add_row({mempool::client_name(kind), util::fmt_pct(est.replace_bump_fraction, 2),
                   est.futures_unbounded ? "inf" : util::fmt(est.max_futures_per_account),
                   util::fmt(est.min_pending_for_eviction), util::fmt(est.capacity),
                   est.measurable ? "yes" : "no"});
  }
  table.print(std::cout);
  return 0;
}

/// Writes an explicit snapshot (the sharded-campaign path, where there is no
/// single session to snapshot) when --metrics-out was given.
bool maybe_write_metrics(const util::Cli& cli, const obs::MetricsSnapshot& snapshot) {
  const std::string path = cli.get_string("metrics-out", "");
  if (path.empty()) return true;
  if (!obs::write_json_file(path, obs::snapshot_to_json(snapshot))) {
    std::cerr << "failed to write " << path << "\n";
    return false;
  }
  std::cout << "metrics written to " << path << "\n";
  return true;
}

/// Writes the causal-span export as Chrome trace-event JSON when
/// --trace-out was given; returns false only on I/O failure.
bool maybe_write_trace(const util::Cli& cli, std::vector<obs::Span> spans) {
  const std::string path = cli.get_string("trace-out", "");
  if (path.empty()) return true;
  if (!obs::write_json_file(path, obs::spans_to_chrome_json(std::move(spans)))) {
    std::cerr << "failed to write " << path << "\n";
    return false;
  }
  std::cout << "trace written to " << path << "\n";
  return true;
}

/// Appends the per-cause verdict breakdown of the diagnostics annex.
void add_diagnostics_rows(util::Table& table, const core::DiagnosticsReport& d) {
  for (size_t c = 0; c < obs::kNumProbeCauses; ++c) {
    if (d.causes[c] == 0 && d.cleared[c] == 0) continue;
    const char* name = obs::probe_cause_name(static_cast<obs::ProbeCause>(c));
    table.add_row({std::string("cause ") + name,
                   util::fmt(d.causes[c]) + " (" + util::fmt(d.cleared[c]) + " cleared)"});
  }
}

/// Builds the fault plan shared by both measure paths from --fault-loss
/// (uniform message-drop probability) and --fault-churn (random node faults
/// per sim second, half of them crash/restarts).
/// Parses --strategy through the strict vocabulary (exit 2 on a typo).
core::StrategyKind strategy_from(const util::Cli& cli) {
  const std::string name =
      cli.get_choice("strategy", "toposhot", {"toposhot", "dethna", "txprobe"});
  core::StrategyKind kind = core::StrategyKind::kToposhot;
  core::strategy_from_name(name, kind);
  return kind;
}

/// Stamps the strategy into a metrics snapshot so the written artifact is
/// self-describing even where the report JSON is not emitted.
void stamp_strategy(obs::MetricsSnapshot& snapshot, core::StrategyKind kind) {
  snapshot.gauges["probe.strategy"] = static_cast<double>(kind);
}

fault::FaultPlan fault_plan_from(const util::Cli& cli) {
  fault::FaultPlan plan;
  const double loss = cli.get_double("fault-loss", 0.0);
  plan.drop_tx = loss;
  plan.drop_announce = loss;
  plan.drop_get_tx = loss;
  plan.churn_rate = cli.get_double("fault-churn", 0.0);
  plan.crash_fraction = 0.5;
  return plan;
}

int mode_measure(const util::Cli& cli) {
  const size_t nodes = cli.get_uint("nodes", 40);
  const size_t group = cli.get_uint("group", 3);
  const uint64_t seed = cli.get_uint("seed", 1);
  const size_t threads = cli.get_uint("threads", 1);
  const size_t shards = cli.get_uint("shards", 0);
  const size_t retries = cli.get_uint("retries", 0);
  const bool diagnostics = cli.get_bool("diagnostics", false);
  const bool tracing = !cli.get_string("trace-out", "").empty();
  const core::StrategyKind strategy = strategy_from(cli);
  const fault::FaultPlan plan = fault_plan_from(cli);
  util::Rng rng(seed);
  auto recipe = recipe_for(cli.get_string("recipe", "ropsten"), nodes);
  const graph::Graph truth = disc::emerge_topology(recipe, rng);

  core::ScenarioOptions opt;
  opt.seed = seed;
  opt.block_gas_limit = 30 * eth::kTransferGas;

  util::Table table({"Metric", "Value"});
  table.add_row({"strategy", core::strategy_name(strategy)});
  table.add_row({"nodes", util::fmt(truth.num_nodes())});
  table.add_row({"true edges", util::fmt(truth.num_edges())});

  if (threads > 1 || shards > 0) {
    // Sharded campaign: the shard plan (not the pool width) fixes the
    // decomposition, so any --threads value yields the same merged report.
    core::Scenario probe(truth, opt);
    const core::MeasureConfig mcfg =
        core::MeasureConfig::Builder(probe.default_measure_config())
            .repetitions(cli.get_uint("repetitions", 3))
            .inconclusive_retries(retries)
            .collect_diagnostics(diagnostics)
            .build();
    exec::CampaignOptions copt;
    copt.group_k = group;
    copt.strategy = strategy;
    copt.threads = threads;
    copt.shards = shards;
    copt.churn_rate = 3.0;
    copt.fault_plan = plan;
    copt.collect_spans = tracing;
    copt.fork_worlds = cli.get_bool("fork-worlds", true);
    auto campaign = exec::run_sharded_campaign(truth, opt, mcfg, copt);
    stamp_strategy(campaign.metrics, strategy);
    if (campaign.shards != campaign.shards_requested) {
      std::cerr << "warning: --shards=" << campaign.shards_requested << " clamped to "
                << campaign.shards << " (only " << campaign.batches
                << " batches to distribute)\n";
    }
    const auto& report = campaign.report;
    const auto pr = core::compare_graphs(truth, report.measured);
    table.add_row({"measured edges", util::fmt(report.measured.num_edges())});
    table.add_row({"precision", util::fmt_pct(pr.precision())});
    table.add_row({"recall", util::fmt_pct(pr.recall())});
    table.add_row({"iterations", util::fmt(report.iterations)});
    table.add_row({"sim seconds", util::fmt(report.sim_seconds, 0)});
    table.add_row({"sim makespan", util::fmt(campaign.makespan_sim_seconds, 0)});
    table.add_row({"txs sent", util::fmt(report.txs_sent)});
    table.add_row({"net messages", util::fmt(campaign.metrics.counters.at("net.messages"))});
    table.add_row(
        {"pool evictions", util::fmt(campaign.metrics.counters.at("mempool.evictions"))});
    table.add_row({"shards / threads", util::fmt(campaign.shards) + " / " + util::fmt(threads)});
    if (report.fault.has_value()) {
      table.add_row({"probe attempts", util::fmt(report.fault->attempts)});
      table.add_row({"still inconclusive", util::fmt(report.fault->inconclusive)});
      table.add_row({"pairs re-measured", util::fmt(report.fault->retried.size())});
    }
    if (report.diagnostics.has_value()) add_diagnostics_rows(table, *report.diagnostics);
    table.print(std::cout);
    const bool ok = maybe_write_metrics(cli, campaign.metrics) &&
                    maybe_write_trace(cli, campaign.spans);
    return ok ? 0 : 1;
  }

  core::Scenario sc(truth, opt);
  fault::FaultInjector injector(plan, util::derive_stream_seed(seed, 0xFA01));
  sc.seed_background();
  sc.start_churn(3.0);
  if (plan.enabled()) injector.install(sc.net(), &sc.metrics());
  obs::SpanTracer tracer(0);
  if (tracing) sc.set_span_tracer(&tracer);

  core::MeasurementSession session(
      sc, core::MeasureConfig::Builder(sc.default_measure_config())
              .repetitions(cli.get_uint("repetitions", 3))
              .inconclusive_retries(retries)
              .collect_diagnostics(diagnostics)
              .build());
  session.set_strategy(strategy);
  const auto measured = session.network(group);
  const auto& report = measured.value;
  const auto pr = core::compare_graphs(truth, report.measured);

  table.add_row({"measured edges", util::fmt(report.measured.num_edges())});
  table.add_row({"precision", util::fmt_pct(pr.precision())});
  table.add_row({"recall", util::fmt_pct(pr.recall())});
  table.add_row({"iterations", util::fmt(report.iterations)});
  table.add_row({"sim seconds", util::fmt(report.sim_seconds, 0)});
  table.add_row({"txs sent", util::fmt(report.txs_sent)});
  table.add_row({"net messages", util::fmt(measured.metrics.counters.at("net.messages"))});
  table.add_row({"pool evictions", util::fmt(measured.metrics.counters.at("mempool.evictions"))});
  if (report.fault.has_value()) {
    table.add_row({"probe attempts", util::fmt(report.fault->attempts)});
    table.add_row({"still inconclusive", util::fmt(report.fault->inconclusive)});
    table.add_row({"pairs re-measured", util::fmt(report.fault->retried.size())});
  }
  if (report.diagnostics.has_value()) add_diagnostics_rows(table, *report.diagnostics);
  table.print(std::cout);
  obs::MetricsSnapshot snapshot = session.snapshot();
  stamp_strategy(snapshot, strategy);
  const bool ok = maybe_write_metrics(cli, snapshot) && maybe_write_trace(cli, tracer.spans());
  return ok ? 0 : 1;
}

int mode_analyze(const util::Cli& cli) {
  const size_t nodes = cli.get_uint("nodes", 120);
  const uint64_t seed = cli.get_uint("seed", 1);
  util::Rng rng(seed);
  auto recipe = recipe_for(cli.get_string("recipe", "ropsten"), nodes);
  const graph::Graph g = disc::emerge_topology(recipe, rng);

  const auto d = graph::distance_stats(g);
  util::Rng lrng = rng.split();
  const auto comm = graph::louvain(g, lrng);
  const auto cuts = graph::articulation_points(g);
  const auto fp = graph::neighbor_fingerprints(g);

  util::Table table({"Property", "Value"});
  table.add_row({"nodes / edges", util::fmt(g.num_nodes()) + " / " + util::fmt(g.num_edges())});
  table.add_row({"diameter / radius", util::fmt(static_cast<long long>(d.diameter)) + " / " +
                                          util::fmt(static_cast<long long>(d.radius))});
  table.add_row({"clustering", util::fmt(graph::clustering_coefficient(g), 4)});
  table.add_row({"transitivity", util::fmt(graph::transitivity(g), 4)});
  table.add_row({"assortativity", util::fmt(graph::degree_assortativity(g), 4)});
  table.add_row({"modularity", util::fmt(comm.modularity, 4)});
  table.add_row({"communities", util::fmt(comm.count)});
  table.add_row({"articulation points", util::fmt(cuts.size())});
  table.add_row({"unique fingerprints", util::fmt_pct(fp.unique_fraction())});
  table.print(std::cout);
  return 0;
}

int mode_pair(const util::Cli& cli) {
  const size_t nodes = cli.get_uint("nodes", 24);
  const uint64_t seed = cli.get_uint("seed", 1);
  const size_t a = cli.get_uint("a", 0);
  const size_t b = cli.get_uint("b", 1);
  util::Rng rng(seed);
  auto recipe = recipe_for(cli.get_string("recipe", "ropsten"), nodes);
  const graph::Graph truth = disc::emerge_topology(recipe, rng);
  if (a >= nodes || b >= nodes || a == b) {
    std::cerr << "--a/--b must be distinct indices below --nodes\n";
    return 2;
  }

  core::ScenarioOptions opt;
  opt.seed = seed;
  const core::StrategyKind strategy = strategy_from(cli);
  core::Scenario sc(truth, opt);
  sc.seed_background();
  obs::SpanTracer tracer(0);
  if (!cli.get_string("trace-out", "").empty()) sc.set_span_tracer(&tracer);
  core::MeasurementSession session(sc);
  session.set_strategy(strategy);
  const auto measured = session.one_link(sc.targets()[a], sc.targets()[b]);
  const auto& r = measured.value;
  std::cout << "pair " << a << " <-> " << b << " [" << core::strategy_name(strategy) << "]: "
            << (r.connected ? "CONNECTED" : "not connected")
            << " (ground truth: " << (truth.has_edge(static_cast<graph::NodeId>(a),
                                                     static_cast<graph::NodeId>(b))
                                          ? "linked"
                                          : "not linked")
            << ")\n"
            << "  txC evicted on A/B: " << r.txc_evicted_on_a << "/" << r.txc_evicted_on_b
            << ", txA planted: " << r.txa_planted_on_a << ", txs sent: " << r.txs_sent
            << ", verdict: " << obs::span_verdict_name(core::span_verdict_code(r.verdict))
            << ", cause: " << obs::probe_cause_name(r.cause) << "\n";
  obs::MetricsSnapshot snapshot = session.snapshot();
  stamp_strategy(snapshot, strategy);
  const bool ok = maybe_write_metrics(cli, snapshot) && maybe_write_trace(cli, tracer.spans());
  return ok ? 0 : 1;
}

int mode_export(const util::Cli& cli) {
  const size_t nodes = cli.get_uint("nodes", 120);
  const uint64_t seed = cli.get_uint("seed", 1);
  const std::string out = cli.get_string("out", "topology");
  util::Rng rng(seed);
  auto recipe = recipe_for(cli.get_string("recipe", "ropsten"), nodes);
  const graph::Graph g = disc::emerge_topology(recipe, rng);
  graph::write_edge_csv(g, out + ".csv");
  std::ofstream dot(out + ".dot");
  graph::write_dot(g, dot);
  std::cout << "wrote " << out << ".csv and " << out << ".dot (" << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  topo::util::Cli cli(argc, argv);
  const std::string mode = cli.get_string("mode", "help");
  try {
    if (mode == "profile") return mode_profile();
    if (mode == "measure") return mode_measure(cli);
    if (mode == "analyze") return mode_analyze(cli);
    if (mode == "pair") return mode_pair(cli);
    if (mode == "export") return mode_export(cli);
  } catch (const std::invalid_argument& e) {
    // MeasureConfig::Builder / ScenarioOptions validation.
    std::cerr << "invalid parameters: " << e.what() << "\n";
    return 2;
  }
  std::cout << "toposhot_cli --mode=profile|measure|analyze|pair|export\n"
               "  common: --seed=N --nodes=N --recipe=ropsten|rinkeby|goerli\n"
               "          --strategy=toposhot|dethna|txprobe (measurement strategy seam)\n"
               "  measure: --group=K --repetitions=R --threads=N --shards=S "
               "--metrics-out=PATH\n"
               "           --fork-worlds=BOOL (default true: shard replicas fork one "
               "warmed base world)\n"
               "           --fault-loss=P --fault-churn=RATE --retries=R "
               "(deterministic fault injection + re-measurement)\n"
               "           --trace-out=PATH --diagnostics "
               "(causal spans + per-cause verdict breakdown)\n"
               "  pair:    --a=I --b=J --metrics-out=PATH --trace-out=PATH\n"
               "  export:  --out=PATH\n";
  return mode == "help" ? 0 : 2;
}
