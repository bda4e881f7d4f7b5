// fault_recall — recall under injected message loss, with and without
// bounded inconclusive re-measurement.
//
// Sweeps uniform message-drop probability {0, 1%, 5%, 10%} x retries
// {off, on} over a fixed overlay and reports precision/recall per cell,
// demonstrating (a) that loss degrades recall through inconclusive
// probes, not false positives, and (b) that classifying inconclusive
// verdicts and re-measuring them buys the recall back at bounded cost.
// The campaign runner keeps every cell deterministic: same (seed, plan)
// gives the same row at any --threads.
//
// Diagnostics collection is always on, so every cell also reports *why*
// probes stayed inconclusive (per-cause tallies) and which causes the
// retry pass cleared — the per-cause recall breakdown of docs/TRACING.md.
//
// Flags: --nodes=N --edges=M --seed=S --group=K --threads=T --retries=R
//        --out=PATH (write the sweep as a JSON artifact; includes the
//        per-cause tallies and the "event_mix" object; tier-1 ctest
//        byte-compares the default run's artifact against
//        tests/expected/fault_recall.json)
//        --trace-out=PATH (Chrome trace of the last sweep cell)

#include <map>
#include <vector>

#include "bench_common.h"
#include "exec/campaign.h"
#include "graph/generators.h"
#include "obs/span.h"
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

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const size_t nodes = cli.get_uint("nodes", 32);
  const size_t edges = cli.get_uint("edges", 64);
  const uint64_t seed = cli.get_uint("seed", 123);
  const size_t group_k = cli.get_uint("group", 4);
  const size_t threads = cli.get_uint("threads", 1);
  const size_t retry_budget = cli.get_uint("retries", 2);
  const std::string out = cli.get_string("out", "");
  const std::string trace_out = cli.get_string("trace-out", "");

  bench::banner("Recall under message loss, with/without re-measurement",
                "fault-injection study (extends the §6 validation protocol)");

  util::Rng rng(seed);
  const graph::Graph truth = graph::erdos_renyi_gnm(nodes, edges, rng);

  // Laptop-scale mempools (the fig5/table8 recipe): event counts stay small
  // enough for an 8-cell sweep while Z still evicts the whole pool.
  core::ScenarioOptions opt;
  opt.seed = seed;
  opt.mempool_capacity = 192;
  opt.future_cap = 48;
  opt.background_txs = 128;

  core::MeasureConfig base_cfg;
  {
    core::Scenario probe(truth, opt);
    base_cfg = probe.default_measure_config();
  }
  base_cfg.repetitions = 1;  // isolate the retry effect from the repetition union
  // Diagnostics ride every cell: collection never perturbs the measurement
  // trajectory, and the per-cause tallies explain each recall number.
  base_cfg.collect_diagnostics = true;

  const double losses[] = {0.0, 0.01, 0.05, 0.10};
  util::Table table({"Loss", "Retries", "Recall", "Precision", "Attempts", "Inconclusive",
                     "Re-measured"});
  util::Table cause_table({"Loss", "Retries", "Offline", "txC stuck", "Payload lost",
                           "txA lost", "Cleared"});
  rpc::JsonArray cells;
  std::map<std::string, double> event_mix;
  std::vector<obs::Span> last_spans;
  for (const double loss : losses) {
    for (const bool with_retries : {false, true}) {
      core::MeasureConfig cfg = base_cfg;
      cfg.inconclusive_retries = with_retries ? retry_budget : 0;

      exec::CampaignOptions copt;
      copt.group_k = group_k;
      copt.threads = threads;
      copt.shards = 4;
      copt.fault_plan.drop_tx = loss;
      copt.fault_plan.drop_announce = loss;
      copt.fault_plan.drop_get_tx = loss;
      copt.collect_spans = !trace_out.empty();

      const auto campaign = exec::run_sharded_campaign(truth, opt, cfg, copt);
      const auto pr = core::compare_graphs(truth, campaign.report.measured);
      const auto& fault = campaign.report.fault;
      const uint64_t attempts = fault ? fault->attempts : campaign.report.pairs_tested;
      const uint64_t inconclusive = fault ? fault->inconclusive : 0;
      const size_t remeasured = fault ? fault->retried.size() : 0;

      table.add_row({util::fmt_pct(loss), with_retries ? util::fmt(retry_budget) : "off",
                     util::fmt_pct(pr.recall()), util::fmt_pct(pr.precision()),
                     util::fmt(attempts), util::fmt(inconclusive), util::fmt(remeasured)});
      rpc::JsonObject cell{
          {"loss", rpc::Json(loss)},
          {"retries", rpc::Json(static_cast<uint64_t>(with_retries ? retry_budget : 0))},
          {"recall", rpc::Json(pr.recall())},
          {"precision", rpc::Json(pr.precision())},
          {"attempts", rpc::Json(attempts)},
          {"inconclusive", rpc::Json(inconclusive)},
          {"remeasured", rpc::Json(static_cast<uint64_t>(remeasured))},
      };
      if (campaign.report.diagnostics.has_value()) {
        const core::DiagnosticsReport& d = *campaign.report.diagnostics;
        auto tally = [&d](obs::ProbeCause c) {
          return util::fmt(d.causes[static_cast<size_t>(c)]);
        };
        uint64_t cleared = 0;
        for (uint64_t c : d.cleared) cleared += c;
        cause_table.add_row({util::fmt_pct(loss),
                             with_retries ? util::fmt(retry_budget) : "off",
                             tally(obs::ProbeCause::kNodeOffline),
                             tally(obs::ProbeCause::kTxCNotEvicted),
                             tally(obs::ProbeCause::kPayloadNotPlanted),
                             tally(obs::ProbeCause::kTxANotPlanted), util::fmt(cleared)});
        cell.emplace("causes", causes_json(d.causes));
        cell.emplace("cleared", causes_json(d.cleared));
      }
      cells.push_back(rpc::Json(std::move(cell)));
      for (const auto& [name, v] : campaign.metrics.gauges) {
        if (name.rfind("sim.dispatch.", 0) == 0) {
          event_mix[name.substr(sizeof("sim.dispatch.") - 1)] += v;
        }
      }
      if (copt.collect_spans) last_spans = campaign.spans;
    }
  }
  table.print(std::cout);
  std::cout << "\nWhy probes stayed inconclusive (final causes per cell; 'Cleared' = "
               "pairs the retry pass decided):\n";
  cause_table.print(std::cout);
  std::cout << "\nReading: at 0% loss the retry column changes nothing (zero-cost-off); "
               "from 1% loss up, the retry rows recover recall the no-retry rows lose.\n";

  if (!trace_out.empty()) {
    // The most adversarial cell (10% loss, retries on) runs last; its spans
    // carry the full retry structure, so that is the trace worth keeping.
    if (obs::write_json_file(trace_out, obs::spans_to_chrome_json(std::move(last_spans)))) {
      std::cout << "[trace: " << trace_out << "]\n";
    } else {
      std::cerr << "failed to write " << trace_out << "\n";
      return 1;
    }
  }
  if (!out.empty()) {
    rpc::JsonObject mix;
    for (const auto& [name, v] : event_mix) mix[name] = rpc::Json(v);
    const rpc::Json doc(rpc::JsonObject{
        {"bench", rpc::Json("fault_recall")},
        {"nodes", rpc::Json(static_cast<uint64_t>(nodes))},
        {"edges", rpc::Json(static_cast<uint64_t>(edges))},
        {"seed", rpc::Json(seed)},
        {"event_mix", rpc::Json(std::move(mix))},
        {"cells", rpc::Json(std::move(cells))},
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
