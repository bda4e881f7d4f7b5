// Reproduces paper Fig. 5: "Speedup of TopoShot's parallel measurement over
// the serial measurement."
//
// §6.1 measures a group of ~100 nodes (~4950 candidate pairs) with varying
// group size K and reports measurement time. K = 1 is the serial baseline
// (one measureOneLink per pair); larger K runs the two-round parallel
// schedule. Reported times are simulation seconds — the same quantity the
// paper reports as wall-clock, since everything in this reproduction runs
// in simulated network time. Expect time to fall by about an order of
// magnitude by K = 30.
//
// Observability: --trace-out=PATH writes the causal spans of every K run
// (tid = sweep row) as Chrome trace-event JSON.
// The --out artifact carries the per-K rows and an "event_mix" object
// (per-kind simulator dispatch counts summed over the sweep); tier-1 ctest
// byte-compares the default run's artifact against
// tests/expected/fig5_parallel_speedup.json.

#include <map>

#include "bench_common.h"
#include "exec/worker_pool.h"
#include "graph/generators.h"
#include "obs/span.h"
#include "rpc/json.h"

int main(int argc, char** argv) {
  using namespace topo;
  util::Cli cli(argc, argv);
  const size_t n = cli.get_uint("nodes", 48);
  const uint64_t seed = cli.get_uint("seed", 5);
  const size_t threads = cli.get_uint("threads", 1);
  const bool run_serial = cli.get_bool("serial", true);
  const std::string out = cli.get_string("out", "");
  const std::string trace_out = cli.get_string("trace-out", "");
  bench::banner("Parallel measurement speedup", "Figure 5 (§6.1)");

  util::Rng rng(seed);
  const graph::Graph g = graph::erdos_renyi_gnm(n, n * 5, rng);
  const size_t pairs = n * (n - 1) / 2;
  std::cout << "Measuring all " << pairs << " pairs of a " << n << "-node group.\n\n";

  util::Table table({"K (group size)", "Iterations", "Sim time (s)", "Speedup", "Recall",
                     "Precision"});
  double serial_time = 0.0;

  auto run_with_k = [&](size_t k, obs::SpanTracer* tracer) {
    core::ScenarioOptions opt = bench::scaled_options(seed + k);
    // Live-network churn keeps pools fresh across the many iterations
    // (residue from prior probes drains by mining, as on the real testnets).
    opt.block_gas_limit = 30 * eth::kTransferGas;
    core::Scenario sc(g, opt);
    sc.seed_background();
    sc.start_churn(3.0);
    sc.set_span_tracer(tracer);
    const double t0 = sc.sim().now();
    graph::Graph measured(g.num_nodes());
    size_t iterations = 0;
    if (k <= 1) {
      // Serial baseline: one measureOneLink per pair, via the session.
      core::MeasurementSession session(sc);
      for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
        for (graph::NodeId v = u + 1; v < g.num_nodes(); ++v) {
          ++iterations;
          const auto r = session.one_link(sc.targets()[u], sc.targets()[v]).value;
          if (r.connected) measured.add_edge(u, v);
        }
      }
    } else {
      const auto report = core::MeasurementSession(sc).network(k).value;
      measured = report.measured;
      iterations = report.iterations;
    }
    const double elapsed = sc.sim().now() - t0;
    const auto pr = core::compare_graphs(g, measured);
    return std::tuple{elapsed, iterations, pr, sc.snapshot_metrics()};
  };

  std::vector<size_t> ks;
  if (run_serial) ks.push_back(1);
  for (size_t k : {2u, 4u, 8u, 12u, 16u}) {
    if (k < n) ks.push_back(k);
  }
  // Each K runs against its own private scenario, so the sweep itself is
  // embarrassingly parallel; rows are stored by index and printed in order.
  // With --trace-out each run records into its own tracer (tid = row index)
  // — never shared across workers — and the merged export is sorted by
  // stable span ids, so it is identical at any --threads.
  std::vector<obs::SpanTracer> tracers;
  if (!trace_out.empty()) {
    tracers.reserve(ks.size());
    for (size_t i = 0; i < ks.size(); ++i) tracers.emplace_back(static_cast<uint32_t>(i));
  }
  std::vector<std::tuple<double, size_t, core::PrecisionRecall, obs::MetricsSnapshot>>
      results(ks.size());
  const exec::WorkerPool pool(threads);
  pool.run(ks.size(), [&](size_t i) {
    results[i] = run_with_k(ks[i], trace_out.empty() ? nullptr : &tracers[i]);
  });
  rpc::JsonArray rows;
  std::map<std::string, double> event_mix;
  for (size_t i = 0; i < ks.size(); ++i) {
    const auto& [elapsed, iterations, pr, metrics] = results[i];
    if (i == 0) serial_time = elapsed;
    table.add_row({util::fmt(ks[i]), util::fmt(iterations), util::fmt(elapsed, 0),
                   util::fmt(serial_time / elapsed, 1) + "x", util::fmt_pct(pr.recall()),
                   util::fmt_pct(pr.precision())});
    rows.push_back(rpc::Json(rpc::JsonObject{
        {"k", rpc::Json(static_cast<uint64_t>(ks[i]))},
        {"iterations", rpc::Json(static_cast<uint64_t>(iterations))},
        {"sim_time", rpc::Json(elapsed)},
        {"speedup", rpc::Json(serial_time / elapsed)},
        {"recall", rpc::Json(pr.recall())},
        {"precision", rpc::Json(pr.precision())},
    }));
    for (const auto& [name, v] : metrics.gauges) {
      if (name.rfind("sim.dispatch.", 0) == 0) {
        event_mix[name.substr(sizeof("sim.dispatch.") - 1)] += v;
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper reference: measurement time drops roughly 10x by K = 30 relative\n"
               "to serial; precision stays 100%. Iterations follow N/K + log2(K).\n";
  if (!trace_out.empty()) {
    std::vector<obs::Span> spans;
    for (const obs::SpanTracer& t : tracers) {
      spans.insert(spans.end(), t.spans().begin(), t.spans().end());
    }
    if (obs::write_json_file(trace_out, obs::spans_to_chrome_json(std::move(spans)))) {
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
        {"bench", rpc::Json("fig5_parallel_speedup")},
        {"nodes", rpc::Json(static_cast<uint64_t>(n))},
        {"seed", rpc::Json(seed)},
        {"event_mix", rpc::Json(std::move(mix))},
        {"rows", rpc::Json(std::move(rows))},
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
