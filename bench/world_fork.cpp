// Fork-vs-rebuild cost of shard replicas (the layered world-snapshot store).
//
// `exec::run_sharded_campaign` gives every shard a private replica of the
// warmed world. Before the snapshot layer, each shard paid the full price of
// constructing a Scenario and re-seeding its background load; now shards
// fork one shared WorldSnapshot and copy-on-write pages lazily. This bench
// measures exactly that trade at several world sizes:
//
//   rebuild  — construct Scenario(truth, opt) + seed_background(), per replica
//   fork     — Scenario::fork(snapshot of one warmed base), per replica
//
// and reports wall-clock per replica, the speedup (rebuild/fork), and the
// process peak RSS after each phase (ru_maxrss is monotone, so the phases
// run fork-first and the deltas are attributable). The --out artifact is
// google-benchmark JSON, one entry per world size named "k=<nodes>", with
// the speedup as its items_per_second: host time, which
// scripts/bench_compare.py gates against BENCH_baseline.json.

#include <sys/resource.h>

#include <chrono>
#include <memory>
#include <string>

#include "bench_common.h"
#include "graph/generators.h"
#include "rpc/json.h"

namespace {

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB -> MiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace topo;
  util::Cli cli(argc, argv);
  const uint64_t seed = cli.get_uint("seed", 11);
  const size_t max_nodes = cli.get_uint("max-nodes", 10'000);
  const std::string out = cli.get_string("out", "");
  bench::banner("World fork vs rebuild", "shard replica setup cost (PERFORMANCE.md)");

  std::cout << "Per-replica setup cost: fork a warmed WorldSnapshot vs rebuild\n"
               "+ re-warm from scratch, as run_sharded_campaign does per shard.\n\n";

  util::Table table({"Nodes", "Replicas", "Rebuild (ms)", "Fork (ms)", "Speedup",
                     "Peak RSS (MiB)"});
  rpc::JsonArray benchmarks;

  for (const size_t n : {size_t{100}, size_t{1'000}, size_t{10'000}}) {
    if (n > max_nodes) continue;
    // Replica counts sized so each phase runs long enough to time robustly
    // but the n=10k row stays CI-friendly.
    const size_t reps = n >= 10'000 ? 3 : (n >= 1'000 ? 8 : 32);

    util::Rng rng(seed);
    const graph::Graph truth = graph::erdos_renyi_gnm(n, n * 3, rng);
    core::ScenarioOptions opt = bench::scaled_options(seed);
    // Keep the background load per node modest so the 10k-node row finishes
    // in seconds; the warm cost still dominates Scenario construction.
    opt.background_txs = 96;

    // One warmed base world, snapshotted — the campaign's shared layer.
    core::Scenario base(truth, opt);
    base.seed_background();
    const core::WorldSnapshot snap = base.snapshot();

    // Fork phase first: ru_maxrss is monotone, so sampling after this phase
    // attributes the fork working set before the rebuild phase can mask it.
    double t0 = now_s();
    for (size_t i = 0; i < reps; ++i) {
      auto replica = core::Scenario::fork(snap);
      replica->reseed(seed + i);
    }
    const double fork_ms = (now_s() - t0) * 1e3 / static_cast<double>(reps);
    const double fork_rss = peak_rss_mb();

    t0 = now_s();
    for (size_t i = 0; i < reps; ++i) {
      core::Scenario replica(truth, opt);
      replica.seed_background();
      replica.reseed(seed + i);
    }
    const double rebuild_ms = (now_s() - t0) * 1e3 / static_cast<double>(reps);
    const double rebuild_rss = peak_rss_mb();

    const double speedup = fork_ms > 0 ? rebuild_ms / fork_ms : 0.0;
    table.add_row({util::fmt(n), util::fmt(reps), util::fmt(rebuild_ms, 2),
                   util::fmt(fork_ms, 2), util::fmt(speedup, 1) + "x",
                   util::fmt(fork_rss, 0) + " / " + util::fmt(rebuild_rss, 0)});
    benchmarks.push_back(rpc::Json(rpc::JsonObject{
        {"name", rpc::Json("k=" + std::to_string(n))},
        {"iterations", rpc::Json(static_cast<uint64_t>(reps))},
        {"real_time", rpc::Json(fork_ms)},
        {"time_unit", rpc::Json("ms")},
        {"items_per_second", rpc::Json(speedup)},  // the gated metric
        {"rebuild_ms", rpc::Json(rebuild_ms)},
        {"peak_rss_mb", rpc::Json(rebuild_rss)},
    }));
  }

  table.print(std::cout);
  std::cout << "\nAcceptance floor: forking a warmed 1k-node world must be >= 5x\n"
               "faster than rebuilding and re-warming it (docs/PERFORMANCE.md).\n";

  if (!out.empty()) {
    const rpc::Json doc(rpc::JsonObject{
        {"context", rpc::Json(rpc::JsonObject{{"executable", rpc::Json("world_fork")},
                                              {"seed", rpc::Json(seed)}})},
        {"benchmarks", rpc::Json(std::move(benchmarks))},
    });
    if (obs::write_json_file(out, doc)) {
      std::cout << "[benchmarks: " << out << "]\n";
    } else {
      std::cerr << "failed to write " << out << "\n";
      return 1;
    }
  }
  return 0;
}
