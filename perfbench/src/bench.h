#pragma once

// Shared pieces of the benchmark harness: the raw result document each
// workload fills, the seeded input generator, and the per-layer count
// ledger read from the program's public MetricsSnapshot.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "util/cli.h"

namespace perfbench {

/// Raw measurements of one benchmark run. perfbench/run.py turns them into
/// the reported metrics (medians, tails, rates); this side only measures.
struct RunResult {
  std::vector<double> setup_s;  ///< one sample per set-up repetition
  std::vector<double> work_ms;  ///< one sample per unit of measurement work
  double work_s = 0.0;          ///< host seconds of the timed work phase
  uint64_t pairs = 0;           ///< pairs given a verdict in the timed phase
  double recall = 0.0;
  double precision = 0.0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// Per-layer metrics of a traced run (empty when untraced).
  std::map<std::string, double> layers;

  /// Records one checked operation; a false `ok` counts as failed.
  void check(bool ok, const std::string& what);

  std::string to_json() const;
};

/// Workload inputs as passed on the command line.
struct Args {
  explicit Args(const topo::util::Cli& cli) : cli(cli) {}
  const topo::util::Cli& cli;
  uint64_t seed() const { return cli.get_uint("seed", 1); }
  double seconds() const { return cli.get_double("seconds", 10.0); }
  bool trace() const { return cli.get_uint("trace", 0) != 0; }
  size_t get(const char* key) const;  ///< required unsigned input; exit(2) when absent
  double real(const char* key) const;  ///< required real input; exit(2) when absent
};

/// The overlay every workload measures: emerged from the Ropsten recipe
/// (discovery + dialing, disc::ropsten_like) at --nodes nodes. Of
/// --overlay_draws overlays emerged from seed-derived streams, the one whose
/// edge count is closest to --edges is kept, so every seed measures an input
/// of about the same stated size. Throws std::runtime_error when even that
/// one is further than --edge_tolerance (a share of --edges) from it.
topo::graph::Graph emerge_overlay(const Args& a);

/// Median of `v` (upper median for an even count); 0 when empty.
double median(std::vector<double> v);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Adds the sim / p2p / mempool / core counts that accumulated between two
/// Scenario::snapshot_metrics() snapshots of one world into `out` (flows
/// add up, high-water marks take the maximum).
void add_world_counts(std::map<std::string, double>& out, const topo::obs::MetricsSnapshot& before,
                      const topo::obs::MetricsSnapshot& after);

/// Adds the ratios derived from add_world_counts totals, given the number of
/// pairs those counts measured.
void add_count_ratios(std::map<std::string, double>& out, uint64_t pairs);

/// Names of the per-layer metrics that must repeat exactly on a re-run with
/// the same seed (sim.*, p2p.*, mempool.*, core.* and monitor.* counts).
bool is_exact_count(const std::string& name);

/// Compares the exact counts of two same-seed executions; every mismatch is
/// a failed check on `res`.
void check_counts_repeat(RunResult& res, const std::map<std::string, double>& first,
                         const std::map<std::string, double>& second);

/// Adds each layer's self time, summed over its spans and threads, as
/// "<layer>.self_ms" (the layer is the span name up to its first '.').
void add_self_times(std::map<std::string, double>& out, const Ledger::Stats& stats);

/// Runs the workload; defined in campaign.cpp, serial_probe.cpp and
/// monitor_rpc.cpp.
RunResult run_campaign(const Args& args);
RunResult run_serial_probe(const Args& args);
RunResult run_monitor_rpc(const Args& args);

}  // namespace perfbench
