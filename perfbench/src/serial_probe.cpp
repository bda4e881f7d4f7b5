// Workload `serial_probe`: one caller probing every pair of a small group
// of critical nodes with MeasurementSession::one_link, at stock Geth pool
// size, in the paced regime of the paper's mainnet study (§6.3/§6.4): a
// stationary fee market, Y0 re-estimated before every pair, and a spacing
// after each probe in which organic traffic and mining clear its residue.
//
// The warmed, settled world is built once in set-up and frozen; each round
// of pairs runs on a fresh fork of it, so every round does identical work
// and a long run never measures a world that drifted away from the one set
// up. Nothing of topo::exec runs here.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/gas_estimator.h"
#include "core/session.h"
#include "core/validator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace topo;

/// Stream tag of the probed group's selection.
constexpr uint64_t kGroupStream = 0x6A0F;

struct Inputs {
  graph::Graph truth;
  std::vector<std::pair<size_t, size_t>> pairs;  ///< target indices
  std::unique_ptr<core::WorldSnapshot> world;
  double spacing_s = 0.0;
};

struct Round {
  std::vector<core::Verdict> verdicts;
  std::vector<double> probe_ms;
  uint64_t txs_sent = 0;
  double probe_loop_ms = 0.0;  ///< host time from the first probe to the last spacing
  std::map<std::string, double> counts;
};

/// Probes every pair once on a fresh fork of the set-up world. With
/// `counts`, also tallies the round's world counts from metrics snapshots
/// taken outside the timed loop.
Round run_round(const Inputs& in, Ledger& L, bool counts) {
  Round r;
  const std::unique_ptr<core::Scenario> world =
      L.span("exec.fork", [&] { return core::Scenario::fork(*in.world); });
  core::Scenario& sc = *world;
  core::MeasurementSession session(sc);
  obs::MetricsSnapshot before;
  if (counts) before = L.span("obs.snapshot_metrics", [&] { return sc.snapshot_metrics(); });
  const auto loop_t0 = Clock::now();
  for (const auto& [u, v] : in.pairs) {
    session.config().price_Y = L.span("core.estimate_y0", [&] {
      return core::estimate_price_Y0(sc.m().view(), core::min_included_price(sc.chain()));
    });
    const auto t0 = Clock::now();
    const core::OneLinkResult res = L.span(
        "core.one_link", [&] { return session.one_link(sc.targets()[u], sc.targets()[v]).value; });
    r.probe_ms.push_back(seconds_since(t0) * 1e3);
    r.verdicts.push_back(res.verdict);
    r.txs_sent += res.txs_sent;
    L.span("sim.run_until", [&] { sc.sim().run_until(sc.sim().now() + in.spacing_s); });
  }
  r.probe_loop_ms = seconds_since(loop_t0) * 1e3;
  if (counts) {
    const obs::MetricsSnapshot after =
        L.span("obs.snapshot_metrics", [&] { return sc.snapshot_metrics(); });
    add_world_counts(r.counts, before, after);
    r.counts["core.txs_sent"] = static_cast<double>(r.txs_sent);
  }
  return r;
}

/// One checked operation per probe: conclusive and equal to the truth.
/// Returns the round's confusion counts.
core::PrecisionRecall check_round(RunResult& res, const Inputs& in, const Round& r) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> tested;
  std::vector<bool> positives;
  for (size_t i = 0; i < in.pairs.size(); ++i) {
    const graph::NodeId u = static_cast<graph::NodeId>(in.pairs[i].first);
    const graph::NodeId v = static_cast<graph::NodeId>(in.pairs[i].second);
    const core::Verdict got = r.verdicts[i];
    const bool real = in.truth.has_edge(u, v);
    res.check(got != core::Verdict::kInconclusive && (got == core::Verdict::kConnected) == real,
              "probe " + std::to_string(u) + "-" + std::to_string(v) + " verdict " +
                  std::to_string(static_cast<int>(got)) + " against truth " +
                  (real ? "connected" : "absent"));
    tested.emplace_back(u, v);
    positives.push_back(got == core::Verdict::kConnected);
  }
  return core::compare_pairs(in.truth, tested, positives);
}

}  // namespace

RunResult run_serial_probe(const Args& a) {
  RunResult res;
  Inputs in;
  in.spacing_s = a.real("spacing_s");
  std::vector<double> emerge_ms;
  // Set-up: overlay, the probed group, and the warmed world at stock Geth
  // scale, settled into a stationary fee market and frozen.
  for (size_t rep = 0; rep < a.get("setup_reps"); ++rep) {
    const auto t0 = Clock::now();
    in.truth = emerge_overlay(a);
    emerge_ms.push_back(seconds_since(t0) * 1e3);
    util::Rng pick(util::derive_stream_seed(a.seed(), kGroupStream));
    std::vector<size_t> group = pick.sample_indices(in.truth.num_nodes(), a.get("group"));
    std::sort(group.begin(), group.end());
    in.pairs.clear();
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) in.pairs.emplace_back(group[i], group[j]);
    }
    core::ScenarioOptions opt;
    opt.seed = a.seed();
    opt.mempool_capacity = a.get("pool_capacity");
    opt.future_cap = a.get("pool_future_cap");
    opt.background_txs = a.get("background_txs");
    opt.background_price_lo = eth::gwei(a.real("price_lo_gwei"));
    opt.background_price_hi = eth::gwei(a.real("price_hi_gwei"));
    opt.block_gas_limit = a.get("block_txs") * eth::kTransferGas;
    core::Scenario sc(in.truth, opt);
    sc.seed_background();
    sc.start_churn(a.real("churn_rate"));
    sc.sim().run_until(sc.sim().now() + a.real("settle_s"));
    in.world = std::make_unique<core::WorldSnapshot>(sc.snapshot());
    res.setup_s.push_back(seconds_since(t0));
  }

  Ledger off(false);
  if (!a.trace()) {
    const size_t min_samples = a.get("min_samples");
    core::PrecisionRecall pr;
    std::vector<core::Verdict> first;
    const auto phase_t0 = Clock::now();
    while (seconds_since(phase_t0) < a.seconds() || res.work_ms.size() < min_samples) {
      const Round round = run_round(in, off, false);
      res.work_ms.insert(res.work_ms.end(), round.probe_ms.begin(), round.probe_ms.end());
      res.pairs += round.verdicts.size();
      pr.merge(check_round(res, in, round));
      if (first.empty()) first = round.verdicts;
      res.check(round.verdicts == first, "a round's verdicts differ from the first round's");
      if (seconds_since(phase_t0) > a.real("max_seconds")) break;
    }
    res.work_s = seconds_since(phase_t0);
    res.recall = pr.recall();
    res.precision = pr.precision();
    return res;
  }

  // Traced run: an untimed warm-up round (the count reference), an
  // untraced timed round and a traced one. Every round must count the same
  // work.
  const Round warm = run_round(in, off, true);
  const Round plain = run_round(in, off, true);
  Ledger ledger(true);
  const Round traced = run_round(in, ledger, true);
  check_round(res, in, warm);
  check_round(res, in, plain);
  check_round(res, in, traced);
  check_counts_repeat(res, warm.counts, plain.counts);
  check_counts_repeat(res, warm.counts, traced.counts);

  std::map<std::string, double>& L = res.layers;
  L = traced.counts;
  add_count_ratios(L, in.pairs.size());
  L["core.probes"] = static_cast<double>(in.pairs.size());
  const Ledger::Stats st = ledger.by_name();
  L["exec.fork_ms"] = stat_of(st, "exec.fork").mean_ms();
  L["obs.snapshot_metrics_ms"] = stat_of(st, "obs.snapshot_metrics").mean_ms();
  L["disc.emerge_ms"] = median(emerge_ms);
  add_self_times(L, st);
  L["trace.overhead_frac"] = traced.probe_loop_ms / plain.probe_loop_ms;
  return res;
}

}  // namespace perfbench
