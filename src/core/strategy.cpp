#include "core/strategy.h"

#include <algorithm>
#include <limits>

#include "core/gas_estimator.h"
#include "core/toposhot.h"
#include "p2p/node.h"

namespace topo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// TxProbe pacing: settle time after arming the blocking windows, and the
/// gap separating consecutive pairs (each pair uses a fresh marker hash,
/// so the gap only drains in-flight traffic, not blocking state).
constexpr double kTxProbeArmingWait = 0.5;
constexpr double kTxProbeInterPairGap = 0.5;

/// DEthna classifier: a sink counts as adjacent when its echo trails the
/// earliest observed echo of the marker by at most this many link-latency
/// medians (one extra hop costs one more latency draw; the margin absorbs
/// the lognormal spread of the three-link echo paths).
constexpr double kDethnaGapFactor = 1.2;

/// Markers ride far below the market median so they are never mined (zero
/// gas cost) and never evict resident transactions.
eth::Wei below_market_price(const mempool::Mempool& view) {
  const eth::Wei y = estimate_price_Y(view, eth::gwei(0.1));
  return std::max<eth::Wei>(1, y / 8);
}

/// Collapses a single-edge ParallelResult into the serial-result shape.
OneLinkResult one_link_from_single_edge(const ParallelResult& r) {
  OneLinkResult o;
  o.connected = r.connected.at(0);
  o.verdict = r.verdicts.at(0);
  o.cause = r.causes.at(0);
  o.attempts = r.attempts.at(0);
  o.txa_planted_on_a = r.txa_planted.at(0);
  o.started_at = r.started_at;
  o.finished_at = r.finished_at;
  o.txs_sent = r.txs_sent;
  return o;
}

void tally_verdicts(const ProbeObs& obs, const ParallelResult& res) {
  if (!obs.enabled()) return;
  for (Verdict v : res.verdicts) {
    switch (v) {
      case Verdict::kConnected: obs.verdict_connected->inc(); break;
      case Verdict::kNegative: obs.verdict_negative->inc(); break;
      case Verdict::kInconclusive: obs.verdict_inconclusive->inc(); break;
    }
  }
}

}  // namespace

const char* strategy_name(StrategyKind k) {
  switch (k) {
    case StrategyKind::kToposhot: return "toposhot";
    case StrategyKind::kDethna: return "dethna";
    case StrategyKind::kTxprobe: return "txprobe";
  }
  return "toposhot";
}

bool strategy_from_name(const std::string& name, StrategyKind& out) {
  for (size_t k = 0; k < kNumStrategies; ++k) {
    const auto kind = static_cast<StrategyKind>(k);
    if (name == strategy_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void apply_propagation_mode(Scenario& sc, PropagationMode mode) {
  for (p2p::PeerId id : sc.targets()) {
    p2p::NodeConfig& cfg = sc.net().node(id).mutable_config();
    cfg.announce_only = mode == PropagationMode::kAnnounceOnly;
    cfg.use_announcements = mode == PropagationMode::kPushAndAnnounce;
  }
}

// ---------------------------------------------------------------------------
// ToposhotStrategy

ParallelMeasurement ToposhotStrategy::make_parallel() {
  ParallelMeasurement par(net_, m_, accounts_, factory_, config_);
  par.set_cost_tracker(cost_);
  par.set_metrics(metrics_);
  par.set_tracer(tracer_);
  if (!flood_overrides_.empty()) par.set_flood_overrides(flood_overrides_);
  return par;
}

OneLinkResult ToposhotStrategy::measure_pair(p2p::PeerId a, p2p::PeerId b) {
  OneLinkMeasurement one(net_, m_, accounts_, factory_, config_);
  one.set_cost_tracker(cost_);
  one.set_metrics(metrics_);
  one.set_tracer(tracer_);
  return one.measure(a, b);
}

ParallelResult ToposhotStrategy::measure_batch(const std::vector<p2p::PeerId>& sources,
                                               const std::vector<p2p::PeerId>& sinks,
                                               const std::vector<ParallelEdge>& edges) {
  ParallelMeasurement par = make_parallel();
  return par.measure(sources, sinks, edges);
}

ParallelResult ToposhotStrategy::remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                                 const std::vector<p2p::PeerId>& sinks,
                                                 const std::vector<ParallelEdge>& edges) {
  ParallelMeasurement par = make_parallel();
  return par.remeasure(sources, sinks, edges);
}

// ---------------------------------------------------------------------------
// DethnaStrategy

void DethnaStrategy::prepare(Scenario& sc) {
  link_latency_hint_ = sc.options().latency_median;
}

double DethnaStrategy::announce_gap() const {
  return link_latency_hint_ * kDethnaGapFactor;
}

eth::Wei DethnaStrategy::marker_price() const { return below_market_price(m_.view()); }

ParallelResult DethnaStrategy::measure_once(const std::vector<p2p::PeerId>& sources,
                                            const std::vector<p2p::PeerId>& sinks,
                                            const std::vector<ParallelEdge>& edges) {
  ParallelResult res;
  const size_t n = edges.size();
  res.connected.assign(n, false);
  res.txa_planted.assign(n, false);
  res.verdicts.assign(n, Verdict::kInconclusive);
  res.attempts.assign(n, 1);
  res.causes.assign(n, obs::ProbeCause::kNone);
  res.started_at = now();
  const uint64_t txs_before = m_.txs_sent();

  // One marker per source, all injected up front (markers have distinct
  // hashes, so their gossip never interferes), then one shared detect
  // window covering every echo path.
  struct SourceProbe {
    eth::TxHash hash = 0;
    double sent_at = 0.0;
    bool offline = false;
  };
  std::vector<SourceProbe> probes(sources.size());
  double last_departure = now();
  for (size_t s = 0; s < sources.size(); ++s) {
    if (net_.node(sources[s]).unresponsive()) {
      probes[s].offline = true;
      continue;
    }
    const eth::Address acct = accounts_.create_one();
    if (cost_ != nullptr) cost_->track_account(acct);
    const eth::Transaction marker =
        craft_tx(factory_, config_, acct, accounts_.allocate_nonce(acct), marker_price());
    probes[s].hash = marker.hash();
    probes[s].sent_at = m_.send_to(sources[s], marker);
    last_departure = probes[s].sent_at;
  }
  net_.simulator().run_until(last_departure + config_.detect_wait);

  const double gap = announce_gap();
  std::vector<std::vector<std::pair<p2p::PeerId, double>>> recs(sources.size());
  std::vector<double> first_echo(sources.size(), kInf);
  std::vector<bool> planted(sources.size(), false);
  for (size_t s = 0; s < sources.size(); ++s) {
    if (probes[s].offline) continue;
    recs[s] = m_.receptions(probes[s].hash);
    for (const auto& [peer, t] : recs[s]) {
      if (t >= probes[s].sent_at) first_echo[s] = std::min(first_echo[s], t);
    }
    planted[s] = net_.node(sources[s]).pool().contains(probes[s].hash);
  }

  for (size_t i = 0; i < n; ++i) {
    const size_t s = edges[i].source;
    const p2p::PeerId sink = sinks[edges[i].sink];
    if (probes[s].offline || net_.node(sink).unresponsive()) {
      res.causes[i] = obs::ProbeCause::kNodeOffline;
      continue;
    }
    res.txa_planted[i] = planted[s];
    if (!planted[s] || first_echo[s] == kInf) {
      // The marker never took on the source (or never propagated at all):
      // nothing was learned about this pair.
      res.causes[i] = obs::ProbeCause::kTxANotPlanted;
      continue;
    }
    double sink_echo = kInf;
    for (const auto& [peer, t] : recs[s]) {
      if (peer == sink && t >= probes[s].sent_at) sink_echo = std::min(sink_echo, t);
    }
    if (sink_echo == kInf) {
      // The sink never echoed a marker the rest of the network carried —
      // its forwarding path is broken, so adjacency is unknowable from M.
      res.causes[i] = obs::ProbeCause::kPayloadNotPlanted;
    } else if (sink_echo - first_echo[s] <= gap) {
      res.connected[i] = true;
      res.verdicts[i] = Verdict::kConnected;
    } else {
      res.verdicts[i] = Verdict::kNegative;
      res.causes[i] = obs::ProbeCause::kTxANeverReturned;
    }
  }
  res.finished_at = now();
  res.txs_sent = m_.txs_sent() - txs_before;
  if (obs_.enabled()) obs_.parallel_runs->inc();
  return res;
}

ParallelResult DethnaStrategy::measure_batch(const std::vector<p2p::PeerId>& sources,
                                             const std::vector<p2p::PeerId>& sinks,
                                             const std::vector<ParallelEdge>& edges) {
  const size_t reps = std::max<size_t>(1, config_.repetitions);
  ParallelResult agg = measure_once(sources, sinks, edges);
  std::vector<uint32_t> votes(edges.size(), 0);
  for (size_t i = 0; i < edges.size(); ++i) votes[i] = agg.connected[i] ? 1 : 0;
  for (size_t rep = 1; rep < reps; ++rep) {
    const ParallelResult once = measure_once(sources, sinks, edges);
    for (size_t i = 0; i < edges.size(); ++i) {
      agg.attempts[i] += once.attempts[i];
      if (once.connected[i]) ++votes[i];
      if (once.txa_planted[i]) agg.txa_planted[i] = true;
      if (!once.connected[i]) {
        // Remember the latest non-positive outcome: it becomes the final
        // verdict when the majority rules the pair not-connected.
        agg.verdicts[i] = once.verdicts[i];
        agg.causes[i] = once.causes[i];
      }
    }
    agg.txs_sent += once.txs_sent;
    agg.finished_at = once.finished_at;
  }
  // Majority vote across the repetitions (strict: reps/2 + 1), unlike the
  // TopoShot union — timing inference errs in both directions.
  const uint32_t needed = static_cast<uint32_t>(reps / 2 + 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    if (votes[i] >= needed) {
      agg.connected[i] = true;
      agg.verdicts[i] = Verdict::kConnected;
      agg.causes[i] = obs::ProbeCause::kNone;
    } else {
      agg.connected[i] = false;
      if (agg.verdicts[i] == Verdict::kConnected) {
        // Minority-positive with no stored negative outcome cannot happen
        // (a non-positive pass always overwrote the verdict), but keep the
        // invariant airtight: an undecided majority is a clean negative.
        agg.verdicts[i] = Verdict::kNegative;
        agg.causes[i] = obs::ProbeCause::kTxANeverReturned;
      }
    }
  }
  tally_verdicts(obs_, agg);
  return agg;
}

ParallelResult DethnaStrategy::remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                               const std::vector<p2p::PeerId>& sinks,
                                               const std::vector<ParallelEdge>& edges) {
  if (obs_.enabled()) obs_.remeasures->inc(edges.size());
  return measure_batch(sources, sinks, edges);
}

OneLinkResult DethnaStrategy::measure_pair(p2p::PeerId a, p2p::PeerId b) {
  const std::vector<p2p::PeerId> sources{a}, sinks{b};
  const std::vector<ParallelEdge> edges{{0, 0}};
  return one_link_from_single_edge(measure_batch(sources, sinks, edges));
}

// ---------------------------------------------------------------------------
// TxProbeStrategy

void TxProbeStrategy::prepare(Scenario& sc) {
  if (has_propagation_override_) apply_propagation_mode(sc, propagation_override_);
}

eth::Wei TxProbeStrategy::marker_price() const { return below_market_price(m_.view()); }

ParallelResult TxProbeStrategy::measure_once(const std::vector<p2p::PeerId>& sources,
                                             const std::vector<p2p::PeerId>& sinks,
                                             const std::vector<ParallelEdge>& edges) {
  ParallelResult res;
  const size_t n = edges.size();
  res.connected.assign(n, false);
  res.txa_planted.assign(n, false);
  res.verdicts.assign(n, Verdict::kInconclusive);
  res.attempts.assign(n, 1);
  res.causes.assign(n, obs::ProbeCause::kNone);
  res.started_at = now();
  const uint64_t txs_before = m_.txs_sent();
  auto& sim = net_.simulator();

  // Strictly serial pairs: the blocking windows of pair i must be armed
  // against *that* pair's marker before it is injected, and the isolation
  // claim is per-marker anyway (distinct hashes per pair).
  for (size_t i = 0; i < n; ++i) {
    const p2p::PeerId a = sources[edges[i].source];
    const p2p::PeerId b = sinks[edges[i].sink];
    if (net_.node(a).unresponsive() || net_.node(b).unresponsive()) {
      res.causes[i] = obs::ProbeCause::kNodeOffline;
      continue;
    }
    const eth::Address acct = accounts_.create_one();
    if (cost_ != nullptr) cost_->track_account(acct);
    const eth::Transaction marker =
        craft_tx(factory_, config_, acct, accounts_.allocate_nonce(acct), marker_price());

    // Arm every other node's per-hash blocking window (M never serves the
    // body, so a blocked node learns nothing until the window expires).
    for (p2p::PeerId w : net_.regular_nodes()) {
      if (w == a || w == b) continue;
      net_.send_announce(m_.id(), w, marker.hash());
    }
    sim.run_until(sim.now() + kTxProbeArmingWait);

    const double sent_at = m_.send_to(a, marker);
    sim.run_until(sent_at + config_.detect_wait);

    res.txa_planted[i] = net_.node(a).pool().contains(marker.hash());
    if (m_.received_from_since(marker.hash(), b, sent_at)) {
      res.connected[i] = true;
      res.verdicts[i] = Verdict::kConnected;
    } else if (!res.txa_planted[i]) {
      res.causes[i] = obs::ProbeCause::kTxANotPlanted;
    } else {
      res.verdicts[i] = Verdict::kNegative;
      res.causes[i] = obs::ProbeCause::kTxANeverReturned;
    }
    sim.run_until(sim.now() + kTxProbeInterPairGap);
  }
  res.finished_at = now();
  res.txs_sent = m_.txs_sent() - txs_before;
  if (obs_.enabled()) obs_.parallel_runs->inc();
  return res;
}

ParallelResult TxProbeStrategy::measure_batch(const std::vector<p2p::PeerId>& sources,
                                              const std::vector<p2p::PeerId>& sinks,
                                              const std::vector<ParallelEdge>& edges) {
  const size_t reps = std::max<size_t>(1, config_.repetitions);
  ParallelResult agg = measure_once(sources, sinks, edges);
  for (size_t rep = 1; rep < reps; ++rep) {
    const bool all_positive =
        std::all_of(agg.connected.begin(), agg.connected.end(), [](bool c) { return c; });
    if (all_positive) break;
    const ParallelResult once = measure_once(sources, sinks, edges);
    // Union of positives across repetitions, the original protocol's rule.
    for (size_t i = 0; i < edges.size(); ++i) {
      agg.attempts[i] += once.attempts[i];
      if (once.txa_planted[i]) agg.txa_planted[i] = true;
      if (!agg.connected[i]) {
        agg.connected[i] = once.connected[i];
        agg.verdicts[i] = once.verdicts[i];
        agg.causes[i] = once.causes[i];
      }
    }
    agg.txs_sent += once.txs_sent;
    agg.finished_at = once.finished_at;
  }
  tally_verdicts(obs_, agg);
  return agg;
}

ParallelResult TxProbeStrategy::remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                                const std::vector<p2p::PeerId>& sinks,
                                                const std::vector<ParallelEdge>& edges) {
  if (obs_.enabled()) obs_.remeasures->inc(edges.size());
  return measure_batch(sources, sinks, edges);
}

OneLinkResult TxProbeStrategy::measure_pair(p2p::PeerId a, p2p::PeerId b) {
  const std::vector<p2p::PeerId> sources{a}, sinks{b};
  const std::vector<ParallelEdge> edges{{0, 0}};
  return one_link_from_single_edge(measure_batch(sources, sinks, edges));
}

// ---------------------------------------------------------------------------
// Factories

std::unique_ptr<MeasurementStrategy> make_strategy(StrategyKind kind, p2p::Network& net,
                                                   p2p::MeasurementNode& m,
                                                   eth::AccountManager& accounts,
                                                   eth::TxFactory& factory,
                                                   MeasureConfig config) {
  switch (kind) {
    case StrategyKind::kDethna:
      return std::make_unique<DethnaStrategy>(net, m, accounts, factory, config);
    case StrategyKind::kTxprobe:
      return std::make_unique<TxProbeStrategy>(net, m, accounts, factory, config);
    case StrategyKind::kToposhot:
      break;
  }
  return std::make_unique<ToposhotStrategy>(net, m, accounts, factory, config);
}

}  // namespace topo::core
