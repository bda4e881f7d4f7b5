#include "core/strategy.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

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

/// Crafts the Step-2 eviction flood (paper §5.2.2): `z` future transactions
/// priced at cfg.price_future(), spread over fresh accounts according to
/// cfg.flood_plan(z). Each account leaves a gap at nonce 0 so every crafted
/// transaction classifies as future on the target.
std::vector<eth::Transaction> craft_future_flood(eth::AccountManager& accounts,
                                                 eth::TxFactory& factory,
                                                 const MeasureConfig& cfg, size_t z) {
  std::vector<eth::Transaction> flood;
  flood.reserve(z);
  const MeasureConfig::FloodPlan plan = cfg.flood_plan(z);
  const eth::Wei price = cfg.price_future();
  for (size_t a = 0; a < plan.accounts && flood.size() < z; ++a) {
    const eth::Address acct = accounts.create_one();
    const eth::Nonce base = accounts.future_nonce(acct, 1);  // gap at nonce 0
    for (uint64_t j = 0; j < plan.per_account && flood.size() < z; ++j) {
      flood.push_back(craft_tx(factory, cfg, acct, base + j, price));
    }
  }
  return flood;
}

/// Verdict of one TopoShot probe (§6.1's validation): a negative only
/// counts when the probe state actually existed — txA on the source, the
/// payload (txB, or txA having replaced it) on the sink, txC evicted
/// there. Anything else means the probe never ran to completion
/// (inconclusive), and the cause names the earliest broken protocol step;
/// an offline endpoint explains every downstream failure, so it comes
/// first.
std::pair<Verdict, obs::ProbeCause> classify_probe(bool connected, bool txa_planted,
                                                   bool payload_on_sink,
                                                   bool txc_evicted_on_sink,
                                                   bool endpoint_offline) {
  if (connected) return {Verdict::kConnected, obs::ProbeCause::kNone};
  if (txa_planted && payload_on_sink && txc_evicted_on_sink) {
    return {Verdict::kNegative, obs::ProbeCause::kTxANeverReturned};
  }
  if (endpoint_offline) return {Verdict::kInconclusive, obs::ProbeCause::kNodeOffline};
  if (!txc_evicted_on_sink) return {Verdict::kInconclusive, obs::ProbeCause::kTxCNotEvicted};
  if (!payload_on_sink) return {Verdict::kInconclusive, obs::ProbeCause::kPayloadNotPlanted};
  return {Verdict::kInconclusive, obs::ProbeCause::kTxANotPlanted};
}

void count_verdict(const ProbeObs& obs, Verdict v) {
  if (!obs.enabled()) return;
  switch (v) {
    case Verdict::kConnected: obs.verdict_connected->inc(); break;
    case Verdict::kNegative: obs.verdict_negative->inc(); break;
    case Verdict::kInconclusive: obs.verdict_inconclusive->inc(); break;
  }
}

void tally_verdicts(const ProbeObs& obs, const ParallelResult& res) {
  for (Verdict v : res.verdicts) count_verdict(obs, v);
}

/// One step of the TopoShot protocol: timed into a `probe.phase.*`
/// histogram and recorded as a span under the tracer's current scope
/// (either may be off).
class ProbePhase {
 public:
  ProbePhase(obs::Histogram* hist, obs::SpanTracer* tracer, obs::SpanKind kind,
             const sim::Simulator& sim, uint64_t a, uint64_t b)
      : timer_(hist, sim),
        tracer_(tracer),
        sim_(sim),
        span_(tracer != nullptr ? tracer->open_auto(kind, sim.now(), a, b) : 0) {}
  ~ProbePhase() {
    if (tracer_ != nullptr) tracer_->close(span_, sim_.now());
  }

 private:
  ScopedPhase timer_;
  obs::SpanTracer* tracer_;
  const sim::Simulator& sim_;
  uint64_t span_;
};

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

ProbeObs ProbeObs::wire(obs::MetricsRegistry& reg) {
  ProbeObs o;
  o.runs = &reg.counter("probe.runs");
  o.parallel_runs = &reg.counter("probe.parallel.runs");
  o.retries = &reg.counter("probe.retries");
  o.remeasures = &reg.counter("probe.remeasures");
  o.verdict_connected = &reg.counter("probe.verdicts.connected");
  o.verdict_negative = &reg.counter("probe.verdicts.negative");
  o.verdict_inconclusive = &reg.counter("probe.verdicts.inconclusive");
  o.flood_seconds = &reg.histogram("probe.phase.flood_seconds", obs::duration_bounds());
  o.wait_seconds = &reg.histogram("probe.phase.wait_seconds", obs::duration_bounds());
  o.plant_seconds = &reg.histogram("probe.phase.plant_seconds", obs::duration_bounds());
  o.detect_seconds = &reg.histogram("probe.phase.detect_seconds", obs::duration_bounds());
  o.link_seconds = &reg.histogram("probe.link_seconds", obs::duration_bounds());
  return o;
}

// ---------------------------------------------------------------------------
// MeasurementStrategy

OneLinkResult MeasurementStrategy::measure_pair(p2p::PeerId a, p2p::PeerId b) {
  const std::vector<p2p::PeerId> sources{a}, sinks{b};
  const std::vector<ParallelEdge> edges{{0, 0}};
  const ParallelResult r = measure_batch(sources, sinks, edges);
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

ParallelResult MeasurementStrategy::remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                                    const std::vector<p2p::PeerId>& sinks,
                                                    const std::vector<ParallelEdge>& edges) {
  if (obs_.enabled()) obs_.remeasures->inc(edges.size());
  return measure_batch(sources, sinks, edges);
}

// ---------------------------------------------------------------------------
// ToposhotStrategy

void ToposhotStrategy::evict(p2p::PeerId target, const MeasureConfig& cfg,
                             const std::vector<eth::Transaction>& flood) {
  auto& sim = net_.simulator();
  ProbePhase phase(obs_.flood_seconds, tracer_, obs::SpanKind::kEvictFlood, sim, target, 0);
  const auto it = flood_overrides_.find(target);
  if (it != flood_overrides_.end() && it->second > flood.size()) {
    m_.send_batch_to(target, craft_future_flood(accounts_, factory_, cfg, it->second));
  } else {
    m_.send_batch_to(target, flood);
  }
  sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
}

OneLinkResult ToposhotStrategy::measure_pair(p2p::PeerId a, p2p::PeerId b) {
  auto& sim = net_.simulator();
  uint64_t pair_span = 0;
  uint64_t prev_scope = 0;
  if (tracer_ != nullptr) {
    pair_span = tracer_->open_pair(sim.now(), a, b);
    prev_scope = tracer_->set_scope(pair_span);
  }

  OneLinkResult final_result;
  uint32_t attempts = 0;
  for (size_t rep = 0; rep < std::max<size_t>(1, config_.repetitions); ++rep) {
    if (rep > 0 && obs_.enabled()) obs_.retries->inc();
    OneLinkResult r = measure_once(a, b);
    ++attempts;
    if (rep == 0) {
      final_result = r;
    } else {
      // Union of positives; keep the latest diagnostics otherwise.
      r.connected = r.connected || final_result.connected;
      if (r.connected) {
        r.verdict = Verdict::kConnected;
        r.cause = obs::ProbeCause::kNone;
      }
      r.started_at = final_result.started_at;
      r.txs_sent += final_result.txs_sent;
      final_result = r;
    }
    if (final_result.connected) break;  // already positive, no need to repeat
  }

  // Bounded re-measurement of an inconclusive outcome: the probe state
  // never materialized (message loss, node fault), so nothing was learned
  // and another attempt — with fresh probe nonces, which each measure_once
  // gets for free — may still decide the link.
  uint32_t remeasured = 0;
  while (final_result.verdict == Verdict::kInconclusive &&
         remeasured < config_.inconclusive_retries) {
    ++remeasured;
    ++attempts;
    if (obs_.enabled()) obs_.remeasures->inc();
    OneLinkResult r = measure_once(a, b);
    r.started_at = final_result.started_at;
    r.txs_sent += final_result.txs_sent;
    final_result = r;
  }

  final_result.attempts = attempts;
  final_result.remeasured = remeasured;
  if (tracer_ != nullptr) {
    tracer_->close_pair(pair_span, sim.now(), span_verdict_code(final_result.verdict),
                        final_result.cause);
    tracer_->set_scope(prev_scope);
  }
  return final_result;
}

OneLinkResult ToposhotStrategy::measure_once(p2p::PeerId a, p2p::PeerId b) {
  auto& sim = net_.simulator();
  OneLinkResult result;
  result.started_at = sim.now();
  const uint64_t sent_before = m_.txs_sent();
  ScopedPhase whole_link(obs_.link_seconds, sim);
  if (obs_.enabled()) obs_.runs->inc();

  MeasureConfig cfg = config_;
  if (cfg.price_Y == 0) cfg.price_Y = estimate_price_Y(m_.view());

  // Step 1: plant txC through A and let it flood the network for X seconds.
  const eth::Address acct_c = accounts_.create_one();
  if (cost_ != nullptr) cost_->track_account(acct_c);
  const eth::Nonce nonce_c = accounts_.allocate_nonce(acct_c);
  const eth::Transaction tx_c = craft_tx(factory_, cfg, acct_c, nonce_c, cfg.price_txC());
  result.txc_hash = tx_c.hash();
  {
    ProbePhase phase(obs_.wait_seconds, tracer_, obs::SpanKind::kPlantTxC, sim, a, b);
    m_.send_to(a, tx_c);
    sim.run_until(sim.now() + cfg.wait_X);
  }

  // Step 2: evict txC on B with the future flood, then plant txB (same
  // sender+nonce as txC).
  const auto flood = craft_future_flood(accounts_, factory_, cfg, cfg.flood_Z);
  evict(b, cfg, flood);
  const eth::Transaction tx_b = craft_tx(factory_, cfg, acct_c, nonce_c, cfg.price_txB());
  result.txb_hash = tx_b.hash();
  {
    ProbePhase phase(obs_.plant_seconds, tracer_, obs::SpanKind::kPlantProbes, sim, b, 0);
    m_.send_to(b, tx_b);
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
  }

  // Step 3: the same on A, then plant txA.
  evict(a, cfg, flood);
  const eth::Transaction tx_a = craft_tx(factory_, cfg, acct_c, nonce_c, cfg.price_txA());
  result.txa_hash = tx_a.hash();
  double txa_sent_at = 0.0;
  {
    ProbePhase phase(nullptr, tracer_, obs::SpanKind::kPlantProbes, sim, a, 0);
    txa_sent_at = m_.send_to(a, tx_a);
  }

  // Step 4: wait for propagation, then check arrival of txA from B alone.
  {
    ProbePhase phase(obs_.detect_seconds, tracer_, obs::SpanKind::kObserve, sim, a, b);
    sim.run_until(sim.now() + cfg.detect_wait);
  }
  result.connected = m_.received_only_from(result.txa_hash, b, txa_sent_at);

  // Simulated-RPC diagnostics (§6.1's eth_getTransactionByHash checks).
  const mempool::Mempool& pool_a = net_.node(a).pool();
  const mempool::Mempool& pool_b = net_.node(b).pool();
  result.txc_evicted_on_a = !pool_a.contains(result.txc_hash);
  result.txc_evicted_on_b = !pool_b.contains(result.txc_hash);
  result.txa_planted_on_a = pool_a.contains(result.txa_hash);
  result.txb_planted_on_b = pool_b.contains(result.txb_hash) || pool_b.contains(result.txa_hash);
  std::tie(result.verdict, result.cause) = classify_probe(
      result.connected, result.txa_planted_on_a, result.txb_planted_on_b,
      result.txc_evicted_on_b, net_.node(a).unresponsive() || net_.node(b).unresponsive());
  count_verdict(obs_, result.verdict);

  result.finished_at = sim.now();
  result.txs_sent = m_.txs_sent() - sent_before;
  return result;
}

ParallelResult ToposhotStrategy::measure_batch(const std::vector<p2p::PeerId>& sources,
                                               const std::vector<p2p::PeerId>& sinks,
                                               const std::vector<ParallelEdge>& edges) {
  ParallelResult result = measure_once(sources, sinks, edges);
  for (size_t rep = 1; rep < std::max<size_t>(1, config_.repetitions); ++rep) {
    if (std::all_of(result.connected.begin(), result.connected.end(),
                    [](bool b) { return b; })) {
      break;
    }
    if (obs_.enabled()) obs_.retries->inc();
    const ParallelResult next = measure_once(sources, sinks, edges);
    for (size_t i = 0; i < result.connected.size(); ++i) {
      result.connected[i] = result.connected[i] || next.connected[i];
      result.txa_planted[i] = result.txa_planted[i] || next.txa_planted[i];
      result.verdicts[i] = result.connected[i] ? Verdict::kConnected : next.verdicts[i];
      result.causes[i] = result.connected[i] ? obs::ProbeCause::kNone : next.causes[i];
      ++result.attempts[i];
    }
    result.finished_at = next.finished_at;
    result.txs_sent += next.txs_sent;
  }
  return result;
}

ParallelResult ToposhotStrategy::measure_once(const std::vector<p2p::PeerId>& sources,
                                              const std::vector<p2p::PeerId>& sinks,
                                              const std::vector<ParallelEdge>& edges) {
  auto& sim = net_.simulator();
  ParallelResult result;
  result.started_at = sim.now();
  const uint64_t sent_before = m_.txs_sent();
  const size_t r = edges.size();
  result.connected.assign(r, false);
  result.txa_planted.assign(r, false);
  result.verdicts.assign(r, Verdict::kNegative);
  result.attempts.assign(r, 1);
  result.causes.assign(r, obs::ProbeCause::kNone);
  if (r == 0) return result;
  if (obs_.enabled()) obs_.parallel_runs->inc();

  MeasureConfig cfg = config_;
  if (cfg.price_Y == 0) cfg.price_Y = estimate_price_Y(m_.view());

  // p1: one EOA per edge; plant txC_i through its source and let all of
  // them flood for X seconds.
  std::vector<eth::Address> edge_accounts(r);
  std::vector<eth::Transaction> tx_c(r);
  std::vector<eth::Transaction> tx_a(r);
  std::vector<eth::Transaction> tx_b(r);
  for (size_t i = 0; i < r; ++i) {
    edge_accounts[i] = accounts_.create_one();
    if (cost_ != nullptr) cost_->track_account(edge_accounts[i]);
    const eth::Nonce nonce = accounts_.allocate_nonce(edge_accounts[i]);
    tx_c[i] = craft_tx(factory_, cfg, edge_accounts[i], nonce, cfg.price_txC());
    tx_a[i] = craft_tx(factory_, cfg, edge_accounts[i], nonce, cfg.price_txA());
    tx_b[i] = craft_tx(factory_, cfg, edge_accounts[i], nonce, cfg.price_txB());
    m_.send_to(sources[edges[i].source], tx_c[i]);
  }
  {
    ProbePhase phase(obs_.wait_seconds, tracer_, obs::SpanKind::kPlantTxC, sim, r, 0);
    sim.run_until(m_.send_backlog_until() + cfg.wait_X);
  }

  const auto flood = craft_future_flood(accounts_, factory_, cfg, cfg.flood_Z);

  // Sink phase: strictly one sink at a time — flood, wait out queue
  // truncation, then deliver the payload (txB for its own edges, txC
  // replants otherwise). Sequencing matters: while a sink sits in its
  // evicted window it must be the *only* node without the txC shields, so
  // a txB propagating from it meets an intact txC everywhere else and
  // cannot leak into a concurrently evicted sink.
  for (size_t l = 0; l < sinks.size(); ++l) {
    evict(sinks[l], cfg, flood);
    ProbePhase phase(obs_.plant_seconds, tracer_, obs::SpanKind::kPlantProbes, sim, sinks[l], 0);
    for (size_t i = 0; i < r; ++i) {
      m_.send_to(sinks[l], edges[i].sink == l ? tx_b[i] : tx_c[i]);
    }
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
  }

  // Source phase: strictly one source at a time (see the class note).
  std::vector<double> txa_sent_at(r, 0.0);
  for (size_t k = 0; k < sources.size(); ++k) {
    evict(sources[k], cfg, flood);
    ProbePhase phase(obs_.plant_seconds, tracer_, obs::SpanKind::kPlantProbes, sim, sources[k],
                     0);
    for (size_t i = 0; i < r; ++i) {
      if (edges[i].source != k) m_.send_to(sources[k], tx_c[i]);
    }
    for (size_t i = 0; i < r; ++i) {
      if (edges[i].source == k) txa_sent_at[i] = m_.send_to(sources[k], tx_a[i]);
    }
    // Let this source's txA settle (and propagate) before touching the next
    // source, so other sources still hold txC_i when txA_i arrives.
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
  }

  // p4: detect.
  {
    ProbePhase phase(obs_.detect_seconds, tracer_, obs::SpanKind::kObserve, sim, r, 0);
    sim.run_until(sim.now() + cfg.detect_wait);
  }
  for (size_t i = 0; i < r; ++i) {
    const p2p::Node& source = net_.node(sources[edges[i].source]);
    const p2p::Node& sink = net_.node(sinks[edges[i].sink]);
    result.connected[i] =
        m_.received_only_from(tx_a[i].hash(), sinks[edges[i].sink], txa_sent_at[i]);
    result.txa_planted[i] = source.pool().contains(tx_a[i].hash());
    const bool payload_on_sink =
        sink.pool().contains(tx_b[i].hash()) || sink.pool().contains(tx_a[i].hash());
    std::tie(result.verdicts[i], result.causes[i]) = classify_probe(
        result.connected[i], result.txa_planted[i], payload_on_sink,
        !sink.pool().contains(tx_c[i].hash()), source.unresponsive() || sink.unresponsive());
    count_verdict(obs_, result.verdicts[i]);
  }

  result.finished_at = sim.now();
  result.txs_sent = m_.txs_sent() - sent_before;
  return result;
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

}  // namespace topo::core
