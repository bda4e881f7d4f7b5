#include "core/parallel.h"

#include <algorithm>

#include "core/flood.h"
#include "core/gas_estimator.h"
#include "p2p/node.h"

namespace topo::core {

ParallelMeasurement::ParallelMeasurement(p2p::Network& net, p2p::MeasurementNode& m,
                                         eth::AccountManager& accounts, eth::TxFactory& factory,
                                         MeasureConfig config)
    : net_(net), m_(m), accounts_(accounts), factory_(factory), config_(config) {}

std::vector<eth::Transaction> ParallelMeasurement::make_flood(const MeasureConfig& cfg,
                                                              size_t z) {
  return craft_future_flood(accounts_, factory_, cfg, z);
}

size_t ParallelMeasurement::flood_z_for(p2p::PeerId target, const MeasureConfig& cfg) const {
  auto it = flood_overrides_.find(target);
  return it == flood_overrides_.end() ? cfg.flood_Z : std::max(cfg.flood_Z, it->second);
}

ParallelResult ParallelMeasurement::measure(const std::vector<p2p::PeerId>& sources,
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

ParallelResult ParallelMeasurement::remeasure(const std::vector<p2p::PeerId>& sources,
                                              const std::vector<p2p::PeerId>& sinks,
                                              const std::vector<ParallelEdge>& edges) {
  if (obs_.enabled()) obs_.remeasures->inc(edges.size());
  return measure(sources, sinks, edges);
}

ParallelResult ParallelMeasurement::measure_once(const std::vector<p2p::PeerId>& sources,
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
    ScopedPhase phase(obs_.wait_seconds, sim);
    const uint64_t span = tracer_ != nullptr
                              ? tracer_->open_auto(obs::SpanKind::kPlantTxC, sim.now(), r, 0)
                              : 0;
    sim.run_until(m_.send_backlog_until() + cfg.wait_X);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }

  const auto flood = make_flood(cfg, cfg.flood_Z);

  // Sink phase: strictly one sink at a time — flood, wait out queue
  // truncation, then deliver the payload (txB for its own edges, txC
  // replants otherwise). Sequencing matters: while a sink sits in its
  // evicted window it must be the *only* node without the txC shields, so
  // a txB propagating from it meets an intact txC everywhere else and
  // cannot leak into a concurrently evicted sink.
  for (size_t l = 0; l < sinks.size(); ++l) {
    {
      ScopedPhase phase(obs_.flood_seconds, sim);
      const uint64_t span =
          tracer_ != nullptr
              ? tracer_->open_auto(obs::SpanKind::kEvictFlood, sim.now(), sinks[l], 0)
              : 0;
      const size_t z = flood_z_for(sinks[l], cfg);
      if (z > flood.size()) {
        const auto big = make_flood(cfg, z);
        m_.send_batch_to(sinks[l], big);
      } else {
        m_.send_batch_to(sinks[l], flood);
      }
      sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
      if (tracer_ != nullptr) tracer_->close(span, sim.now());
    }
    ScopedPhase phase(obs_.plant_seconds, sim);
    const uint64_t span =
        tracer_ != nullptr
            ? tracer_->open_auto(obs::SpanKind::kPlantProbes, sim.now(), sinks[l], 0)
            : 0;
    for (size_t i = 0; i < r; ++i) {
      m_.send_to(sinks[l], edges[i].sink == l ? tx_b[i] : tx_c[i]);
    }
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }

  // Source phase: strictly one source at a time (see header note).
  std::vector<double> txa_sent_at(r, 0.0);
  for (size_t k = 0; k < sources.size(); ++k) {
    {
      ScopedPhase phase(obs_.flood_seconds, sim);
      const uint64_t span =
          tracer_ != nullptr
              ? tracer_->open_auto(obs::SpanKind::kEvictFlood, sim.now(), sources[k], 0)
              : 0;
      const size_t z = flood_z_for(sources[k], cfg);
      if (z > flood.size()) {
        const auto big = make_flood(cfg, z);
        m_.send_batch_to(sources[k], big);
      } else {
        m_.send_batch_to(sources[k], flood);
      }
      sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
      if (tracer_ != nullptr) tracer_->close(span, sim.now());
    }
    ScopedPhase phase(obs_.plant_seconds, sim);
    const uint64_t span =
        tracer_ != nullptr
            ? tracer_->open_auto(obs::SpanKind::kPlantProbes, sim.now(), sources[k], 0)
            : 0;
    for (size_t i = 0; i < r; ++i) {
      if (edges[i].source != k) m_.send_to(sources[k], tx_c[i]);
    }
    for (size_t i = 0; i < r; ++i) {
      if (edges[i].source == k) txa_sent_at[i] = m_.send_to(sources[k], tx_a[i]);
    }
    // Let this source's txA settle (and propagate) before touching the next
    // source, so other sources still hold txC_i when txA_i arrives.
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }

  // p4: detect.
  {
    ScopedPhase phase(obs_.detect_seconds, sim);
    const uint64_t span = tracer_ != nullptr
                              ? tracer_->open_auto(obs::SpanKind::kObserve, sim.now(), r, 0)
                              : 0;
    sim.run_until(sim.now() + cfg.detect_wait);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }
  for (size_t i = 0; i < r; ++i) {
    result.connected[i] =
        cfg.strict_isolation_check
            ? m_.received_only_from(tx_a[i].hash(), sinks[edges[i].sink], txa_sent_at[i])
            : m_.received_from_since(tx_a[i].hash(), sinks[edges[i].sink], txa_sent_at[i]);
    result.txa_planted[i] = net_.node(sources[edges[i].source]).pool().contains(tx_a[i].hash());
    // Verdict classification mirrors measureOneLink: a negative requires
    // the probe state to have existed — txA on the source, the payload
    // (txB, or txA having replaced it) on the sink, txC evicted there.
    const auto& sink_pool = net_.node(sinks[edges[i].sink]).pool();
    const bool payload_on_sink =
        sink_pool.contains(tx_b[i].hash()) || sink_pool.contains(tx_a[i].hash());
    const bool txc_evicted_on_sink = !sink_pool.contains(tx_c[i].hash());
    if (result.connected[i]) {
      result.verdicts[i] = Verdict::kConnected;
      result.causes[i] = obs::ProbeCause::kNone;
    } else if (!result.txa_planted[i] || !payload_on_sink || !txc_evicted_on_sink) {
      result.verdicts[i] = Verdict::kInconclusive;
      // Earliest broken protocol step wins; an offline endpoint explains
      // every downstream failure, so it is checked first.
      if (net_.node(sources[edges[i].source]).unresponsive() ||
          net_.node(sinks[edges[i].sink]).unresponsive()) {
        result.causes[i] = obs::ProbeCause::kNodeOffline;
      } else if (!txc_evicted_on_sink) {
        result.causes[i] = obs::ProbeCause::kTxCNotEvicted;
      } else if (!payload_on_sink) {
        result.causes[i] = obs::ProbeCause::kPayloadNotPlanted;
      } else {
        result.causes[i] = obs::ProbeCause::kTxANotPlanted;
      }
    } else {
      result.verdicts[i] = Verdict::kNegative;
      result.causes[i] = obs::ProbeCause::kTxANeverReturned;
    }
    if (obs_.enabled()) {
      (result.verdicts[i] == Verdict::kConnected
           ? obs_.verdict_connected
           : result.verdicts[i] == Verdict::kNegative ? obs_.verdict_negative
                                                      : obs_.verdict_inconclusive)
          ->inc();
    }
  }

  result.finished_at = sim.now();
  result.txs_sent = m_.txs_sent() - sent_before;
  return result;
}

}  // namespace topo::core
