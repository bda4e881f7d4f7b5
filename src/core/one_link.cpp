#include "core/one_link.h"

#include <algorithm>

#include "core/flood.h"
#include "core/gas_estimator.h"
#include "p2p/node.h"

namespace topo::core {

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

OneLinkMeasurement::OneLinkMeasurement(p2p::Network& net, p2p::MeasurementNode& m,
                                       eth::AccountManager& accounts, eth::TxFactory& factory,
                                       MeasureConfig config)
    : net_(net), m_(m), accounts_(accounts), factory_(factory), config_(config) {}

std::vector<eth::Transaction> OneLinkMeasurement::make_flood(const MeasureConfig& cfg) {
  return craft_future_flood(accounts_, factory_, cfg, cfg.flood_Z);
}

OneLinkResult OneLinkMeasurement::measure(p2p::PeerId a, p2p::PeerId b) {
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
      // Union of positives (§5.2.3 passive recall booster); keep the latest
      // diagnostics otherwise.
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

OneLinkResult OneLinkMeasurement::measure_once(p2p::PeerId a, p2p::PeerId b) {
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
  const uint64_t span_txc =
      tracer_ != nullptr ? tracer_->open_auto(obs::SpanKind::kPlantTxC, sim.now(), a, b) : 0;
  m_.send_to(a, tx_c);
  {
    ScopedPhase phase(obs_.wait_seconds, sim);
    sim.run_until(sim.now() + cfg.wait_X);
  }
  if (tracer_ != nullptr) tracer_->close(span_txc, sim.now());

  // Step 2: evict txC on B with the future flood, wait out the deferred
  // queue truncation, then plant txB (same sender+nonce as txC).
  const auto flood = make_flood(cfg);
  {
    ScopedPhase phase(obs_.flood_seconds, sim);
    const uint64_t span =
        tracer_ != nullptr ? tracer_->open_auto(obs::SpanKind::kEvictFlood, sim.now(), b, 0) : 0;
    m_.send_batch_to(b, flood);
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }
  const eth::Transaction tx_b = craft_tx(factory_, cfg, acct_c, nonce_c, cfg.price_txB());
  result.txb_hash = tx_b.hash();
  {
    ScopedPhase phase(obs_.plant_seconds, sim);
    const uint64_t span =
        tracer_ != nullptr ? tracer_->open_auto(obs::SpanKind::kPlantProbes, sim.now(), b, 0) : 0;
    m_.send_to(b, tx_b);
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }

  // Step 3: the same on A, then plant txA.
  {
    ScopedPhase phase(obs_.flood_seconds, sim);
    const uint64_t span =
        tracer_ != nullptr ? tracer_->open_auto(obs::SpanKind::kEvictFlood, sim.now(), a, 0) : 0;
    m_.send_batch_to(a, flood);
    sim.run_until(m_.send_backlog_until() + cfg.post_flood_gap);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }
  const eth::Transaction tx_a = craft_tx(factory_, cfg, acct_c, nonce_c, cfg.price_txA());
  result.txa_hash = tx_a.hash();
  const uint64_t span_txa =
      tracer_ != nullptr ? tracer_->open_auto(obs::SpanKind::kPlantProbes, sim.now(), a, 0) : 0;
  const double txa_sent_at = m_.send_to(a, tx_a);
  if (tracer_ != nullptr) tracer_->close(span_txa, sim.now());

  // Step 4: wait for propagation, then check arrival of txA from B.
  {
    ScopedPhase phase(obs_.detect_seconds, sim);
    const uint64_t span =
        tracer_ != nullptr ? tracer_->open_auto(obs::SpanKind::kObserve, sim.now(), a, b) : 0;
    sim.run_until(sim.now() + cfg.detect_wait);
    if (tracer_ != nullptr) tracer_->close(span, sim.now());
  }
  result.connected =
      cfg.strict_isolation_check
          ? m_.received_only_from(result.txa_hash, b, txa_sent_at)
          : m_.received_from_since(result.txa_hash, b, txa_sent_at);

  // Simulated-RPC diagnostics (§6.1's eth_getTransactionByHash checks).
  result.txc_evicted_on_a = !net_.node(a).pool().contains(result.txc_hash);
  result.txc_evicted_on_b = !net_.node(b).pool().contains(result.txc_hash);
  result.txa_planted_on_a = net_.node(a).pool().contains(result.txa_hash);
  result.txb_planted_on_b = net_.node(b).pool().contains(result.txb_hash) ||
                            net_.node(b).pool().contains(result.txa_hash);

  // Verdict classification: a negative only counts when the probe state
  // actually existed — txA on A, the payload on B, txC evicted on B.
  // Anything else means the probe never ran to completion (inconclusive),
  // and the cause names the earliest broken protocol step (offline nodes
  // first: a crashed endpoint explains every downstream failure).
  if (result.connected) {
    result.verdict = Verdict::kConnected;
    result.cause = obs::ProbeCause::kNone;
  } else if (!result.txa_planted_on_a || !result.txb_planted_on_b || !result.txc_evicted_on_b) {
    result.verdict = Verdict::kInconclusive;
    if (net_.node(a).unresponsive() || net_.node(b).unresponsive()) {
      result.cause = obs::ProbeCause::kNodeOffline;
    } else if (!result.txc_evicted_on_b) {
      result.cause = obs::ProbeCause::kTxCNotEvicted;
    } else if (!result.txb_planted_on_b) {
      result.cause = obs::ProbeCause::kPayloadNotPlanted;
    } else {
      result.cause = obs::ProbeCause::kTxANotPlanted;
    }
  } else {
    result.verdict = Verdict::kNegative;
    result.cause = obs::ProbeCause::kTxANeverReturned;
  }
  if (obs_.enabled()) {
    (result.verdict == Verdict::kConnected
         ? obs_.verdict_connected
         : result.verdict == Verdict::kNegative ? obs_.verdict_negative
                                                : obs_.verdict_inconclusive)
        ->inc();
  }

  result.finished_at = sim.now();
  result.txs_sent = m_.txs_sent() - sent_before;
  return result;
}

}  // namespace topo::core
