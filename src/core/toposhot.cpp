#include "core/toposhot.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "p2p/node.h"

namespace topo::core {

namespace {

mempool::MempoolPolicy scaled_policy(const ScenarioOptions& opt, mempool::ClientKind client) {
  mempool::MempoolPolicy p = mempool::profile_for(client).policy;
  if (opt.mempool_capacity > 0) {
    // Scale the pending-count eviction gate with the capacity (Parity's
    // P = 2000 of L = 8192 stays the same *fraction* of a scaled pool).
    if (p.min_pending_for_eviction > 0 && p.capacity > 0) {
      p.min_pending_for_eviction =
          p.min_pending_for_eviction * opt.mempool_capacity / p.capacity;
    }
    p.capacity = opt.mempool_capacity;
  }
  if (opt.future_cap > 0) p.future_cap = opt.future_cap;
  if (opt.expiry_override > 0.0) p.expiry_seconds = opt.expiry_override;
  p.victim = opt.eviction_victim;
  return p;
}

}  // namespace

Scenario::Scenario(const graph::Graph& topology, ScenarioOptions options)
    : options_(options), truth_(topology), rng_(options.seed) {
  // Validate against the *effective* policy: mempool_capacity = 0 means the
  // client stock capacity, so the raw option values cannot be compared
  // directly.
  const mempool::MempoolPolicy effective = scaled_policy(options_, options_.client);
  if (options_.background_txs > effective.capacity) {
    throw std::invalid_argument(
        "ScenarioOptions: background_txs (" + std::to_string(options_.background_txs) +
        ") exceeds the effective mempool capacity (" + std::to_string(effective.capacity) +
        "); background seeding would evict itself");
  }
  if (effective.future_cap > effective.capacity) {
    throw std::invalid_argument(
        "ScenarioOptions: future_cap (" + std::to_string(effective.future_cap) +
        ") exceeds the effective mempool capacity (" + std::to_string(effective.capacity) +
        "); the future flood could never fill the pool");
  }

  sim_ = std::make_unique<sim::Simulator>();
  chain_ = std::make_unique<eth::Chain>(options_.block_gas_limit, options_.initial_base_fee);
  net_ = std::make_unique<p2p::Network>(
      sim_.get(), chain_.get(), rng_.split(),
      sim::LatencyModel::lognormal(options_.latency_median, options_.latency_sigma));
  net_->enable_metrics(metrics_);

  util::Rng het = rng_.split();
  p2p::NodeConfig base_cfg;
  base_cfg.client = options_.client;
  base_cfg.policy_override = scaled_policy(options_, options_.client);
  base_cfg.maintenance_interval = options_.maintenance_interval;
  base_cfg.regossip_interval = options_.regossip_interval;
  base_cfg.use_announcements = options_.use_announcements;
  const bool homogeneous = options_.custom_mempool_fraction <= 0.0 &&
                           options_.custom_bump_fraction <= 0.0 &&
                           options_.nonforwarding_fraction <= 0.0;
  if (homogeneous) {
    // The bulk path sharded-campaign replicas take; byte-identical to the
    // per-node loop below (chance(0) draws nothing from `het`).
    targets_ = net_->populate(topology, base_cfg);
  } else {
    for (size_t i = 0; i < topology.num_nodes(); ++i) {
      p2p::NodeConfig cfg = base_cfg;
      mempool::MempoolPolicy policy = *cfg.policy_override;
      if (het.chance(options_.custom_mempool_fraction))
        policy.capacity = options_.custom_capacity;
      if (het.chance(options_.custom_bump_fraction))
        policy.replace_bump_bp = options_.custom_bump_bp;
      cfg.policy_override = policy;
      cfg.forwards_transactions = !het.chance(options_.nonforwarding_fraction);
      targets_.push_back(net_->add_node(cfg));
    }
    for (const auto& [u, v] : topology.edges()) net_->connect(targets_[u], targets_[v]);
  }

  // M's passive view runs the same (scaled) pool policy as the network, so
  // the §5.2.1 median-price estimator tracks the live fee market.
  m_ = std::make_unique<p2p::MeasurementNode>(net_.get(), chain_.get(), options_.send_spacing,
                                              scaled_policy(options_, options_.client));
  net_->register_peer(m_.get());
  m_->connect_to_all();
  m_->set_metrics(metrics_);
}

obs::MetricsSnapshot Scenario::snapshot_metrics() {
  metrics_.gauge("sim.now_seconds").set(sim_->now());
  metrics_.gauge("sim.events_processed").set(static_cast<double>(sim_->processed()));
  metrics_.gauge("sim.queue_depth").set(static_cast<double>(sim_->queued()));
  metrics_.gauge("sim.queue_high_water").set(static_cast<double>(sim_->queue_high_water()));
  // Per-kind dispatch counters: the event-mix fingerprint of the run
  // (the tier-1 expectations in tests/expected/ pin it byte for byte).
  const auto& dispatched = sim_->dispatch_counts();
  for (size_t k = 0; k < sim::kNumEventKinds; ++k) {
    metrics_.gauge(std::string("sim.dispatch.") +
                   sim::event_kind_name(static_cast<sim::EventKind>(k)))
        .set(static_cast<double>(dispatched[k]));
  }
  // Timing-wheel internals: deterministic, but a forked world rebuilds its
  // queue by re-pushing the captured events, so they are NOT comparable
  // between forked and rebuilt worlds — determinism checks strip the
  // sim.queue.impl.* prefix there.
  const sim::EventQueue::Stats& qs = sim_->queue_stats();
  metrics_.gauge("sim.queue.impl.l1_cascades").set(static_cast<double>(qs.l1_cascades));
  metrics_.gauge("sim.queue.impl.overflow_cascaded")
      .set(static_cast<double>(qs.overflow_cascaded));
  metrics_.gauge("sim.queue.impl.overflow_rebuilds")
      .set(static_cast<double>(qs.overflow_rebuilds));
  metrics_.gauge("sim.queue.impl.due_peak").set(static_cast<double>(qs.due_peak));
  metrics_.gauge("sim.queue.impl.overflow_peak").set(static_cast<double>(qs.overflow_peak));
  // Payload-arena high water: most full-tx payloads simultaneously in
  // flight (one slot per pending kDeliverTx), reset per fork.
  metrics_.gauge("net.arena_peak").set(static_cast<double>(net_->arena().peak()));
  // Cumulative "everything so far" reads: the window convention is
  // half-open [t1, t2), so a block stamped exactly at now() would be
  // excluded by an upper bound of now() — pass +infinity instead.
  const double upper = std::numeric_limits<double>::infinity();
  metrics_.gauge("cost.wei_spent")
      .set(static_cast<double>(costs_.wei_spent(*chain_, 0.0, upper)));
  metrics_.gauge("cost.tracked_accounts").set(static_cast<double>(costs_.tracked_accounts()));
  metrics_.gauge("cost.txs_included")
      .set(static_cast<double>(costs_.included_txs(*chain_, 0.0, upper)));
  return metrics_.snapshot();
}

Scenario::~Scenario() = default;

WorldSnapshot Scenario::snapshot() const {
  WorldSnapshot w;
  w.options = options_;
  w.truth = truth_;
  w.targets = targets_;
  w.rng = rng_;
  w.organic_on = organic_on_;
  w.organic_rate = organic_rate_;

  w.now = sim_->now();
  w.events_processed = sim_->processed();
  w.queue_high_water = sim_->queue_high_water();
  w.dispatched = sim_->dispatch_counts();

  // Translate each pending event's sink pointer to symbolic form — the raw
  // pointers die with this world; the fork resolves the symbols against its
  // own objects.
  using Sink = WorldSnapshot::PendingEvent::Sink;
  std::unordered_map<const sim::EventSink*, std::pair<Sink, p2p::PeerId>> symbol_of{
      {net_.get(), {Sink::kNetwork, 0}}, {this, {Sink::kScenario, 0}}};
  for (p2p::PeerId id : net_->regular_nodes()) symbol_of[&net_->node(id)] = {Sink::kNode, id};
  const auto pending = sim_->pending_snapshot();
  w.pending.reserve(pending.size());
  for (const auto& sch : pending) {
    const auto it = symbol_of.find(sch.ev.sink);
    if (it == symbol_of.end()) {
      throw std::logic_error(
          "Scenario::snapshot: pending event targets a sink outside this "
          "world (external driver or fault injector still running?)");
    }
    WorldSnapshot::PendingEvent pe{sch.t, it->second.first, it->second.second, sch.ev};
    pe.ev.sink = nullptr;
    w.pending.push_back(pe);
  }

  w.chain = chain_->snapshot();
  w.net = net_->snapshot();
  w.m_id = m_->id();
  w.m = m_->snapshot();

  w.accounts = accounts_;
  w.factory = factory_;
  w.costs = costs_;

  w.metrics = metrics_.snapshot();
  return w;
}

Scenario::Scenario(const WorldSnapshot& snap)
    : options_(snap.options),
      truth_(snap.truth),
      rng_(snap.rng),
      accounts_(snap.accounts),
      factory_(snap.factory),
      costs_(snap.costs),
      targets_(snap.targets),
      organic_on_(snap.organic_on),
      organic_rate_(snap.organic_rate) {
  metrics_.restore(snap.metrics);

  sim_ = std::make_unique<sim::Simulator>();
  chain_ = std::make_unique<eth::Chain>(options_.block_gas_limit, options_.initial_base_fee);
  chain_->restore(snap.chain);

  // The network RNG rides in the snapshot (restore overwrites the seed
  // passed here); restore() rebuilds the regular nodes without start() or
  // connect() side effects — the warmed world's ticks are re-pushed below.
  net_ = std::make_unique<p2p::Network>(
      sim_.get(), chain_.get(), util::Rng(0),
      sim::LatencyModel::lognormal(options_.latency_median, options_.latency_sigma));
  net_->enable_metrics(metrics_);
  net_->restore(snap.net);

  m_ = std::make_unique<p2p::MeasurementNode>(net_.get(), chain_.get(), options_.send_spacing,
                                              scaled_policy(options_, options_.client));
  net_->rebind_external(snap.m_id, m_.get());
  m_->restore(snap.m);
  m_->set_metrics(metrics_);

  // Re-push the captured events in the source's pop order (schedule_at
  // clamps t against now_ = 0; every captured t >= 0, so timestamps
  // survive intact). Fresh sequence numbers in that order reproduce the
  // source's (t, seq) order, and every later schedule sorts after them,
  // as it would have in the source.
  using Sink = WorldSnapshot::PendingEvent::Sink;
  for (const auto& pe : snap.pending) {
    sim::Event ev = pe.ev;
    ev.sink = pe.sink == Sink::kNetwork ? net_.get()
              : pe.sink == Sink::kNode  ? static_cast<sim::EventSink*>(&net_->node(pe.node))
                                        : this;
    sim_->schedule_at(pe.t, ev);
  }
  sim_->restore_state(snap.now, snap.events_processed, snap.queue_high_water, snap.dispatched);

  // Peak telemetry is per-world: a replica starts its high-water gauge
  // from the restored level, exactly like a freshly rebuilt world whose
  // warm phase leaves no payloads in flight.
  net_->arena().reset_peak();
  metrics_.gauge("net.arena_peak").restore(0.0, 0.0);
}

std::unique_ptr<Scenario> Scenario::fork(const WorldSnapshot& snap) {
  return std::unique_ptr<Scenario>(new Scenario(snap));
}

void Scenario::reseed(uint64_t seed) {
  rng_ = util::Rng(seed);
  net_->set_rng(rng_.split());
}

eth::Wei Scenario::sample_organic_price() {
  // Log-uniform prices give a realistic fee spread around the median.
  const double lo = static_cast<double>(options_.background_price_lo);
  const double hi = static_cast<double>(
      std::max(options_.background_price_hi, options_.background_price_lo + 1));
  const double u = rng_.uniform();
  return static_cast<eth::Wei>(std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo))));
}

void Scenario::seed_background() {
  std::vector<eth::Transaction> background;
  background.reserve(options_.background_txs);
  for (size_t i = 0; i < options_.background_txs; ++i) {
    const eth::Address a = accounts_.create_one();
    background.push_back(factory_.make(a, accounts_.allocate_nonce(a), sample_organic_price()));
  }
  net_->seed_mempools(background);
  // Mirror the background into M's passive view so Y estimation works.
  const double now = sim_->now();
  for (const auto& tx : background) m_->view().add(tx, now);
  sim_->run_until(sim_->now() + 1.0);
}

void Scenario::start_organic_traffic(double rate_per_sec) {
  if (rate_per_sec <= 0.0 || targets_.empty()) return;
  organic_on_ = true;
  organic_rate_ = rate_per_sec;
  sim_->schedule_after(rng_.exponential(1.0 / rate_per_sec),
                       sim::Event::typed(sim::EventKind::kCampaignStep, this));
}

void Scenario::on_event(const sim::Event& ev) {
  if (ev.kind != sim::EventKind::kCampaignStep || !organic_on_) return;
  const eth::Address a = accounts_.create_one();
  const auto tx = factory_.make(a, accounts_.allocate_nonce(a), sample_organic_price());
  net_->node(targets_[rng_.index(targets_.size())]).submit(tx);
  sim_->schedule_after(rng_.exponential(1.0 / organic_rate_), ev);
}

p2p::PeerId Scenario::start_churn(double organic_rate, double block_interval,
                                  size_t miner_links) {
  p2p::NodeConfig cfg;
  cfg.client = options_.client;
  cfg.policy_override = scaled_policy(options_, options_.client);
  cfg.maintenance_interval = options_.maintenance_interval;
  const p2p::PeerId miner = net_->add_node(cfg);
  // Wire the miner into the overlay (it is not a measurement target).
  const size_t links = std::min(miner_links, targets_.size());
  for (size_t idx : rng_.sample_indices(targets_.size(), links)) {
    net_->connect(miner, targets_[idx]);
  }
  net_->connect(m_->id(), miner);
  // Give the miner the same background snapshot the rest of the network
  // was seeded with would be ideal; organic traffic fills it quickly, and
  // neighbors gossip their pools on connect.
  net_->start_mining({miner}, block_interval);
  start_organic_traffic(organic_rate);
  return miner;
}

MeasureConfig Scenario::default_measure_config() const {
  MeasureConfig cfg;
  const auto& profile = mempool::profile_for(options_.client);
  cfg.bump_bp = profile.policy.replace_bump_bp;
  const mempool::MempoolPolicy p = scaled_policy(options_, options_.client);
  cfg.flood_Z = p.capacity;
  cfg.futures_per_account_U = std::min<uint64_t>(profile.policy.max_futures_per_account,
                                                 p.capacity);
  cfg.post_flood_gap = options_.maintenance_interval * 2.0 + 0.2;
  cfg.price_Y = 0;  // estimate from M's view
  return cfg;
}

std::unique_ptr<MeasurementStrategy> Scenario::make_strategy(StrategyKind kind,
                                                             const MeasureConfig& cfg) {
  std::unique_ptr<MeasurementStrategy> strat;
  if (kind == StrategyKind::kDethna) {
    strat = std::make_unique<DethnaStrategy>(*net_, *m_, accounts_, factory_, cfg);
  } else if (kind == StrategyKind::kTxprobe) {
    strat = std::make_unique<TxProbeStrategy>(*net_, *m_, accounts_, factory_, cfg);
  } else {
    strat = std::make_unique<ToposhotStrategy>(*net_, *m_, accounts_, factory_, cfg);
  }
  strat->set_cost_tracker(&costs_);
  strat->set_metrics(&metrics_);
  strat->set_tracer(tracer_);
  return strat;
}

}  // namespace topo::core
