#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/cost.h"
#include "core/preprocess.h"
#include "core/schedule.h"
#include "core/strategy.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "p2p/measurement_node.h"
#include "p2p/network.h"

namespace topo::core {

/// Knobs of a simulated measurement scenario. Mempool sizes default to a
/// 10x-scaled-down Geth (L=512) so network-scale benches stay fast; the
/// local-validation benches override back to the full 5120 (DESIGN.md §2).
struct ScenarioOptions {
  uint64_t seed = 42;
  mempool::ClientKind client = mempool::ClientKind::kGeth;

  // Scaled mempool geometry applied to every node (0 = client stock value).
  size_t mempool_capacity = 512;
  size_t future_cap = 128;

  double maintenance_interval = 0.5;
  double regossip_interval = 0.0;  ///< txC re-propagation race source; 0 = off
  bool use_announcements = false;

  /// Eviction victim policy applied to every node (ablation, DESIGN.md §5).
  mempool::EvictionVictim eviction_victim = mempool::EvictionVictim::kLowestPriceGlobal;

  /// Override for the unconfirmed-transaction lifetime `e` (seconds);
  /// 0 keeps the client default (3 h for Geth).
  double expiry_override = 0.0;

  /// Background transactions seeded into every pool (the paper's trick of
  /// populating underloaded testnets, §6.2.1). Should be <= capacity.
  size_t background_txs = 384;
  eth::Wei background_price_lo = eth::gwei(0.02);
  eth::Wei background_price_hi = eth::gwei(2.0);

  /// Heterogeneity — the three recall culprits of §6.1.
  double custom_mempool_fraction = 0.0;  ///< nodes with `custom_capacity`
  size_t custom_capacity = 1024;
  double custom_bump_fraction = 0.0;  ///< nodes with a larger bump R
  uint32_t custom_bump_bp = 2500;
  double nonforwarding_fraction = 0.0;  ///< nodes that never forward

  /// Measurement node pacing (tx/s = 1/spacing).
  double send_spacing = 1e-4;

  double latency_median = 0.05;
  double latency_sigma = 0.4;

  uint64_t block_gas_limit = 8'000'000;
  eth::Wei initial_base_fee = 0;  ///< nonzero enables EIP-1559
};

/// A frozen, self-contained image of a warmed measurement world
/// (Scenario::snapshot). Bulk state — chain blocks, every node's mempool
/// pages, M's passive view — rides behind copy-on-write handles, so a
/// snapshot costs O(nodes) handle copies, not O(world) deep copies, and a
/// fork only pays for the pages it later dirties.
///
/// Pending simulator events are captured with their sinks translated to
/// symbolic form (raw sink pointers die with the source world) and
/// re-pushed into the replica's queue on fork — link-churn ticks included,
/// so a world forks mid-churn. An event whose sink lives outside the world
/// (a fault::FaultInjector's outages and churn ticks) cannot be
/// translated; snapshot() throws std::logic_error if one is pending.
///
/// The snapshot outlives the scenario it was taken from: shared pages are
/// refcounted, so the base world may be destroyed and replicas forked from
/// the snapshot afterwards (how exec::run_sharded_campaign stamps out
/// per-shard worlds).
struct WorldSnapshot {
  /// One captured simulator event, sink in symbolic form. `pending` holds
  /// them in the source queue's pop order, and restore re-pushes them in
  /// that order, so equal-time events keep their relative order.
  struct PendingEvent {
    enum class Sink : uint8_t { kNetwork, kNode, kScenario };
    sim::Time t = 0.0;
    Sink sink = Sink::kNetwork;
    p2p::PeerId node = 0;  ///< kNode only
    sim::Event ev;         ///< sink pointer cleared; `sink` names it
  };

  ScenarioOptions options;
  graph::Graph truth;
  std::vector<p2p::PeerId> targets;
  util::Rng rng;
  bool organic_on = false;
  double organic_rate = 0.0;

  sim::Time now = 0.0;
  size_t events_processed = 0;
  size_t queue_high_water = 0;
  std::array<uint64_t, sim::kNumEventKinds> dispatched{};
  std::vector<PendingEvent> pending;

  eth::Chain::Snapshot chain;
  p2p::Network::Snapshot net;
  p2p::PeerId m_id = 0;
  p2p::MeasurementNode::Snapshot m;

  eth::AccountManager accounts;
  eth::TxFactory factory;
  CostTracker costs;

  obs::MetricsSnapshot metrics;
};

/// A fully wired measurement world: simulator + chain + network instantiated
/// from a ground-truth topology + measurement node M connected to everyone.
///
/// Every scenario carries a MetricsRegistry wired through the network,
/// mempools, and measurement node at construction; measurements driven
/// through it (or through a MeasurementSession) accumulate `mempool.*`,
/// `net.*`, and `probe.*` metrics for free.
class Scenario : public sim::EventSink {
 public:
  /// Throws std::invalid_argument when the options are inconsistent:
  /// background_txs or future_cap exceeding the *effective* (scaled)
  /// mempool capacity would silently break the eviction protocol.
  Scenario(const graph::Graph& topology, ScenarioOptions options);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  sim::Simulator& sim() { return *sim_; }
  eth::Chain& chain() { return *chain_; }
  p2p::Network& net() { return *net_; }
  p2p::MeasurementNode& m() { return *m_; }
  eth::AccountManager& accounts() { return accounts_; }
  eth::TxFactory& factory() { return factory_; }
  CostTracker& costs() { return costs_; }
  const ScenarioOptions& options() const { return options_; }

  /// The scenario-wide metrics registry (always on; handles are wired into
  /// the network and mempools at construction).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Publishes the point-in-time gauges (`sim.*`, `cost.*`, `net.*`, the
  /// per-kind `sim.dispatch.*` counters, and the timing-wheel
  /// `sim.queue.impl.*` internals) into the registry and returns a
  /// name-sorted snapshot of everything.
  obs::MetricsSnapshot snapshot_metrics();

  /// Attaches a causal span tracer (null detaches); forwarded into every
  /// measurement driver the scenario constructs. The tracer must outlive
  /// the scenario's measurement calls.
  void set_span_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

  /// Peer ids of the regular nodes, in ground-truth graph order.
  const std::vector<p2p::PeerId>& targets() const { return targets_; }

  /// The ground truth the scenario was built from.
  const graph::Graph& truth() const { return truth_; }

  /// Captures the whole world — chain, every pool, M's state, pending
  /// events, metrics — as a self-contained WorldSnapshot (O(dirty pages) to
  /// fork from; see WorldSnapshot). Throws std::logic_error if a pending
  /// event targets a sink outside this world (e.g. an installed
  /// fault::FaultInjector): it cannot be replayed into another world.
  WorldSnapshot snapshot() const;

  /// Stamps out a fresh, fully independent world from a snapshot. The
  /// replica shares unmodified bulk pages with the snapshot (copy-on-write)
  /// and behaves exactly as the snapshotted world would: running both from
  /// here with the same inputs produces byte-identical reports. Fork as
  /// many replicas as needed; they never observe each other.
  static std::unique_ptr<Scenario> fork(const WorldSnapshot& snap);

  /// Gives this world a fresh deterministic RNG identity (per-shard streams
  /// on top of a shared warmed base). Node RNGs keep their warmed state —
  /// the rebuild path reseeds at exactly the same point, so both paths stay
  /// byte-identical.
  void reseed(uint64_t seed);

  /// Fills every node's pool with the shared background set and lets the
  /// network settle for a moment.
  void seed_background();

  /// Starts Poisson organic traffic: fresh transactions at `rate_per_sec`,
  /// each submitted through a random node and propagated normally, priced
  /// log-uniformly like the background. Organic load is what erodes
  /// long-running measurements (the Fig 4b recall decline at large groups).
  void start_organic_traffic(double rate_per_sec);
  void stop_organic_traffic() { organic_on_ = false; }

  /// Typed-event dispatch: the self-rescheduling organic-traffic step.
  void on_event(const sim::Event& ev) override;

  /// Realistic live-network churn: organic traffic plus periodic mining by
  /// a *dedicated* miner node wired into the overlay but excluded from the
  /// measurement targets — like a real mining pool, its mempool is never
  /// flooded, so blocks only skim the expensive top of the fee market and
  /// residue from past probes drains away without touching live
  /// measurement state. Returns the miner's peer id.
  p2p::PeerId start_churn(double organic_rate, double block_interval = 13.0,
                          size_t miner_links = 8);

  /// MeasureConfig scaled to this scenario (Z = capacity, client R/U).
  MeasureConfig default_measure_config() const;

  /// Constructs the strategy for `kind` over this scenario's measurement
  /// world, fully wired (cost tracker, metrics registry, span tracer). The
  /// strategy borrows the scenario and must not outlive it; call
  /// strat->prepare(*this) on the warmed world (after seed_background),
  /// before measuring.
  std::unique_ptr<MeasurementStrategy> make_strategy(StrategyKind kind,
                                                     const MeasureConfig& cfg);

 private:
  /// Fork constructor (Scenario::fork): rebuilds a world image from a
  /// snapshot instead of constructing one from a topology.
  explicit Scenario(const WorldSnapshot& snap);

  ScenarioOptions options_;
  graph::Graph truth_;
  util::Rng rng_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<eth::Chain> chain_;
  std::unique_ptr<p2p::Network> net_;
  std::unique_ptr<p2p::MeasurementNode> m_;
  eth::AccountManager accounts_;
  eth::TxFactory factory_;
  CostTracker costs_;
  std::vector<p2p::PeerId> targets_;
  obs::SpanTracer* tracer_ = nullptr;
  bool organic_on_ = false;
  double organic_rate_ = 0.0;

  eth::Wei sample_organic_price();
};

}  // namespace topo::core
