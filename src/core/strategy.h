#pragma once

// The measurement-strategy seam: every topology-inference technique the
// repo can run — TopoShot's replacement-price ladder, DEthna's marked
// low-fee transactions, TxProbe's announcement blocking — implements the
// same per-pair / per-batch probe lifecycle, so the schedule drivers
// (core::run_batch / run_retry_pass / measure_all), the session
// facade (core::MeasurementSession), and the sharded campaign runner
// (exec::run_sharded_campaign) dispatch through one interface and every
// strategy inherits batching, retries, diagnostics, tracing, and report
// serialization for free.
//
// Ownership contract (see ARCHITECTURE.md "The strategy seam"):
//  - a strategy BORROWS the measurement world (network, measurement node,
//    accounts, tx factory) and advances the shared simulator from inside
//    measure_* — exactly like the raw drivers it replaces;
//  - prepare(Scenario&) is the only place a strategy may mutate scenario
//    state (node configs, calibration reads); it runs once per replica, on
//    the warmed world (after background seeding, before any measurement),
//    and must be deterministic. Campaigns fork replicas from a shared
//    warmed snapshot, so preparation must happen after the fork — never in
//    the shared prefix other replicas inherit;
//  - measure_* may create accounts and send transactions but must never
//    reconfigure nodes, so batches stay replayable on any world replica.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/cost.h"
#include "core/one_link.h"
#include "core/parallel.h"
#include "core/probe_obs.h"
#include "obs/span.h"
#include "p2p/measurement_node.h"
#include "p2p/network.h"

namespace topo::core {

class Scenario;

/// The strategies the seam can instantiate. kToposhot is the default and
/// the serialization baseline: reports omit the "strategy" field for it,
/// so default-strategy artifacts stay byte-identical to pre-seam builds.
enum class StrategyKind : uint8_t {
  kToposhot = 0,  ///< replacement-price ladder (the paper's protocol)
  kDethna = 1,    ///< marked low-fee transactions, announce-timing inference
  kTxprobe = 2,   ///< announcement-blocking isolation (fails on Ethereum, §4.1)
};

inline constexpr size_t kNumStrategies = 3;

/// Stable lowercase name ("toposhot" / "dethna" / "txprobe") — the report
/// field value and the --strategy flag vocabulary.
const char* strategy_name(StrategyKind k);

/// Strict inverse of strategy_name: false on any unknown name.
bool strategy_from_name(const std::string& name, StrategyKind& out);

/// Transaction-propagation regime applied to every regular node of a
/// scenario. Shared by bench/txprobe_comparison.cpp and TxProbeStrategy so
/// the bench's two modes and the strategy can never drift apart.
enum class PropagationMode {
  kAnnounceOnly,     ///< Bitcoin-style: hashes only, bodies by request
  kPushAndAnnounce,  ///< Geth >= 1.9.11: sqrt-push + hash announcement
};

/// Rewrites every target node's propagation flags to `mode`. Call before
/// seeding background traffic so the whole trajectory runs one regime.
void apply_propagation_mode(Scenario& sc, PropagationMode mode);

/// A topology-inference technique behind the measurement seam. Drivers
/// hold one and only talk through this interface; the concrete classes
/// below are constructed via make_strategy (or Scenario::make_strategy,
/// which also wires cost/metrics/tracing).
class MeasurementStrategy {
 public:
  virtual ~MeasurementStrategy() = default;

  virtual StrategyKind kind() const = 0;

  /// One-time scenario preparation (node-config mutation, calibration).
  /// Runs once per replica on the warmed world — after background seeding
  /// (campaigns fork replicas from a shared warmed snapshot and prepare
  /// each fork), before any measurement. Default: nothing. Must be
  /// deterministic and is the only member allowed to touch scenario state
  /// beyond the measurement world refs.
  virtual void prepare(Scenario& sc) { (void)sc; }

  /// Measures one candidate link A-B (the serial primitive).
  virtual OneLinkResult measure_pair(p2p::PeerId a, p2p::PeerId b) = 0;

  /// Measures a batch of candidate edges between `sources` and `sinks`
  /// (indices in ParallelEdge refer into those arrays). Every edge must
  /// come back with exactly one verdict and one cause.
  virtual ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
                                       const std::vector<p2p::PeerId>& sinks,
                                       const std::vector<ParallelEdge>& edges) = 0;

  /// Re-measures a batch a prior sweep left inconclusive (run_retry_pass).
  /// Default: a plain measure_batch; strategies with a cheaper or
  /// separately-tallied retry path override it.
  virtual ParallelResult remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                         const std::vector<p2p::PeerId>& sinks,
                                         const std::vector<ParallelEdge>& edges) {
    return measure_batch(sources, sinks, edges);
  }

  /// Per-target flood-size overrides from pre-processing (§5.2.3). Only
  /// meaningful for strategies that flood; others ignore it.
  virtual void set_flood_overrides(std::unordered_map<p2p::PeerId, size_t> overrides) {
    (void)overrides;
  }

  // Shared observability/config surface the schedule drivers rely on.
  virtual MeasureConfig& config() = 0;
  virtual const MeasureConfig& config() const = 0;
  virtual double now() const = 0;
  virtual obs::SpanTracer* tracer() const = 0;
  virtual void set_cost_tracker(CostTracker* tracker) = 0;
  virtual void set_metrics(obs::MetricsRegistry* reg) = 0;
  virtual void set_tracer(obs::SpanTracer* tracer) = 0;
};

/// Common context base for strategies that drive the measurement world
/// directly: borrowed world refs plus the cost/metrics/tracing wiring.
class StrategyBase : public MeasurementStrategy {
 public:
  StrategyBase(p2p::Network& net, p2p::MeasurementNode& m, eth::AccountManager& accounts,
               eth::TxFactory& factory, MeasureConfig config)
      : net_(net), m_(m), accounts_(accounts), factory_(factory), config_(config) {}

  MeasureConfig& config() override { return config_; }
  const MeasureConfig& config() const override { return config_; }
  double now() const override { return net_.simulator().now(); }
  obs::SpanTracer* tracer() const override { return tracer_; }
  void set_cost_tracker(CostTracker* tracker) override { cost_ = tracker; }
  void set_metrics(obs::MetricsRegistry* reg) override {
    metrics_ = reg;
    obs_ = reg != nullptr ? ProbeObs::wire(*reg) : ProbeObs{};
  }
  void set_tracer(obs::SpanTracer* tracer) override { tracer_ = tracer; }

 protected:
  p2p::Network& net_;
  p2p::MeasurementNode& m_;
  eth::AccountManager& accounts_;
  eth::TxFactory& factory_;
  MeasureConfig config_;
  CostTracker* cost_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  ProbeObs obs_;
  obs::SpanTracer* tracer_ = nullptr;
};

/// The reference implementation: the paper's replacement-price-ladder
/// protocol, re-homed behind the seam. measure_pair drives
/// OneLinkMeasurement, measure_batch / remeasure_batch drive
/// ParallelMeasurement — constructed per call with identical wiring, so
/// trajectories are byte-identical to the pre-seam direct calls.
class ToposhotStrategy final : public StrategyBase {
 public:
  using StrategyBase::StrategyBase;

  StrategyKind kind() const override { return StrategyKind::kToposhot; }
  OneLinkResult measure_pair(p2p::PeerId a, p2p::PeerId b) override;
  ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
                               const std::vector<p2p::PeerId>& sinks,
                               const std::vector<ParallelEdge>& edges) override;
  ParallelResult remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                 const std::vector<p2p::PeerId>& sinks,
                                 const std::vector<ParallelEdge>& edges) override;
  void set_flood_overrides(std::unordered_map<p2p::PeerId, size_t> overrides) override {
    flood_overrides_ = std::move(overrides);
  }

 private:
  ParallelMeasurement make_parallel();

  std::unordered_map<p2p::PeerId, size_t> flood_overrides_;
};

/// DEthna-style rival: a fresh below-market marker transaction per source,
/// never mined (near-zero gas cost), adjacency inferred from *when* each
/// sink's echo of the marker reaches the measurement node. The echo of a
/// direct neighbor of the source is one link-latency earlier than a
/// two-hop node's; the classifier thresholds each sink's delay relative to
/// the earliest echo observed, and config().repetitions are combined by
/// MAJORITY vote (timing inference is noisy in both directions, so the
/// union rule TopoShot uses would only accumulate false positives).
///
/// Honest failure modes: timing overlap between one- and two-hop echoes
/// costs precision AND recall (unlike TopoShot's analytic 100% precision),
/// and announcement-based clients add a get_tx round trip to every echo,
/// degrading separation further.
class DethnaStrategy final : public StrategyBase {
 public:
  using StrategyBase::StrategyBase;

  StrategyKind kind() const override { return StrategyKind::kDethna; }

  /// Reads the scenario's latency model median — the stand-in for the
  /// calibration a live attacker performs against observed gossip.
  void prepare(Scenario& sc) override;

  OneLinkResult measure_pair(p2p::PeerId a, p2p::PeerId b) override;
  ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
                               const std::vector<p2p::PeerId>& sinks,
                               const std::vector<ParallelEdge>& edges) override;
  ParallelResult remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                 const std::vector<p2p::PeerId>& sinks,
                                 const std::vector<ParallelEdge>& edges) override;

  /// Classifier threshold: a sink whose echo trails the earliest echo by
  /// more than this is ruled not-adjacent. Derived from the calibrated link
  /// latency.
  double announce_gap() const;

 private:
  ParallelResult measure_once(const std::vector<p2p::PeerId>& sources,
                              const std::vector<p2p::PeerId>& sinks,
                              const std::vector<ParallelEdge>& edges);
  eth::Wei marker_price() const;

  double link_latency_hint_ = 0.05;  ///< overwritten by prepare()
};

/// TxProbe-style rival: the announcement-blocking isolation prototyped in
/// bench/txprobe_comparison.cpp, promoted to a real strategy. Per pair it
/// pre-announces a fresh marker's hash to every node except the pair
/// (arming their per-hash blocking windows), delivers the marker to the
/// source, and reads adjacency from the marker coming back from the sink.
/// Repetitions union positives, as in the original protocol.
///
/// On Ethereum-style propagation this honestly fails: direct pushes bypass
/// announcement blocks (§4.1), the marker floods, and false positives make
/// almost every pair look connected — the paper's motivation for the
/// replacement-price ladder. Under PropagationMode::kAnnounceOnly worlds
/// the isolation holds and precision returns (the Bitcoin-mode contrast of
/// the comparison bench).
class TxProbeStrategy final : public StrategyBase {
 public:
  using StrategyBase::StrategyBase;

  StrategyKind kind() const override { return StrategyKind::kTxprobe; }

  /// Applies `propagation_override` (when set) via apply_propagation_mode.
  /// By default the scenario's configured propagation stands — the point
  /// of the rivalry sweep is how each strategy fares under each regime.
  void prepare(Scenario& sc) override;

  OneLinkResult measure_pair(p2p::PeerId a, p2p::PeerId b) override;
  ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
                               const std::vector<p2p::PeerId>& sinks,
                               const std::vector<ParallelEdge>& edges) override;
  ParallelResult remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                 const std::vector<p2p::PeerId>& sinks,
                                 const std::vector<ParallelEdge>& edges) override;

  void set_propagation_override(PropagationMode mode) {
    propagation_override_ = mode;
    has_propagation_override_ = true;
  }

 private:
  ParallelResult measure_once(const std::vector<p2p::PeerId>& sources,
                              const std::vector<p2p::PeerId>& sinks,
                              const std::vector<ParallelEdge>& edges);
  eth::Wei marker_price() const;

  PropagationMode propagation_override_ = PropagationMode::kPushAndAnnounce;
  bool has_propagation_override_ = false;
};

/// Constructs the strategy for `kind` over a borrowed measurement world.
/// Wiring (cost tracker, metrics, tracer) is the caller's job; Scenario::
/// make_strategy does both in one step.
std::unique_ptr<MeasurementStrategy> make_strategy(StrategyKind kind, p2p::Network& net,
                                                   p2p::MeasurementNode& m,
                                                   eth::AccountManager& accounts,
                                                   eth::TxFactory& factory,
                                                   MeasureConfig config);

}  // namespace topo::core
