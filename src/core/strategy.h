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
//    accounts, tx factory), held by the MeasurementStrategy base, and
//    advances the shared simulator from inside measure_*;
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
#include "core/probe_obs.h"
#include "eth/account.h"
#include "eth/transaction.h"
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
/// scenario: TxProbeStrategy's optional override, and the two worlds
/// bench/txprobe_comparison runs that strategy on.
enum class PropagationMode {
  kAnnounceOnly,     ///< Bitcoin-style: hashes only, bodies by request
  kPushAndAnnounce,  ///< Geth >= 1.9.11: sqrt-push + hash announcement
};

/// Rewrites every target node's propagation flags to `mode`. Call before
/// seeding background traffic so the whole trajectory runs one regime.
void apply_propagation_mode(Scenario& sc, PropagationMode mode);

/// Outcome of one measure_pair run, with the paper's validation
/// diagnostics (the eth_getTransactionByHash-style checks of §6.1).
struct OneLinkResult {
  bool connected = false;  ///< txA observed arriving from B

  /// Outcome class of the final attempt (kConnected once any attempt was
  /// positive). Inconclusive = the probe preconditions below failed, so
  /// txA was neither observed nor refuted.
  Verdict verdict = Verdict::kNegative;

  /// Which step of the probe's causal chain broke on the final attempt
  /// (kNone when connected; kTxANeverReturned on a clean negative). The
  /// machine-readable explanation behind the verdict.
  obs::ProbeCause cause = obs::ProbeCause::kNone;

  /// Probe passes taken (repetitions + inconclusive retries).
  uint32_t attempts = 0;

  /// How many of those were inconclusive re-measurements (beyond the
  /// configured repetition sweep).
  uint32_t remeasured = 0;

  // Diagnostics read from simulated-RPC ground truth:
  bool txc_evicted_on_a = false;
  bool txc_evicted_on_b = false;
  bool txa_planted_on_a = false;
  bool txb_planted_on_b = false;

  eth::TxHash txa_hash = 0;
  eth::TxHash txb_hash = 0;
  eth::TxHash txc_hash = 0;

  double started_at = 0.0;
  double finished_at = 0.0;
  uint64_t txs_sent = 0;
};

/// One candidate edge of a batch measurement: indices into the sources /
/// sinks arrays passed to MeasurementStrategy::measure_batch.
struct ParallelEdge {
  size_t source = 0;
  size_t sink = 0;
};

struct ParallelResult {
  std::vector<bool> connected;    ///< per edge, in input order
  std::vector<bool> txa_planted;  ///< per edge: txA confirmed on its source
  std::vector<Verdict> verdicts;  ///< per edge: outcome class of the last attempt
  std::vector<uint32_t> attempts;  ///< per edge: probe passes covering it

  /// Per edge: which step of the probe's causal chain broke on the last
  /// attempt (kNone when connected; kTxANeverReturned on a clean negative).
  std::vector<obs::ProbeCause> causes;

  double started_at = 0.0;
  double finished_at = 0.0;
  uint64_t txs_sent = 0;
};

/// A topology-inference technique behind the measurement seam. Drivers
/// hold one and only talk through this interface; Scenario::make_strategy
/// constructs the concrete classes below and wires cost/metrics/tracing.
/// The base holds what every strategy borrows: the measurement world
/// (network, measurement node, accounts, tx factory), the config, and the
/// cost/metrics/tracer wiring.
class MeasurementStrategy {
 public:
  MeasurementStrategy(p2p::Network& net, p2p::MeasurementNode& m, eth::AccountManager& accounts,
                      eth::TxFactory& factory, MeasureConfig config)
      : net_(net), m_(m), accounts_(accounts), factory_(factory), config_(config) {}
  virtual ~MeasurementStrategy() = default;
  MeasurementStrategy(const MeasurementStrategy&) = delete;
  MeasurementStrategy& operator=(const MeasurementStrategy&) = delete;

  virtual StrategyKind kind() const = 0;

  /// One-time scenario preparation (node-config mutation, calibration).
  /// Runs once per replica on the warmed world — after background seeding
  /// (campaigns fork replicas from a shared warmed snapshot and prepare
  /// each fork), before any measurement. Default: nothing. Must be
  /// deterministic and is the only member allowed to touch scenario state
  /// beyond the measurement world refs.
  virtual void prepare(Scenario& sc) { (void)sc; }

  /// Measures one candidate link A-B (the serial primitive). Default: a
  /// one-edge measure_batch.
  virtual OneLinkResult measure_pair(p2p::PeerId a, p2p::PeerId b);

  /// Measures a batch of candidate edges between `sources` and `sinks`
  /// (indices in ParallelEdge refer into those arrays). Every edge must
  /// come back with exactly one verdict and one cause.
  virtual ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
                                       const std::vector<p2p::PeerId>& sinks,
                                       const std::vector<ParallelEdge>& edges) = 0;

  /// Re-measures a batch a prior sweep left inconclusive: a measure_batch
  /// (fresh probe accounts come free) tallied per edge under
  /// `probe.remeasures`. Drivers call this strictly *after* their primary
  /// sweep (run_retry_pass), so the retries-off trajectory is untouched.
  ParallelResult remeasure_batch(const std::vector<p2p::PeerId>& sources,
                                 const std::vector<p2p::PeerId>& sinks,
                                 const std::vector<ParallelEdge>& edges);

  /// Per-target flood-size overrides from pre-processing (§5.2.3). Only
  /// meaningful for strategies that flood; others ignore it.
  virtual void set_flood_overrides(std::unordered_map<p2p::PeerId, size_t> overrides) {
    (void)overrides;
  }

  MeasureConfig& config() { return config_; }
  const MeasureConfig& config() const { return config_; }

  /// Current simulation time, for drivers that timestamp their own spans.
  double now() const { return net_.simulator().now(); }

  /// Registered measurement accounts land here for cost accounting.
  void set_cost_tracker(CostTracker* tracker) { cost_ = tracker; }

  /// Wires the `probe.*` counters and phase timings (sim seconds) into
  /// `reg`; null disables. The registry must outlive the strategy.
  void set_metrics(obs::MetricsRegistry* reg) {
    obs_ = reg != nullptr ? ProbeObs::wire(*reg) : ProbeObs{};
  }

  /// Attaches a causal span tracer (null disables); protocol-phase spans
  /// nest under its current scope. The tracer must outlive the strategy.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }
  obs::SpanTracer* tracer() const { return tracer_; }

 protected:
  p2p::Network& net_;
  p2p::MeasurementNode& m_;
  eth::AccountManager& accounts_;
  eth::TxFactory& factory_;
  MeasureConfig config_;
  CostTracker* cost_ = nullptr;
  ProbeObs obs_;
  obs::SpanTracer* tracer_ = nullptr;
};

/// The reference implementation: the paper's replacement-price-ladder
/// protocol. measure_pair is measureOneLink(A, B, X, Y, Z, R, U) of §5.2,
/// driven synchronously against the event simulator:
///
///   1. send txC (price Y) to A; run the simulator X seconds so it floods;
///   2. flood B with Z futures at (1+R)Y from ceil(Z/U) accounts, wait for
///      the target's deferred queue truncation, then send txB at (1-R/2)Y;
///   3. the same for A, then send txA at (1+R/2)Y;
///   4. run the detect window and report whether M received txA from B
///      and from no other peer (any other reception proves a node lost its
///      txC shield and leaked txA, so the positive is discarded).
///
/// measure_batch is measurePar({A_k}, {B_l}, edges) of §5.3.1: r candidate
/// edges between p sources and q sinks measured in one pass, one EOA per
/// edge.
///
/// Phase order note (documented deviation): the paper lists the source
/// phase (p2) before the sink phase (p3), but detection requires txB to sit
/// on the sink *before* txA propagates from the source — which is exactly
/// the order the paper's own serial primitive uses (Step 2 = B, Step 3 =
/// A). We therefore process sinks first, then sources strictly one at a
/// time (flood + replant + txA per source) so that a source's txA always
/// meets txC — not an eviction gap — on every other source. Isolation among
/// sources is otherwise best-effort, as §6.1 observes.
///
/// Both primitives advance the shared simulator; concurrent activity
/// (mining, background traffic, re-gossip) keeps running meanwhile.
/// config().repetitions > 1 repeats the probe and unions the positives
/// (§5.2.3's passive recall booster), stopping once every edge is positive.
class ToposhotStrategy final : public MeasurementStrategy {
 public:
  using MeasurementStrategy::MeasurementStrategy;

  StrategyKind kind() const override { return StrategyKind::kToposhot; }

  /// Also re-measures an inconclusive outcome up to
  /// config().inconclusive_retries times, and records one kPair span.
  OneLinkResult measure_pair(p2p::PeerId a, p2p::PeerId b) override;
  ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
                               const std::vector<p2p::PeerId>& sinks,
                               const std::vector<ParallelEdge>& edges) override;

  /// Nodes with custom mempools get a correspondingly larger Z.
  void set_flood_overrides(std::unordered_map<p2p::PeerId, size_t> overrides) override {
    flood_overrides_ = std::move(overrides);
  }

 private:
  OneLinkResult measure_once(p2p::PeerId a, p2p::PeerId b);
  ParallelResult measure_once(const std::vector<p2p::PeerId>& sources,
                              const std::vector<p2p::PeerId>& sinks,
                              const std::vector<ParallelEdge>& edges);

  /// Steps 2/3 on `target`: the eviction flood (`flood`, or a larger one
  /// when pre-processing asked for it), then the wait for the target's
  /// deferred queue truncation.
  void evict(p2p::PeerId target, const MeasureConfig& cfg,
             const std::vector<eth::Transaction>& flood);

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
class DethnaStrategy final : public MeasurementStrategy {
 public:
  using MeasurementStrategy::MeasurementStrategy;

  StrategyKind kind() const override { return StrategyKind::kDethna; }

  /// Reads the scenario's latency model median — the stand-in for the
  /// calibration a live attacker performs against observed gossip.
  void prepare(Scenario& sc) override;

  ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
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

/// TxProbe-style rival (arXiv 1812.00942): announcement-blocking
/// isolation, transplanted from Bitcoin. Per pair it
/// pre-announces a fresh marker's hash to every node except the pair
/// (arming their per-hash blocking windows), delivers the marker to the
/// source, and reads adjacency from the marker coming back from the sink.
/// Repetitions union positives, as in the original protocol.
///
/// On Ethereum-style propagation this honestly fails: direct pushes bypass
/// announcement blocks (§4.1), so the marker leaks past the pair and false
/// positives outnumber true links about three to one — precision 0.23–0.28
/// on both client mixes of bench/strategy_rivalry
/// (tests/expected/strategy_rivalry.json), the paper's motivation for the
/// replacement-price ladder. Recall splits by mix: 0.84–0.88 where every
/// peer gets a direct push (geth-legacy), but 0.375–0.5 on geth-1.9.11,
/// where most of the marker's hops are announcements that the blocking
/// windows hold back and about half the probes never see it return. Under
/// PropagationMode::kAnnounceOnly worlds the isolation holds and precision
/// returns; bench/txprobe_comparison measures both.
class TxProbeStrategy final : public MeasurementStrategy {
 public:
  using MeasurementStrategy::MeasurementStrategy;

  StrategyKind kind() const override { return StrategyKind::kTxprobe; }

  /// Applies `propagation_override` (when set) via apply_propagation_mode.
  /// By default the scenario's configured propagation stands — the point
  /// of the rivalry sweep is how each strategy fares under each regime.
  void prepare(Scenario& sc) override;

  ParallelResult measure_batch(const std::vector<p2p::PeerId>& sources,
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

}  // namespace topo::core
