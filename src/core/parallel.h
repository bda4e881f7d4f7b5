#pragma once

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

/// One candidate edge of a parallel measurement: indices into the sources /
/// sinks arrays passed to ParallelMeasurement::measure.
struct ParallelEdge {
  size_t source = 0;
  size_t sink = 0;
};

struct ParallelResult {
  std::vector<bool> connected;    ///< per edge, in input order
  std::vector<bool> txa_planted;  ///< per edge: txA confirmed on its source
  std::vector<Verdict> verdicts;  ///< per edge: outcome class of the last attempt
  std::vector<uint32_t> attempts;  ///< per edge: measure_once passes covering it

  /// Per edge: which step of the probe's causal chain broke on the last
  /// attempt (kNone when connected; kTxANeverReturned on a clean negative).
  std::vector<obs::ProbeCause> causes;

  double started_at = 0.0;
  double finished_at = 0.0;
  uint64_t txs_sent = 0;
};

/// measurePar({A_k}, {B_l}, edges) — the parallel measurement primitive of
/// paper §5.3.1: r candidate edges between p sources and q sinks measured
/// in one pass, one EOA per edge.
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
/// Implementation detail of the strategy seam: this is the raw TopoShot
/// batch probe that core::ToposhotStrategy drives. Constructing it directly
/// bypasses strategy selection — go through core::MeasurementSession or the
/// core::MeasurementStrategy seam.
class ParallelMeasurement {
 public:
  ParallelMeasurement(p2p::Network& net, p2p::MeasurementNode& m, eth::AccountManager& accounts,
                      eth::TxFactory& factory, MeasureConfig config);

  /// Measures the candidate edges; config.repetitions > 1 repeats the whole
  /// pass and unions the positives (§6.1's validation protocol), stopping
  /// early once every edge is positive.
  ParallelResult measure(const std::vector<p2p::PeerId>& sources,
                         const std::vector<p2p::PeerId>& sinks,
                         const std::vector<ParallelEdge>& edges);

  /// Like measure(), for a subset a prior sweep left inconclusive: fresh
  /// probe EOAs come free, and the pass is tallied under `probe.remeasures`.
  /// Drivers call this strictly *after* their primary sweep (see
  /// run_retry_pass) so the retries-off trajectory is untouched.
  ParallelResult remeasure(const std::vector<p2p::PeerId>& sources,
                           const std::vector<p2p::PeerId>& sinks,
                           const std::vector<ParallelEdge>& edges);

  void set_cost_tracker(CostTracker* tracker) { cost_ = tracker; }

  /// Wires per-phase probe timing (`probe.*`, keyed to sim seconds) into
  /// `reg`; null disables. The registry must outlive the measurement.
  void set_metrics(obs::MetricsRegistry* reg) {
    obs_ = reg != nullptr ? ProbeObs::wire(*reg) : ProbeObs{};
  }

  /// Attaches a causal span tracer (null disables): every measure() call
  /// records the per-phase protocol spans under the tracer's current scope.
  /// Pair-level spans are the caller's job (core::run_batch opens them per
  /// edge), since only the caller knows the edge→pair-index mapping. The
  /// tracer must outlive the measurement.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }
  obs::SpanTracer* tracer() const { return tracer_; }

  /// Current simulation time — lets network-level drivers timestamp their
  /// own spans without reaching into the network themselves.
  double now() const { return net_.simulator().now(); }

  const MeasureConfig& config() const { return config_; }
  MeasureConfig& config() { return config_; }

  /// Per-target flood-size overrides discovered by pre-processing
  /// (§5.2.3): nodes with custom mempools get a correspondingly larger Z.
  void set_flood_overrides(std::unordered_map<p2p::PeerId, size_t> overrides) {
    flood_overrides_ = std::move(overrides);
  }

 private:
  ParallelResult measure_once(const std::vector<p2p::PeerId>& sources,
                              const std::vector<p2p::PeerId>& sinks,
                              const std::vector<ParallelEdge>& edges);

  std::vector<eth::Transaction> make_flood(const MeasureConfig& cfg, size_t z);
  size_t flood_z_for(p2p::PeerId target, const MeasureConfig& cfg) const;

  p2p::Network& net_;
  p2p::MeasurementNode& m_;
  eth::AccountManager& accounts_;
  eth::TxFactory& factory_;
  MeasureConfig config_;
  CostTracker* cost_ = nullptr;
  ProbeObs obs_;
  obs::SpanTracer* tracer_ = nullptr;
  std::unordered_map<p2p::PeerId, size_t> flood_overrides_;
};

}  // namespace topo::core
