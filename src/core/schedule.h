#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "graph/graph.h"
#include "obs/span.h"

namespace topo::core {

/// One measurePar invocation of the two-round schedule: node values are
/// indices into the target list.
struct IterationPlan {
  std::vector<size_t> sources;
  std::vector<size_t> sinks;
  std::vector<std::pair<size_t, size_t>> pairs;  ///< (source idx-in-targets, sink idx-in-targets)
};

/// The §5.3.2 parallel schedule over n targets with group size K:
///  - round 1: n/K iterations; iteration i measures group i against every
///    node in later groups (cross-group pairs each covered exactly once);
///  - round 2: ceil(log2 K) iterations; each halves every remaining segment
///    and measures first half x second half (intra-group pairs).
/// Every unordered pair is covered exactly once; iteration count is
/// n/K + log2(K).
std::vector<IterationPlan> make_schedule(size_t n, size_t group_k);

/// One pair that entered the inconclusive re-measurement path:
/// target-index endpoints plus the total measure_once passes it consumed
/// (primary sweep included).
struct RetriedPair {
  size_t u = 0;
  size_t v = 0;
  uint32_t attempts = 0;

  /// Latest known failure cause (updated as retry rounds re-measure the
  /// pair); drives the diagnostics bookkeeping, not serialized in the
  /// fault annex.
  obs::ProbeCause cause = obs::ProbeCause::kNone;

  friend bool operator==(const RetriedPair&, const RetriedPair&) = default;
};

/// Fault/resilience annex of a measurement report. The first six fields
/// echo the injected-fault configuration (zeros when faults are off but
/// retries are on); the tallies record what the driver actually did.
/// Kept as plain data here so topo::core stays independent of topo::fault.
struct FaultReport {
  double drop_tx = 0.0;
  double drop_announce = 0.0;
  double drop_get_tx = 0.0;
  double spike_prob = 0.0;
  double spike_mult = 1.0;
  double churn_rate = 0.0;
  size_t retries = 0;          ///< configured inconclusive_retries
  uint64_t attempts = 0;       ///< measure_once passes summed over all pairs
  uint64_t inconclusive = 0;   ///< pairs still inconclusive after retries
  std::vector<RetriedPair> retried;  ///< pairs that entered the retry path

  friend bool operator==(const FaultReport&, const FaultReport&) = default;
};

/// One pair left inconclusive at the end of a measurement, with the cause
/// that was never cleared (target-index endpoints).
struct PairDiagnostic {
  size_t u = 0;
  size_t v = 0;
  obs::ProbeCause cause = obs::ProbeCause::kNone;

  friend bool operator==(const PairDiagnostic&, const PairDiagnostic&) = default;
};

/// Per-verdict diagnostics annex (MeasureConfig::collect_diagnostics): the
/// machine-readable explanation behind every verdict of a network sweep.
/// Indexed by obs::ProbeCause. Invariant: the `causes` histogram sums to
/// pairs_tested (every pair lands in exactly one final-cause bucket —
/// kNone when connected, kTxANeverReturned on a clean negative).
struct DiagnosticsReport {
  /// Final cause per pair, histogrammed (post-retry state).
  std::array<uint64_t, obs::kNumProbeCauses> causes{};

  /// Causes the retry pass cleared: bucket = the cause the pair had *before*
  /// the retry round that decided it. The per-cause recall ledger
  /// bench/fault_recall breaks down.
  std::array<uint64_t, obs::kNumProbeCauses> cleared{};

  /// Pairs still inconclusive after retries, sorted by (u, v).
  std::vector<PairDiagnostic> inconclusive;

  friend bool operator==(const DiagnosticsReport&, const DiagnosticsReport&) = default;
};

/// Result of measuring a whole network.
struct NetworkMeasurementReport {
  graph::Graph measured;  ///< node i = targets[i]
  size_t iterations = 0;
  size_t pairs_tested = 0;
  double sim_seconds = 0.0;
  uint64_t txs_sent = 0;

  /// Which measurement strategy produced the report. kToposhot (the
  /// default) is omitted from the serialized form, so default-strategy
  /// reports stay byte-identical to pre-seam builds.
  StrategyKind strategy = StrategyKind::kToposhot;

  /// Present when fault injection or inconclusive retries were configured;
  /// absent reports serialize byte-identically to pre-fault builds.
  std::optional<FaultReport> fault;

  /// Present when MeasureConfig::collect_diagnostics was set; same
  /// byte-identity policy as the fault annex.
  std::optional<DiagnosticsReport> diagnostics;
};

/// One slot-budgeted unit of campaign work: a deduplicated source/sink set
/// plus candidate edges, everything in target-index space so the batch can
/// be replayed against any replica of the measurement world (the unit the
/// topo::exec worker pool shards across threads).
struct MeasurementBatch {
  std::vector<size_t> sources;  ///< target indices
  std::vector<size_t> sinks;    ///< target indices
  std::vector<ParallelEdge> edges;  ///< indices into sources/sinks above
  std::vector<std::pair<size_t, size_t>> pairs;  ///< (source, sink) target indices, edge order
};

/// The §5.3.2 slot budget: at most 2Z/5 concurrent candidate edges, since
/// every concurrent edge pins one txC slot in every participating pool.
inline size_t slot_budget(size_t flood_z) { return std::max<size_t>(1, flood_z * 2 / 5); }

/// Expands the two-round schedule into slot-budgeted batches. Pure function
/// of (n, group_k, budget): the sequential driver and the sharded campaign
/// runner both consume it, so their pair coverage is identical by
/// construction (every unordered pair appears in exactly one batch).
std::vector<MeasurementBatch> make_batches(size_t n, size_t group_k, size_t budget);

/// Expands an *explicit* pair list into slot-budgeted batches, in the given
/// order (the caller's priority order is preserved; pairs land in batches
/// of at most `budget` edges). Unlike the §5.3.2 schedule — whose disjoint
/// groups rule this out by construction — an arbitrary pair list can ask
/// one node to be a probe source and a flood sink concurrently, which
/// wrecks both probes; a batch is closed early whenever the next pair
/// would create such a role conflict. This is the incremental-
/// re-measurement entry: the topology monitor re-probes only the
/// stale/uncertain subset of pairs per epoch instead of re-sweeping the
/// full O(n²) schedule. Pure function of (pairs, budget), so coverage is
/// independent of who runs the batches.
std::vector<MeasurementBatch> make_batches_for_pairs(
    const std::vector<std::pair<size_t, size_t>>& pairs, size_t budget);

/// Runs one batch through `strat` (mapping target indices through `targets`)
/// and folds the outcome into `report`: iteration/pair/tx tallies plus one
/// measured edge per positive verdict; the diagnostics annex (when present)
/// absorbs every edge's final cause. sim_seconds is left to the caller,
/// which knows which simulator clock the batch ran on. When `inconclusive`
/// is non-null, every pair the batch left undecided is appended to it
/// (endpoints, attempts consumed so far, last cause) for a later
/// run_retry_pass. `batch_id` is the batch's index in the shard's plan — it
/// keys the stable span ids (obs::batch_span_id / pair_span_id) when
/// `strat` carries a tracer, so ids never depend on execution order.
void run_batch(MeasurementStrategy& strat, const std::vector<p2p::PeerId>& targets,
               const MeasurementBatch& batch, size_t batch_id,
               NetworkMeasurementReport& report,
               std::vector<RetriedPair>* inconclusive = nullptr);

/// Bounded re-measurement of the pairs the primary sweep left inconclusive,
/// `rounds` times at most, re-batching the still-undecided subset under the
/// same slot `budget` each round. Runs strictly *after* the whole sweep:
/// the primary trajectory (messages, RNG draws, sim clock) is exactly the
/// retries-off run, so re-measurement can only add edges to
/// `report.measured`, never perturb already-measured ones. Newly positive
/// pairs are added to the report; when the fault annex is present it
/// absorbs the extra attempts, the per-pair retry history, and the count of
/// pairs still inconclusive at the end (with rounds == 0 that is just the
/// primary inconclusive tally). The diagnostics annex (when present) moves
/// re-measured pairs into their final cause bucket, tallies what each
/// deciding round cleared, and flushes the still-inconclusive remainder;
/// with a tracer attached each round records a kRetryRound span and each
/// decided pair a kRetryClear instant carrying the cleared cause.
void run_retry_pass(MeasurementStrategy& strat, const std::vector<p2p::PeerId>& targets,
                    std::vector<RetriedPair> inconclusive, size_t budget, size_t rounds,
                    NetworkMeasurementReport& report);

/// Drives the full §5.3.2 schedule over `targets` through `strat`: the
/// two-round batches, then the bounded retry pass. sim_seconds is read off
/// the strategy's clock.
///
/// `max_edges_per_call` enforces the paper's mempool slot budget (§5.3.2:
/// "we only use no more than 2000 transaction slots" of Geth's 5120): an
/// iteration whose candidate-edge count exceeds the budget is split into
/// sub-batches, since every concurrent edge pins one txC slot in every
/// pool. 0 derives the budget from the measurement config (2/5 of Z).
NetworkMeasurementReport measure_all(MeasurementStrategy& strat,
                                     const std::vector<p2p::PeerId>& targets, size_t group_k,
                                     size_t max_edges_per_call = 0);

}  // namespace topo::core
