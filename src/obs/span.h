#pragma once

// Deterministic causal-span tracing (DESIGN: docs/TRACING.md).
//
// A SpanTracer records the hierarchical structure of a measurement
// campaign — campaign → shard → batch → pair → per-phase — as flat spans
// keyed to *simulation* time. Span ids are pure functions of the campaign
// structure (shard, batch, pair indices), never of execution order across
// threads, so a sorted export is byte-identical at any worker-pool width.
// Exports target the Chrome trace-event JSON format and load directly in
// Perfetto / chrome://tracing.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/json.h"

namespace topo::obs {

/// What a span covers. Structural kinds (campaign/shard/batch/pair) nest by
/// construction; phase kinds mirror the probe protocol steps of paper §5.2;
/// retry kinds record the bounded re-measurement pass.
enum class SpanKind : uint8_t {
  kCampaign = 1,     ///< whole campaign (root)
  kShard,            ///< one world replica's batch sequence
  kBatch,            ///< one slot-budgeted measurePar call
  kPair,             ///< one candidate link, open across every attempt
  kPlantTxC,         ///< step 1: plant txC + wait_X flood window
  kEvictFlood,       ///< step 2/3: future flood + truncation gap on a target
  kPlantProbes,      ///< step 2/3: plant txB / txA replacements
  kObserve,          ///< step 4: detect window
  kRetryRound,       ///< one round of core::run_retry_pass
  kRetryClear,       ///< instant: a retry decided a formerly inconclusive pair
  kEpoch,            ///< one monitoring epoch (src/monitor): drift + re-measure + publish
};

const char* span_kind_name(SpanKind kind);

/// Machine-readable explanation of a non-connected verdict: *which* step of
/// the probe's causal chain broke. Ordered by classification priority (the
/// earliest broken protocol step wins; see docs/TRACING.md).
enum class ProbeCause : uint8_t {
  kNone = 0,            ///< connected, or not applicable
  kNodeOffline,         ///< source or sink was crashed/unresponsive at observation
  kTxCNotEvicted,       ///< the future flood never cleared txC off the sink
  kPayloadNotPlanted,   ///< txB (or txA replacing it) never landed on the sink
  kTxANotPlanted,       ///< txA never landed on the source
  kTxANeverReturned,    ///< preconditions held; txA refuted (clean negative)
};

inline constexpr size_t kNumProbeCauses = 6;

const char* probe_cause_name(ProbeCause cause);

/// Inverse of probe_cause_name; false on an unknown name.
bool probe_cause_from_name(const std::string& name, ProbeCause& out);

/// Verdict code carried on pair / retry-clear spans: 0 = none (structural
/// span), 1 = connected, 2 = negative, 3 = inconclusive. Kept as a plain
/// code so obs stays independent of core's Verdict enum.
const char* span_verdict_name(uint8_t code);

// -- stable span ids ---------------------------------------------------------
//
// Structural ids (bit 63 clear) pack the campaign coordinates:
//   [62..44] shard+1 (19 bits) | [43..24] batch+1 (20 bits) |
//   [23..4]  pair+1  (20 bits) | [3..0] kind
// The campaign root is kind alone (id 1). Ordinal ids (bit 63 set) number
// phase/retry spans per shard in open order — deterministic because each
// shard's measurement sequence is single-threaded and fixed by the shard
// plan:
//   [63] 1 | [62..44] shard+1 | [43..4] ordinal+1 | [3..0] kind

inline constexpr uint64_t kCampaignSpanId =
    static_cast<uint64_t>(SpanKind::kCampaign);

inline constexpr uint64_t shard_span_id(uint64_t shard) {
  return ((shard + 1) << 44) | static_cast<uint64_t>(SpanKind::kShard);
}

/// Epoch spans live in the *monitor's* tracer (one per daemon, distinct
/// from the per-campaign tracers), so the epoch index alone identifies the
/// span; the kind nibble keeps the id disjoint from every structural id.
inline constexpr uint64_t epoch_span_id(uint64_t epoch) {
  return ((epoch + 1) << 4) | static_cast<uint64_t>(SpanKind::kEpoch);
}

inline constexpr uint64_t batch_span_id(uint64_t shard, uint64_t batch) {
  return ((shard + 1) << 44) | ((batch + 1) << 24) |
         static_cast<uint64_t>(SpanKind::kBatch);
}

inline constexpr uint64_t pair_span_id(uint64_t shard, uint64_t batch, uint64_t pair) {
  return ((shard + 1) << 44) | ((batch + 1) << 24) | ((pair + 1) << 4) |
         static_cast<uint64_t>(SpanKind::kPair);
}

inline constexpr uint64_t ordinal_span_id(uint64_t shard, uint64_t ordinal, SpanKind kind) {
  return (uint64_t{1} << 63) | ((shard + 1) << 44) | ((ordinal + 1) << 4) |
         static_cast<uint64_t>(kind);
}

/// One recorded span. Flat POD — the hierarchy lives in `parent` ids, the
/// identity in the stable id scheme above.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  SpanKind kind = SpanKind::kCampaign;
  double start = 0.0;  ///< sim seconds
  double end = 0.0;    ///< sim seconds (== start for instants)
  uint64_t a = 0;      ///< kind-specific: pair endpoints, batch/shard index
  uint64_t b = 0;
  uint8_t verdict = 0;  ///< see span_verdict_name; 0 on structural spans
  ProbeCause cause = ProbeCause::kNone;
  uint32_t shard = 0;

  bool operator==(const Span& o) const = default;
};

/// Records spans for one shard's (single-threaded) measurement sequence.
/// Not thread-safe by design: the sharded campaign gives each replica its
/// own tracer and merges them afterwards in shard order.
class SpanTracer {
 public:
  explicit SpanTracer(uint32_t shard = 0) : shard_(shard) {}

  uint32_t shard() const { return shard_; }

  /// Opens a span with an explicit stable id. Returns `id`.
  uint64_t open(SpanKind kind, double start, uint64_t id, uint64_t parent,
                uint64_t a = 0, uint64_t b = 0);

  /// Opens a phase/retry span with the next ordinal id; parent = scope().
  uint64_t open_auto(SpanKind kind, double start, uint64_t a = 0, uint64_t b = 0);

  /// Opens a pair span at an explicit pair index within the current batch
  /// (set_batch); parent = scope().
  uint64_t open_pair_at(uint64_t pair_index, double start, uint64_t a, uint64_t b);

  /// Opens a pair span with an auto-incremented pair index — the serial
  /// one-link driver, which has no batch structure.
  uint64_t open_pair(double start, uint64_t a, uint64_t b) {
    return open_pair_at(pair_ordinal_++, start, a, b);
  }

  void close(uint64_t id, double end);
  void close_pair(uint64_t id, double end, uint8_t verdict, ProbeCause cause);

  /// Zero-length marker span (retry-clear log entries), parent = scope().
  void instant(SpanKind kind, double t, uint64_t a, uint64_t b, uint8_t verdict,
               ProbeCause cause);

  /// Ambient parent for open_auto/open_pair*/instant; returns the previous
  /// scope so callers can restore it.
  uint64_t set_scope(uint64_t span_id) {
    const uint64_t prev = scope_;
    scope_ = span_id;
    return prev;
  }
  uint64_t scope() const { return scope_; }

  /// Batch context for pair-span ids; resets the per-batch pair ordinal.
  void set_batch(uint64_t batch) {
    batch_ = batch;
    pair_ordinal_ = 0;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void append(const std::vector<Span>& spans);
  void clear();

 private:
  uint32_t shard_ = 0;
  uint64_t batch_ = 0;
  uint64_t pair_ordinal_ = 0;
  uint64_t next_ordinal_ = 0;
  uint64_t scope_ = 0;
  std::vector<Span> spans_;
  std::unordered_map<uint64_t, size_t> open_;  ///< id -> index into spans_
};

/// Canonical export order: ascending stable id (campaign root, then shards,
/// batches, pairs, then per-shard ordinal spans). Ids are unique within a
/// campaign, so the order is total and execution-order independent.
void sort_spans(std::vector<Span>& spans);

/// Chrome trace-event JSON ({"displayTimeUnit", "traceEvents": [...]}):
/// complete ("ph":"X") events, ts/dur in microseconds of sim time, tid =
/// shard. Loadable in Perfetto / chrome://tracing. Spans are exported in
/// canonical sorted order, so the document is byte-identical for identical
/// span sets.
rpc::Json spans_to_chrome_json(std::vector<Span> spans);

}  // namespace topo::obs
