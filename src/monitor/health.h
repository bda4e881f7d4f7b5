#pragma once

// Per-epoch health accounting and the daemon watchdog (topo::monitor,
// docs/OBSERVABILITY.md).
//
// The monitor keeps a bounded ring of EpochStats — the per-epoch
// cost/latency ledger the paper's feasibility argument (§5–6) is scored
// on: sim-time duration, drained events, selection/budget pressure,
// verdict flips, confidence level, detection lag. classify_health is a
// pure function over that ring plus configurable thresholds; it returns
// one of four states, ordered by severity:
//
//   stalled                    the loop published nothing, or the latest
//                              epoch made no progress at all
//   degraded:slow-epoch        the latest epoch blew the absolute sim-time
//                              cap, or ran `slow_epoch_factor`x past the
//                              median of its predecessors
//   degraded:budget-saturated  forced demand (both-endpoint churn hints +
//                              never-measured pairs) has filled the whole
//                              epoch budget for `saturation_epochs`
//                              consecutive epochs — the daemon can no
//                              longer also rotate stale pairs
//   ok                         none of the above
//
// A HealthReport (state + reason + the ring, oldest first) is what
// `topo_getHealth` serves; like the snapshot/diff/status documents it has
// a strict round-tripping JSON codec. Durations are *sim*-time, so the
// report is deterministic across --threads widths; it
// does depend on --shards (per-shard replica warm-up repeats work), like
// campaign traces do.

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/json.h"

namespace topo::monitor {

/// One epoch's ledger entry.
struct EpochStats {
  uint64_t epoch = 0;
  double sim_seconds = 0.0;     ///< campaign makespan (critical path)
  uint64_t events_drained = 0;  ///< simulator events across the epoch's shards
  uint64_t pairs_selected = 0;  ///< pairs this epoch measured
  uint64_t pairs_reprobed = 0;  ///< selected pairs that were already tracked
  uint64_t flips = 0;           ///< verdict changes folded in
  /// Forced demand over budget, where demand counts pairs with *both*
  /// endpoints in this epoch's churn hints (the candidate set every changed
  /// link must be in) plus never-measured pairs. 1.0 means forced work
  /// alone fills the budget; above 1.0 the epoch could not even cover the
  /// forced set.
  double budget_utilization = 0.0;
  double mean_confidence = 0.0;  ///< over tracked links at publish time
  /// Mean staleness of flipped verdicts: epochs since the pair's previous
  /// measurement, averaged over this epoch's flips (0 when none flipped) —
  /// a lower bound on how long each detected change went unseen.
  double detection_lag_epochs = 0.0;

  friend bool operator==(const EpochStats&, const EpochStats&) = default;
};

enum class HealthState : uint8_t {
  kOk = 0,
  kDegradedSlowEpoch,
  kDegradedBudgetSaturated,
  kStalled,
};

/// Wire name: "ok" / "degraded:slow-epoch" / "degraded:budget-saturated" /
/// "stalled".
const char* health_state_name(HealthState s);

/// Inverse of health_state_name; false on an unknown name.
bool health_state_from_name(const std::string& name, HealthState& out);

/// Watchdog knobs. Defaults flag only the unambiguous cases; the absolute
/// slow-epoch cap is off (world sizes vary too much for one number) and
/// the relative cap needs a few epochs of history before it can fire.
struct HealthThresholds {
  /// Absolute sim-seconds cap per epoch; <= 0 disables.
  double slow_epoch_seconds = 0.0;
  /// Latest epoch slower than factor x the median of its predecessors ⇒
  /// degraded:slow-epoch; <= 0 disables.
  double slow_epoch_factor = 3.0;
  /// Predecessor epochs required before the factor rule may fire (keeps
  /// the bootstrap epoch from being judged against nothing).
  size_t slow_epoch_min_history = 3;
  /// budget_utilization at or above this marks an epoch saturated.
  double saturation_utilization = 1.0;
  /// Consecutive saturated epochs ⇒ degraded:budget-saturated.
  size_t saturation_epochs = 2;

  friend bool operator==(const HealthThresholds&, const HealthThresholds&) = default;
};

/// What `topo_getHealth` serves: the verdict plus the evidence.
struct HealthReport {
  HealthState state = HealthState::kStalled;
  std::string reason;              ///< one-line justification of `state`
  std::vector<EpochStats> epochs;  ///< the stats ring, oldest first

  friend bool operator==(const HealthReport&, const HealthReport&) = default;
};

/// Classifies the stats ring (oldest first). Pure and deterministic: equal
/// rings and thresholds produce equal reports, reason string included. The
/// ring is taken by value and returned inside the report.
HealthReport classify_health(std::vector<EpochStats> ring,
                             const HealthThresholds& t);

// -- JSON codec (docs/report-format.md) --------------------------------------
//
// Same contract as the snapshot/diff/status codecs: health_from_json(
// health_to_json(r)) == r, strict field checking, schema string must match.

inline constexpr const char* kHealthSchema = "toposhot-health-v1";

rpc::Json health_to_json(const HealthReport& r);
HealthReport health_from_json(const rpc::Json& j);

}  // namespace topo::monitor
