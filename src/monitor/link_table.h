#pragma once

// Versioned link state for the topology-monitoring daemon (topo::monitor).
//
// A LinkTable is the monitor's working memory: one entry per candidate
// pair that has ever been measured, carrying the latest Verdict, the epoch
// it was last measured, the epoch its verdict last changed, and a
// confidence score that decays with age (half-life in epochs, see
// docs/MONITORING.md). At the end of every epoch the daemon freezes the
// table into an immutable TopologySnapshot; snapshots are the unit served
// over RPC (topo_getSnapshot / topo_getDiff / topo_getStatus) and the unit
// of the determinism contract — they carry no wall-clock or sim-time
// fields, so identical measurement outcomes serialize byte-identically.
//
// Pairs are canonical-undirected (u < v, target-index space): the TopoShot
// probe primitive decides "is there a link between u and v", which is
// symmetric, so a directed table would only duplicate every verdict.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "rpc/json.h"

namespace topo::monitor {

/// Lowercase wire name of a Verdict ("connected" / "negative" /
/// "inconclusive") — the snapshot JSON encoding.
const char* verdict_name(core::Verdict v);

/// Inverse of verdict_name; false on an unknown name.
bool verdict_from_name(const std::string& name, core::Verdict& out);

/// One tracked link in a published snapshot. `confidence` is the decayed
/// score *at the snapshot's epoch*: 1.0 when measured this epoch, halved
/// every `decay_half_life` epochs since, forced to 0.0 while a churn hint
/// marks the entry stale.
struct LinkEntry {
  size_t u = 0;  ///< canonical endpoint, u < v (target indices)
  size_t v = 0;
  core::Verdict verdict = core::Verdict::kInconclusive;
  double confidence = 0.0;
  uint64_t measured_epoch = 0;  ///< epoch of the latest measurement
  uint64_t changed_epoch = 0;   ///< epoch the verdict last changed (or first appeared)

  friend bool operator==(const LinkEntry&, const LinkEntry&) = default;
};

/// Immutable end-of-epoch publication. `version` is the read-API handle
/// (topo_getSnapshot / topo_getDiff address these); it equals `epoch`
/// because the daemon publishes exactly once per epoch, but RPC clients
/// should treat it as opaque. Entries are sorted by (u, v), so equal
/// measurement outcomes produce byte-identical JSON.
struct TopologySnapshot {
  uint64_t version = 0;
  uint64_t epoch = 0;
  size_t nodes = 0;
  size_t pairs_total = 0;        ///< n*(n-1)/2 candidate pairs
  uint64_t pairs_measured = 0;   ///< cumulative pair measurements, all epochs
  uint64_t changes_observed = 0; ///< cumulative verdict flips folded in
  std::vector<LinkEntry> links;  ///< every pair measured at least once, sorted

  size_t connected_count() const;
  size_t inconclusive_count() const;

  /// Entry for canonical pair (u, v); nullptr when never measured.
  const LinkEntry* find(size_t u, size_t v) const;

  friend bool operator==(const TopologySnapshot&, const TopologySnapshot&) = default;
};

/// One verdict transition between two snapshot versions.
struct VerdictChange {
  size_t u = 0;
  size_t v = 0;
  core::Verdict from = core::Verdict::kInconclusive;  ///< kInconclusive for new pairs
  core::Verdict to = core::Verdict::kInconclusive;

  friend bool operator==(const VerdictChange&, const VerdictChange&) = default;
};

/// Difference between two published versions (topo_getDiff). `added` /
/// `removed` track the connected link set (a pair newly measured as
/// connected counts as added); `changed` lists *every* verdict transition,
/// including flips through kInconclusive, so added/removed are the subsets
/// of `changed` that cross kConnected. All lists sorted by (u, v).
struct TopologyDiff {
  uint64_t from = 0;
  uint64_t to = 0;
  std::vector<std::pair<size_t, size_t>> added;
  std::vector<std::pair<size_t, size_t>> removed;
  std::vector<VerdictChange> changed;

  bool empty() const { return added.empty() && removed.empty() && changed.empty(); }

  friend bool operator==(const TopologyDiff&, const TopologyDiff&) = default;
};

/// Aggregate daemon state (topo_getStatus). A pure function of the latest
/// snapshot plus the version count, so it inherits the snapshot's
/// determinism contract byte for byte.
struct MonitorStatus {
  uint64_t epoch = 0;     ///< epochs completed
  uint64_t version = 0;   ///< latest published version
  uint64_t versions = 0;  ///< number of published versions
  size_t nodes = 0;
  size_t pairs_total = 0;
  size_t pairs_tracked = 0;  ///< measured at least once
  size_t links_connected = 0;
  size_t links_inconclusive = 0;
  double coverage = 0.0;  ///< pairs_tracked / pairs_total
  uint64_t pairs_measured = 0;
  uint64_t changes_observed = 0;
  /// Histogram of per-link confidence at the latest epoch: 10 uniform bins
  /// over [0, 1], last bin closed (confidence 1.0 lands in bin 9).
  std::array<uint64_t, 10> confidence_histogram{};
  // Ring-pressure telemetry (status-v2): the daemon's own event log, so an
  // RPC client can see an undersized ring. Filled by
  // TopologyMonitor::status(), zero from make_status alone. The two trace
  // fields have no source and always read 0; they stay so status-v2
  // documents keep their schema.
  uint64_t trace_total_pushed = 0;
  uint64_t trace_dropped = 0;
  uint64_t log_dropped = 0;  ///< obs.log.dropped (event-log overwrites)

  friend bool operator==(const MonitorStatus&, const MonitorStatus&) = default;
};

/// Structural diff of two snapshots (any two versions, either order —
/// from/to are taken from the arguments).
TopologyDiff compute_diff(const TopologySnapshot& from, const TopologySnapshot& to);

/// Status derived from the latest snapshot (see MonitorStatus).
MonitorStatus make_status(const TopologySnapshot& latest, uint64_t versions);

// -- JSON codecs (docs/report-format.md) -------------------------------------
//
// Every *_to_json / *_from_json pair round-trips exactly: from_json(to_json(x))
// == x for all representable values (doubles serialize through the %.17g
// path, which parses back bit-identically). from_json is strict — a missing
// field, a wrong type, or an unknown verdict name throws std::runtime_error
// naming the offending field; extra fields are rejected nowhere (forward
// compatibility), but the schema version string must match.

inline constexpr const char* kSnapshotSchema = "toposhot-snapshot-v1";
inline constexpr const char* kDiffSchema = "toposhot-diff-v1";
inline constexpr const char* kStatusSchema = "toposhot-status-v2";

rpc::Json snapshot_to_json(const TopologySnapshot& s);
TopologySnapshot snapshot_from_json(const rpc::Json& j);

rpc::Json diff_to_json(const TopologyDiff& d);
TopologyDiff diff_from_json(const rpc::Json& j);

rpc::Json status_to_json(const MonitorStatus& s);
MonitorStatus status_from_json(const rpc::Json& j);

// -- working table ------------------------------------------------------------

/// Mutable epoch-to-epoch state behind the published snapshots. Owned and
/// mutated only by the daemon's measurement loop; RPC readers never touch
/// it (they read published snapshots).
class LinkTable {
 public:
  struct Entry {
    core::Verdict verdict = core::Verdict::kInconclusive;
    uint64_t measured_epoch = 0;
    uint64_t changed_epoch = 0;
    /// Churn-hint strength: how many of the pair's endpoints churned since
    /// the last measurement (capped at 2). Any hint forces confidence to 0;
    /// both-endpoint hints additionally outrank single-endpoint ones in the
    /// re-measurement priority, because a changed link always churns *both*
    /// of its endpoints and that candidate set is small.
    uint8_t hints = 0;
  };

  explicit LinkTable(size_t nodes) : nodes_(nodes) {}

  size_t nodes() const { return nodes_; }
  size_t pairs_total() const { return nodes_ < 2 ? 0 : nodes_ * (nodes_ - 1) / 2; }
  size_t tracked() const { return entries_.size(); }
  /// Entries currently carrying a churn hint of at least `min_strength`
  /// (confidence forced to 0 until re-measured). Strength 2 means both
  /// endpoints churned since the pair's last measurement — not necessarily
  /// in the same epoch, so the watchdog's per-epoch forced-demand count is
  /// computed from the epoch's own hint set instead; strength-1 entries
  /// are speculative fan-out (O(nodes) per churned peer), prioritized but
  /// not obligatory.
  size_t hinted(uint8_t min_strength = 1) const;

  /// Entry for canonical pair (u, v); nullptr when never measured.
  const Entry* find(size_t u, size_t v) const;

  /// Folds one fresh verdict in at `epoch`: updates measured_epoch, clears
  /// any hint, and bumps changed_epoch when the verdict flipped. Returns
  /// true on a flip (a change the monitor *observed*); first-ever verdicts
  /// for a pair are not flips.
  bool record(size_t u, size_t v, core::Verdict verdict, uint64_t epoch);

  /// Marks every pair incident to `node` stale (confidence 0 until
  /// re-measured) — the discovery-hint reaction to observed peer churn.
  /// Calling it for both endpoints of a pair within one hint round raises
  /// that pair's hint strength to 2 (front of the priority order). Only
  /// already-tracked pairs gain the flag; untracked pairs are already at
  /// confidence 0. Returns the number of entries newly hinted.
  size_t hint_node(size_t node);

  /// Decayed confidence of pair (u, v) as of `epoch`:
  ///   2^-((epoch - measured_epoch) / half_life)
  /// 0.0 when never measured or hinted. half_life <= 0 disables decay
  /// (measured pairs keep confidence 1.0 until hinted).
  double confidence(size_t u, size_t v, uint64_t epoch, double half_life) const;

  /// Freezes the table into a published snapshot at `epoch` (entries
  /// sorted, confidences evaluated at `epoch` with `half_life`).
  TopologySnapshot snapshot(uint64_t epoch, double half_life, uint64_t pairs_measured,
                            uint64_t changes_observed) const;

  /// All candidate pairs ordered by re-measurement priority: descending
  /// hint strength first (both-endpoint hints, then single), then
  /// ascending (confidence, measured_epoch, u, v) — stalest and
  /// least-known first. Never-measured and hinted pairs sort ahead of
  /// every decayed-but-positive confidence. The daemon takes the top
  /// `epoch_budget` of this order each epoch.
  std::vector<std::pair<size_t, size_t>> prioritized_pairs(uint64_t epoch,
                                                           double half_life) const;

 private:
  static uint64_t key(size_t u, size_t v) {
    return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
  }

  size_t nodes_;
  // Ordered map: iteration order == canonical (u, v) order, which keeps
  // snapshot construction and pair prioritization allocation-light and
  // deterministic without a sort over all n^2/2 keys.
  std::map<uint64_t, Entry> entries_;
};

}  // namespace topo::monitor
