#pragma once

// Structured, leveled event log for long-running services (the monitor
// daemon, docs/OBSERVABILITY.md). Every entry carries a *simulation*-time
// stamp (never wall clock, per the obs determinism rule), a level, a
// subsystem tag, a machine-readable event name, and structured fields; the
// log renders as JSON lines (`to_jsonl`), one object per entry.
//
// Storage is a bounded ring: when full, the oldest
// entry is overwritten and counted as dropped, so instrumentation can stay
// on for unbounded runs. Entries below the effective severity threshold
// (global, overridable per subsystem) are filtered before they reach the
// ring and counted separately as suppressed — suppression is policy,
// dropping is pressure, and only the latter signals an undersized ring.
//
// The log is internally synchronized: any thread may append or read. The
// clock is a plain sample-and-hold set by the owning loop (`set_clock`);
// concurrent writers stamp with whatever epoch time the loop last
// published, which keeps stamps deterministic where the caller is.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rpc/json.h"
#include "util/log.h"

namespace topo::obs {

/// Lowercase wire name of a level ("debug"/"info"/"warn"/"error"/"off").
const char* log_level_name(util::LogLevel level);

/// Inverse of log_level_name; false on an unknown name.
bool log_level_from_name(const std::string& name, util::LogLevel& out);

/// One structured log entry. `fields` keeps insertion order in memory;
/// the JSON rendering sorts keys (JsonObject is an ordered map), so equal
/// entries serialize byte-identically regardless of construction order.
struct LogEvent {
  double t = 0.0;  ///< simulation seconds
  util::LogLevel level = util::LogLevel::kInfo;
  std::string subsystem;
  std::string event;
  std::vector<std::pair<std::string, rpc::Json>> fields;

  friend bool operator==(const LogEvent&, const LogEvent&) = default;
};

/// `{"event":...,"fields":{...},"level":...,"subsystem":...,"t":...}`.
rpc::Json log_event_to_json(const LogEvent& e);

class EventLog {
 public:
  explicit EventLog(size_t capacity = kDefaultCapacity);

  /// Publishes the sim-time stamp subsequent entries carry.
  void set_clock(double sim_seconds);
  double clock() const;

  /// Global severity threshold (default kInfo: debug entries suppressed).
  void set_threshold(util::LogLevel level);
  /// Per-subsystem override; wins over the global threshold for matching
  /// entries.
  void set_threshold(const std::string& subsystem, util::LogLevel level);
  /// Effective threshold for `subsystem`.
  util::LogLevel threshold(const std::string& subsystem) const;

  bool would_log(util::LogLevel level, const std::string& subsystem) const;

  /// Appends one entry stamped with the current clock; suppressed when
  /// below the subsystem's effective threshold.
  void log(util::LogLevel level, std::string subsystem, std::string event,
           std::vector<std::pair<std::string, rpc::Json>> fields = {});

  size_t capacity() const { return capacity_; }
  size_t size() const;
  /// Entries accepted past the threshold filter, lifetime.
  uint64_t total_pushed() const;
  /// Accepted entries later overwritten by ring wrap-around.
  uint64_t dropped() const;
  /// Entries filtered out by severity thresholds, lifetime.
  uint64_t suppressed() const;

  /// Buffered entries, oldest first.
  std::vector<LogEvent> events() const;

  /// Buffered entries as JSON lines, oldest first, one '\n'-terminated
  /// object per entry.
  std::string to_jsonl() const;

  void clear();

  static constexpr size_t kDefaultCapacity = 1024;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<LogEvent> ring_;  // grows to capacity_, then wraps at head_
  size_t head_ = 0;             // next overwrite slot once full
  uint64_t total_ = 0;          // lifetime accepted entries
  uint64_t suppressed_ = 0;
  double clock_ = 0.0;
  util::LogLevel threshold_ = util::LogLevel::kInfo;
  std::map<std::string, util::LogLevel> subsystem_thresholds_;
};

}  // namespace topo::obs
