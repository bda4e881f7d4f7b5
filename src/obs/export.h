#pragma once

// Metrics-snapshot exporters reusing the repo's JSON value (src/rpc/json.*).
// Export order is name-sorted and numeric formatting goes through one
// serializer, so identical registries dump byte-identical documents.

#include <optional>
#include <string>

#include "obs/metrics.h"
#include "rpc/json.h"

namespace topo::obs {

/// {"counters": {...}, "gauges": {...}, "gauge_maxes": {...},
///  "histograms": {name: {bounds, counts, count, sum, min, max}}}
rpc::Json snapshot_to_json(const MetricsSnapshot& s);

/// Inverse of snapshot_to_json; nullopt on shape mismatch.
std::optional<MetricsSnapshot> snapshot_from_json(const rpc::Json& j);

/// Writes `doc.dump()` to `path`; false on I/O failure.
bool write_json_file(const std::string& path, const rpc::Json& doc);

}  // namespace topo::obs
