#pragma once

// Prometheus text exposition (format 0.0.4) of a metrics snapshot — the
// live-telemetry rendering behind `topo_getMetrics` and monitord's
// `--prom-out` (docs/OBSERVABILITY.md).
//
// The output is a pure function of the snapshot: families render in
// name-sorted order (counters, then gauges with their `_max` high-water
// companions, then histograms), and every number goes through the same
// integral-fast-path / %.17g formatter as the JSON exports. Snapshots that
// compare equal therefore expose byte-identically — which is what lets the
// monitor daemon promise identical exposition bytes across `--threads`
// widths.

#include <string>

#include "obs/metrics.h"

namespace topo::obs {

/// Maps an internal dotted metric name ("monitor.pairs_measured") onto the
/// Prometheus charset: every byte outside [a-zA-Z0-9_:] becomes '_', and a
/// name starting with a digit gains a '_' prefix. Empty names stay empty.
std::string sanitize_metric_name(const std::string& name);

/// Renders the snapshot in Prometheus text exposition format 0.0.4.
/// Counters and gauges emit one `# TYPE` line plus one sample; every gauge
/// with a recorded high-water mark also emits a `<name>_max` gauge.
/// Histograms emit cumulative `<name>_bucket{le="..."}` samples (one per
/// upper bound, plus `le="+Inf"` equal to the observation count), then
/// `<name>_sum` and `<name>_count`.
std::string expose_prometheus(const MetricsSnapshot& snap);

/// Convenience overload: snapshots the registry and renders it.
std::string expose_prometheus(const MetricsRegistry& registry);

}  // namespace topo::obs
