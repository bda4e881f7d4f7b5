#include "obs/export.h"

#include <fstream>

namespace topo::obs {

namespace {

rpc::Json histogram_to_json(const HistogramSnapshot& h) {
  rpc::JsonObject o;
  rpc::JsonArray bounds;
  for (double b : h.bounds) bounds.emplace_back(b);
  rpc::JsonArray counts;
  for (uint64_t c : h.counts) counts.emplace_back(c);
  o["bounds"] = rpc::Json(std::move(bounds));
  o["counts"] = rpc::Json(std::move(counts));
  o["count"] = rpc::Json(h.count);
  o["sum"] = rpc::Json(h.sum);
  o["min"] = rpc::Json(h.min);
  o["max"] = rpc::Json(h.max);
  return rpc::Json(std::move(o));
}

std::optional<HistogramSnapshot> histogram_from_json(const rpc::Json& j) {
  if (!j.is_object()) return std::nullopt;
  const rpc::Json& bounds = j["bounds"];
  const rpc::Json& counts = j["counts"];
  if (!bounds.is_array() || !counts.is_array()) return std::nullopt;
  HistogramSnapshot h;
  for (const auto& b : bounds.as_array()) {
    if (!b.is_number()) return std::nullopt;
    h.bounds.push_back(b.as_number());
  }
  for (const auto& c : counts.as_array()) {
    const std::optional<uint64_t> n = c.as_uint();
    if (!n) return std::nullopt;
    h.counts.push_back(*n);
  }
  const std::optional<uint64_t> count = j["count"].as_uint();
  if (!count || !j["sum"].is_number() || !j["min"].is_number() || !j["max"].is_number()) {
    return std::nullopt;
  }
  h.count = *count;
  h.sum = j["sum"].as_number();
  h.min = j["min"].as_number();
  h.max = j["max"].as_number();
  return h;
}

}  // namespace

rpc::Json snapshot_to_json(const MetricsSnapshot& s) {
  rpc::JsonObject counters;
  for (const auto& [name, v] : s.counters) counters[name] = rpc::Json(v);
  rpc::JsonObject gauges;
  for (const auto& [name, v] : s.gauges) gauges[name] = rpc::Json(v);
  rpc::JsonObject maxes;
  for (const auto& [name, v] : s.gauge_maxes) maxes[name] = rpc::Json(v);
  rpc::JsonObject histograms;
  for (const auto& [name, h] : s.histograms) histograms[name] = histogram_to_json(h);

  rpc::JsonObject root;
  root["counters"] = rpc::Json(std::move(counters));
  root["gauges"] = rpc::Json(std::move(gauges));
  root["gauge_maxes"] = rpc::Json(std::move(maxes));
  root["histograms"] = rpc::Json(std::move(histograms));
  return rpc::Json(std::move(root));
}

std::optional<MetricsSnapshot> snapshot_from_json(const rpc::Json& j) {
  if (!j.is_object()) return std::nullopt;
  const rpc::Json& counters = j["counters"];
  const rpc::Json& gauges = j["gauges"];
  const rpc::Json& maxes = j["gauge_maxes"];
  const rpc::Json& histograms = j["histograms"];
  if (!counters.is_object() || !gauges.is_object() || !maxes.is_object() ||
      !histograms.is_object()) {
    return std::nullopt;
  }
  MetricsSnapshot s;
  for (const auto& [name, v] : counters.as_object()) {
    const std::optional<uint64_t> n = v.as_uint();
    if (!n) return std::nullopt;
    s.counters[name] = *n;
  }
  for (const auto& [name, v] : gauges.as_object()) {
    if (!v.is_number()) return std::nullopt;
    s.gauges[name] = v.as_number();
  }
  for (const auto& [name, v] : maxes.as_object()) {
    if (!v.is_number()) return std::nullopt;
    s.gauge_maxes[name] = v.as_number();
  }
  for (const auto& [name, v] : histograms.as_object()) {
    auto h = histogram_from_json(v);
    if (!h) return std::nullopt;
    s.histograms[name] = std::move(*h);
  }
  return s;
}

bool write_json_file(const std::string& path, const rpc::Json& doc) {
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace topo::obs
