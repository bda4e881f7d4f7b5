#include "core/report_io.h"

#include <fstream>
#include <limits>
#include <sstream>

namespace topo::core {

using rpc::Json;
using rpc::JsonArray;
using rpc::JsonObject;

Json graph_to_json(const graph::Graph& g) {
  JsonArray edges;
  for (const auto& [u, v] : g.edges()) {
    edges.push_back(Json(JsonArray{Json(static_cast<uint64_t>(u)),
                                   Json(static_cast<uint64_t>(v))}));
  }
  return Json(JsonObject{
      {"nodes", Json(static_cast<uint64_t>(g.num_nodes()))},
      {"edges", Json(std::move(edges))},
  });
}

std::optional<graph::Graph> graph_from_json(const Json& j) {
  const std::optional<uint64_t> n = j["nodes"].as_uint();
  if (!j.is_object() || !n || !j["edges"].is_array()) return std::nullopt;
  graph::Graph g(*n);
  for (const auto& e : j["edges"].as_array()) {
    const std::optional<uint64_t> u = e[size_t{0}].as_uint();
    const std::optional<uint64_t> v = e[size_t{1}].as_uint();
    if (!e.is_array() || e.as_array().size() != 2 || !u || !v || *u >= *n || *v >= *n) {
      return std::nullopt;
    }
    g.add_edge(static_cast<graph::NodeId>(*u), static_cast<graph::NodeId>(*v));
  }
  return g;
}

namespace {

Json fault_to_json(const FaultReport& f) {
  JsonArray retried;
  for (const RetriedPair& p : f.retried) {
    retried.push_back(Json(JsonArray{Json(static_cast<uint64_t>(p.u)),
                                     Json(static_cast<uint64_t>(p.v)),
                                     Json(static_cast<uint64_t>(p.attempts))}));
  }
  return Json(JsonObject{
      {"drop_tx", Json(f.drop_tx)},
      {"drop_announce", Json(f.drop_announce)},
      {"drop_get_tx", Json(f.drop_get_tx)},
      {"spike_prob", Json(f.spike_prob)},
      {"spike_mult", Json(f.spike_mult)},
      {"churn_rate", Json(f.churn_rate)},
      {"retries", Json(static_cast<uint64_t>(f.retries))},
      {"attempts", Json(f.attempts)},
      {"inconclusive", Json(f.inconclusive)},
      {"retried", Json(std::move(retried))},
  });
}

/// Cause-keyed object of a per-cause tally array ({"none": n, ...}, every
/// cause name present so consumers never probe for missing keys).
Json causes_to_json(const std::array<uint64_t, obs::kNumProbeCauses>& tallies) {
  JsonObject obj;
  for (size_t c = 0; c < obs::kNumProbeCauses; ++c) {
    obj.emplace(obs::probe_cause_name(static_cast<obs::ProbeCause>(c)), Json(tallies[c]));
  }
  return Json(std::move(obj));
}

Json diagnostics_to_json(const DiagnosticsReport& d) {
  JsonArray inconclusive;
  for (const PairDiagnostic& p : d.inconclusive) {
    inconclusive.push_back(Json(JsonArray{Json(static_cast<uint64_t>(p.u)),
                                          Json(static_cast<uint64_t>(p.v)),
                                          Json(obs::probe_cause_name(p.cause))}));
  }
  return Json(JsonObject{
      {"causes", causes_to_json(d.causes)},
      {"cleared", causes_to_json(d.cleared)},
      {"inconclusive", Json(std::move(inconclusive))},
  });
}

}  // namespace

Json report_to_json(const NetworkMeasurementReport& report) {
  JsonObject obj{
      {"format", Json("toposhot-report-v1")},
      {"topology", graph_to_json(report.measured)},
      {"iterations", Json(static_cast<uint64_t>(report.iterations))},
      {"pairs_tested", Json(static_cast<uint64_t>(report.pairs_tested))},
      {"sim_seconds", Json(report.sim_seconds)},
      {"txs_sent", Json(report.txs_sent)},
  };
  // Non-default strategy only: default (TopoShot) reports keep the exact
  // pre-seam document shape, byte for byte.
  if (report.strategy != StrategyKind::kToposhot) {
    obj.emplace("strategy", Json(std::string(strategy_name(report.strategy))));
  }
  // Emitted only when present, so unfaulted reports stay byte-identical to
  // pre-fault builds. Same policy for the diagnostics annex.
  if (report.fault.has_value()) obj.emplace("fault", fault_to_json(*report.fault));
  if (report.diagnostics.has_value()) {
    obj.emplace("diagnostics", diagnostics_to_json(*report.diagnostics));
  }
  return Json(std::move(obj));
}

namespace {

/// Strict field read for the non-negative numeric report fields; a missing,
/// wrong-typed, or negative value rejects the whole document (a truncated
/// or hand-edited report must not load as a zero-filled one).
bool read_count(const Json& j, const char* key, double& out) {
  const Json& field = j[key];
  if (!field.is_number() || field.as_number() < 0.0) return false;
  out = field.as_number();
  return true;
}

/// The same for the integer fields, which must also be integral and
/// representable (Json::as_uint).
template <typename T>
bool read_uint(const Json& j, const char* key, T& out) {
  const std::optional<uint64_t> v = j[key].as_uint();
  if (!v) return false;
  out = static_cast<T>(*v);
  return true;
}

/// Strict parse of the optional fault annex. Same policy as the top-level
/// fields: any malformed member rejects the whole document.
std::optional<FaultReport> fault_from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  FaultReport f;
  if (!read_count(j, "drop_tx", f.drop_tx) || !read_count(j, "drop_announce", f.drop_announce) ||
      !read_count(j, "drop_get_tx", f.drop_get_tx) ||
      !read_count(j, "spike_prob", f.spike_prob) || !read_count(j, "spike_mult", f.spike_mult) ||
      !read_count(j, "churn_rate", f.churn_rate) || !read_uint(j, "retries", f.retries) ||
      !read_uint(j, "attempts", f.attempts) || !read_uint(j, "inconclusive", f.inconclusive) ||
      !j["retried"].is_array()) {
    return std::nullopt;
  }
  for (const auto& e : j["retried"].as_array()) {
    const std::optional<uint64_t> u = e[size_t{0}].as_uint();
    const std::optional<uint64_t> v = e[size_t{1}].as_uint();
    const std::optional<uint64_t> attempts = e[size_t{2}].as_uint();
    if (!e.is_array() || e.as_array().size() != 3 || !u || !v || !attempts ||
        *attempts > std::numeric_limits<uint32_t>::max()) {
      return std::nullopt;
    }
    f.retried.push_back({*u, *v, static_cast<uint32_t>(*attempts)});
  }
  return f;
}

/// Strict read of a cause-keyed tally object: exactly one non-negative
/// integer entry per known cause name, nothing else.
bool causes_from_json(const Json& j, std::array<uint64_t, obs::kNumProbeCauses>& out) {
  if (!j.is_object() || j.as_object().size() != obs::kNumProbeCauses) return false;
  for (size_t c = 0; c < obs::kNumProbeCauses; ++c) {
    if (!read_uint(j, obs::probe_cause_name(static_cast<obs::ProbeCause>(c)), out[c])) {
      return false;
    }
  }
  return true;
}

/// Strict parse of the optional diagnostics annex; any malformed member
/// (including an unknown cause name) rejects the whole document.
std::optional<DiagnosticsReport> diagnostics_from_json(const Json& j) {
  if (!j.is_object()) return std::nullopt;
  DiagnosticsReport d;
  if (!causes_from_json(j["causes"], d.causes) || !causes_from_json(j["cleared"], d.cleared) ||
      !j["inconclusive"].is_array()) {
    return std::nullopt;
  }
  for (const auto& e : j["inconclusive"].as_array()) {
    const std::optional<uint64_t> u = e[size_t{0}].as_uint();
    const std::optional<uint64_t> v = e[size_t{1}].as_uint();
    if (!e.is_array() || e.as_array().size() != 3 || !u || !v || !e[size_t{2}].is_string()) {
      return std::nullopt;
    }
    obs::ProbeCause cause = obs::ProbeCause::kNone;
    if (!obs::probe_cause_from_name(e[size_t{2}].as_string(), cause)) return std::nullopt;
    d.inconclusive.push_back({*u, *v, cause});
  }
  return d;
}

}  // namespace

std::optional<NetworkMeasurementReport> report_from_json(const Json& j) {
  if (!j.is_object() || !j["format"].is_string() ||
      j["format"].as_string() != "toposhot-report-v1") {
    return std::nullopt;
  }
  NetworkMeasurementReport report;
  if (!read_uint(j, "iterations", report.iterations) ||
      !read_uint(j, "pairs_tested", report.pairs_tested) ||
      !read_count(j, "sim_seconds", report.sim_seconds) ||
      !read_uint(j, "txs_sent", report.txs_sent)) {
    return std::nullopt;
  }
  auto topo = graph_from_json(j["topology"]);
  if (!topo) return std::nullopt;
  report.measured = std::move(*topo);
  if (!j["strategy"].is_null()) {
    // Strict like everything else: a present field must be a known name
    // (absent means the default TopoShot strategy).
    if (!j["strategy"].is_string() ||
        !strategy_from_name(j["strategy"].as_string(), report.strategy)) {
      return std::nullopt;
    }
  }
  if (!j["fault"].is_null()) {
    auto f = fault_from_json(j["fault"]);
    if (!f) return std::nullopt;
    report.fault = std::move(*f);
  }
  if (!j["diagnostics"].is_null()) {
    auto d = diagnostics_from_json(j["diagnostics"]);
    if (!d) return std::nullopt;
    report.diagnostics = std::move(*d);
  }
  return report;
}

bool save_report(const NetworkMeasurementReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << report_to_json(report).dump() << '\n';
  return static_cast<bool>(out);
}

std::optional<NetworkMeasurementReport> load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::parse(buffer.str());
  if (!parsed) return std::nullopt;
  return report_from_json(*parsed);
}

}  // namespace topo::core
