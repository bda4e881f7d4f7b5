#include "monitor/health.h"

#include <algorithm>

#include "monitor/codec.h"

namespace topo::monitor {

namespace {

std::string require_string(const rpc::Json& j, const char* doc,
                           const std::string& field) {
  const rpc::Json& v = j[field];
  if (!v.is_string()) bad_field(doc, field, "a string");
  return v.as_string();
}

/// Deterministic number rendering for reason strings — the same integral
/// fast-path / %.17g policy as every other exported surface.
std::string num(double v) { return rpc::Json(v).dump(); }

/// Median of the predecessors' sim_seconds (everything but the latest
/// entry). `prior` is small (the ring holds tens of epochs), so a copy +
/// nth_element is fine.
double median_sim_seconds(const std::vector<EpochStats>& ring) {
  std::vector<double> prior;
  prior.reserve(ring.size() - 1);
  for (size_t i = 0; i + 1 < ring.size(); ++i) prior.push_back(ring[i].sim_seconds);
  const size_t mid = prior.size() / 2;
  std::nth_element(prior.begin(), prior.begin() + mid, prior.end());
  double m = prior[mid];
  if (prior.size() % 2 == 0) {
    const double lower = *std::max_element(prior.begin(), prior.begin() + mid);
    m = (m + lower) / 2.0;
  }
  return m;
}

}  // namespace

const char* health_state_name(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegradedSlowEpoch: return "degraded:slow-epoch";
    case HealthState::kDegradedBudgetSaturated: return "degraded:budget-saturated";
    case HealthState::kStalled: return "stalled";
  }
  return "unknown";
}

bool health_state_from_name(const std::string& name, HealthState& out) {
  for (HealthState s : {HealthState::kOk, HealthState::kDegradedSlowEpoch,
                        HealthState::kDegradedBudgetSaturated, HealthState::kStalled}) {
    if (name == health_state_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

HealthReport classify_health(std::vector<EpochStats> ring,
                             const HealthThresholds& t) {
  HealthReport r;
  r.epochs = std::move(ring);
  if (r.epochs.empty()) {
    r.state = HealthState::kStalled;
    r.reason = "no epochs published";
    return r;
  }
  const EpochStats& last = r.epochs.back();
  if (last.pairs_selected == 0 || last.events_drained == 0) {
    r.state = HealthState::kStalled;
    r.reason = "epoch " + num(static_cast<double>(last.epoch)) +
               " made no progress (" +
               num(static_cast<double>(last.pairs_selected)) + " pairs selected, " +
               num(static_cast<double>(last.events_drained)) + " events drained)";
    return r;
  }
  if (t.slow_epoch_seconds > 0.0 && last.sim_seconds > t.slow_epoch_seconds) {
    r.state = HealthState::kDegradedSlowEpoch;
    r.reason = "epoch " + num(static_cast<double>(last.epoch)) + " ran " +
               num(last.sim_seconds) + " sim-s, over the absolute cap of " +
               num(t.slow_epoch_seconds);
    return r;
  }
  if (t.slow_epoch_factor > 0.0 && r.epochs.size() > t.slow_epoch_min_history) {
    const double median = median_sim_seconds(r.epochs);
    if (median > 0.0 && last.sim_seconds > t.slow_epoch_factor * median) {
      r.state = HealthState::kDegradedSlowEpoch;
      r.reason = "epoch " + num(static_cast<double>(last.epoch)) + " ran " +
                 num(last.sim_seconds) + " sim-s, over " +
                 num(t.slow_epoch_factor) + "x the prior median of " + num(median);
      return r;
    }
  }
  if (t.saturation_epochs > 0 && r.epochs.size() >= t.saturation_epochs) {
    bool saturated = true;
    for (size_t i = r.epochs.size() - t.saturation_epochs;
         saturated && i < r.epochs.size(); ++i) {
      saturated = r.epochs[i].budget_utilization >= t.saturation_utilization;
    }
    if (saturated) {
      r.state = HealthState::kDegradedBudgetSaturated;
      r.reason = "forced demand filled the epoch budget for " +
                 num(static_cast<double>(t.saturation_epochs)) +
                 " consecutive epochs (latest utilization " +
                 num(last.budget_utilization) + ")";
      return r;
    }
  }
  r.state = HealthState::kOk;
  r.reason = "all signals within thresholds";
  return r;
}

rpc::Json health_to_json(const HealthReport& r) {
  rpc::JsonArray epochs;
  epochs.reserve(r.epochs.size());
  for (const EpochStats& s : r.epochs) {
    epochs.push_back(rpc::Json(rpc::JsonObject{
        {"epoch", rpc::Json(s.epoch)},
        {"sim_seconds", rpc::Json(s.sim_seconds)},
        {"events_drained", rpc::Json(s.events_drained)},
        {"pairs_selected", rpc::Json(s.pairs_selected)},
        {"pairs_reprobed", rpc::Json(s.pairs_reprobed)},
        {"flips", rpc::Json(s.flips)},
        {"budget_utilization", rpc::Json(s.budget_utilization)},
        {"mean_confidence", rpc::Json(s.mean_confidence)},
        {"detection_lag_epochs", rpc::Json(s.detection_lag_epochs)},
    }));
  }
  return rpc::Json(rpc::JsonObject{
      {"schema", rpc::Json(kHealthSchema)},
      {"state", rpc::Json(health_state_name(r.state))},
      {"reason", rpc::Json(r.reason)},
      {"epochs", rpc::Json(std::move(epochs))},
  });
}

HealthReport health_from_json(const rpc::Json& j) {
  static constexpr const char* doc = "health";
  require_schema(j, doc, kHealthSchema);
  HealthReport r;
  if (!health_state_from_name(require_string(j, doc, "state"), r.state))
    bad_field(doc, "state", "a health state name");
  r.reason = require_string(j, doc, "reason");
  const rpc::Json& epochs = j["epochs"];
  if (!epochs.is_array()) bad_field(doc, "epochs", "an array");
  r.epochs.reserve(epochs.as_array().size());
  for (const rpc::Json& e : epochs.as_array()) {
    if (!e.is_object()) bad_field(doc, "epochs", "an array of objects");
    EpochStats s;
    s.epoch = require_uint(e, doc, "epoch");
    s.sim_seconds = require_number(e, doc, "sim_seconds");
    s.events_drained = require_uint(e, doc, "events_drained");
    s.pairs_selected = require_uint(e, doc, "pairs_selected");
    s.pairs_reprobed = require_uint(e, doc, "pairs_reprobed");
    s.flips = require_uint(e, doc, "flips");
    s.budget_utilization = require_number(e, doc, "budget_utilization");
    s.mean_confidence = require_number(e, doc, "mean_confidence");
    s.detection_lag_epochs = require_number(e, doc, "detection_lag_epochs");
    r.epochs.push_back(s);
  }
  return r;
}

}  // namespace topo::monitor
