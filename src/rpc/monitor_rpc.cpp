#include "rpc/monitor_rpc.h"

#include <memory>
#include <optional>

#include "monitor/monitor.h"

namespace topo::rpc {

namespace {

Json method_error(int code, const std::string& message) {
  return Json(JsonObject{{"__error_code", Json(code)},
                         {"__error_message", Json(message)}});
}

}  // namespace

std::string MonitorRpcServer::handle(const std::string& request) {
  return handle_serialized(request,
                           [this](const Json& j) { return handle_json(j); });
}

Json MonitorRpcServer::handle_json(const Json& request) {
  if (!request.is_object() || !request["method"].is_string()) {
    log_error("", kInvalidRequest, "invalid request");
    return make_error_response(request["id"], kInvalidRequest, "invalid request");
  }
  const Json& id = request["id"];
  const std::string& method = request["method"].as_string();
  Json out = dispatch(method, request["params"]);
  if (out.is_object() && out["__error_code"].is_number()) {
    const int code = static_cast<int>(out["__error_code"].as_number());
    const std::string& message = out["__error_message"].as_string();
    log_error(method, code, message);
    return make_error_response(id, code, message);
  }
  return make_result_response(id, std::move(out));
}

void MonitorRpcServer::log_error(const std::string& method, int code,
                                 const std::string& message) {
  mon_->event_log().log(util::LogLevel::kWarn, "rpc", "error",
                        {{"method", Json(method)},
                         {"code", Json(code)},
                         {"message", Json(message)}});
}

Json MonitorRpcServer::dispatch(const std::string& method, const Json& params) {
  if (method == "topo_getSnapshot") {
    std::shared_ptr<const monitor::TopologySnapshot> snap;
    if (params.is_array() && !params.as_array().empty()) {
      const auto version = params[size_t{0}].as_uint();
      if (!version) return method_error(kInvalidParams, "expected [version?]");
      snap = mon_->snapshot(*version);
      if (snap == nullptr) return method_error(kInvalidParams, "unknown version");
    } else {
      snap = mon_->latest();
      if (snap == nullptr) return method_error(kInvalidParams, "no published versions");
    }
    return monitor::snapshot_to_json(*snap);
  }
  if (method == "topo_getDiff") {
    const auto v1 = params[size_t{0}].as_uint();
    const auto v2 = params[size_t{1}].as_uint();
    if (!params.is_array() || !v1 || !v2) {
      return method_error(kInvalidParams, "expected [fromVersion, toVersion]");
    }
    const auto diff = mon_->diff(*v1, *v2);
    if (!diff) return method_error(kInvalidParams, "unknown version");
    return monitor::diff_to_json(*diff);
  }
  if (method == "topo_getStatus") {
    return monitor::status_to_json(mon_->status());
  }
  if (method == "topo_getMetrics") {
    bool raw = false;
    if (params.is_array() && !params.as_array().empty()) {
      const Json& mode = params[0];
      if (!mode.is_string() ||
          (mode.as_string() != "raw" && mode.as_string() != "wrapped")) {
        return method_error(kInvalidParams, "expected [] or [\"raw\"]");
      }
      raw = mode.as_string() == "raw";
    }
    const std::shared_ptr<const std::string> body = mon_->metrics_exposition();
    if (raw) return Json(*body);
    return Json(JsonObject{
        {"schema", Json(kMetricsSchema)},
        {"format", Json("prometheus-text-0.0.4")},
        {"body", Json(*body)},
    });
  }
  if (method == "topo_getHealth") {
    if (params.is_array() && !params.as_array().empty()) {
      return method_error(kInvalidParams, "expected no params");
    }
    return monitor::health_to_json(*mon_->health());
  }
  return method_error(kMethodNotFound, "unknown method: " + method);
}

}  // namespace topo::rpc
