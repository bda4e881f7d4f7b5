#include "rpc/rpc.h"

#include <limits>

#include "p2p/node.h"
#include "wire/messages.h"

namespace topo::rpc {

std::string hash_to_hex(eth::TxHash h) {
  std::vector<uint8_t> bytes(32, 0);
  for (int i = 0; i < 8; ++i) bytes[31 - i] = static_cast<uint8_t>(h >> (8 * i));
  return to_hex_bytes(bytes);
}

std::optional<eth::TxHash> hash_from_hex(const std::string& s) {
  auto bytes = from_hex_bytes(s);
  if (!bytes || bytes->size() != 32) return std::nullopt;
  for (size_t i = 0; i < 24; ++i) {
    if ((*bytes)[i] != 0) return std::nullopt;
  }
  eth::TxHash h = 0;
  for (size_t i = 24; i < 32; ++i) h = (h << 8) | (*bytes)[i];
  return h;
}

Json make_error_response(const Json& id, int code, const std::string& message) {
  return Json(JsonObject{
      {"jsonrpc", Json("2.0")},
      {"id", id},
      {"error", Json(JsonObject{{"code", Json(code)}, {"message", Json(message)}})},
  });
}

Json make_result_response(const Json& id, Json value) {
  return Json(JsonObject{
      {"jsonrpc", Json("2.0")},
      {"id", id},
      {"result", std::move(value)},
  });
}

std::string handle_serialized(const std::string& request,
                              const std::function<Json(const Json&)>& handle_one) {
  const auto parsed = Json::parse(request);
  if (!parsed) return make_error_response(Json(), kParseError, "parse error").dump();
  if (!parsed->is_array()) return handle_one(*parsed).dump();
  const JsonArray& batch = parsed->as_array();
  if (batch.empty()) {
    return make_error_response(Json(), kInvalidRequest, "empty batch").dump();
  }
  JsonArray responses;
  for (const Json& entry : batch) {
    // A notification is a request *object* that lacks an "id" member
    // entirely (operator[] cannot tell absent from null, so look it up in
    // the object). Invalid entries (non-objects) still earn an error
    // response with a null id.
    const bool notification =
        entry.is_object() && entry.as_object().find("id") == entry.as_object().end();
    Json response = handle_one(entry);
    if (!notification) responses.push_back(std::move(response));
  }
  if (responses.empty()) return std::string();
  return Json(std::move(responses)).dump();
}

RpcServer::RpcServer(p2p::Network* net, p2p::PeerId node, uint64_t network_id)
    : net_(net), node_(node), network_id_(network_id) {}

Json RpcServer::error(const Json& id, int code, const std::string& message) const {
  return make_error_response(id, code, message);
}

Json RpcServer::result(const Json& id, Json value) const {
  return make_result_response(id, std::move(value));
}

std::string RpcServer::handle(const std::string& request) {
  return handle_serialized(request, [this](const Json& j) { return handle_json(j); });
}

Json RpcServer::handle_json(const Json& request) {
  if (!request.is_object() || !request["method"].is_string()) {
    return error(request["id"], kInvalidRequest, "invalid request");
  }
  const Json& id = request["id"];
  const std::string& method = request["method"].as_string();
  const Json& params = request["params"];
  Json out = dispatch(method, params);
  if (out.is_object() && out["__error_code"].is_number()) {
    return error(id, static_cast<int>(out["__error_code"].as_number()),
                 out["__error_message"].as_string());
  }
  return result(id, std::move(out));
}

namespace {
Json rpc_error(int code, const std::string& message) {
  return Json(JsonObject{{"__error_code", Json(code)}, {"__error_message", Json(message)}});
}
}  // namespace

Json RpcServer::tx_to_json(const eth::Transaction& tx, bool include_pool_state) const {
  JsonObject out{
      {"hash", Json(hash_to_hex(tx.hash()))},
      {"nonce", Json(to_hex_quantity(tx.nonce))},
      {"from", Json(to_hex_quantity(tx.sender))},
      {"to", Json(to_hex_quantity(tx.to))},
      {"value", Json(to_hex_quantity(tx.value))},
      {"gas", Json(to_hex_quantity(tx.gas))},
  };
  if (tx.fee1559) {
    out["maxFeePerGas"] = Json(to_hex_quantity(tx.fee1559->max_fee));
    out["maxPriorityFeePerGas"] = Json(to_hex_quantity(tx.fee1559->priority_fee));
    out["type"] = Json("0x2");
  } else {
    out["gasPrice"] = Json(to_hex_quantity(tx.gas_price));
    out["type"] = Json("0x0");
  }
  if (include_pool_state) {
    out["blockNumber"] = Json();  // null while unconfirmed
  }
  return Json(std::move(out));
}

Json RpcServer::dispatch(const std::string& method, const Json& params) {
  auto& node = net_->node(node_);

  if (method == "web3_clientVersion") {
    std::string version = node.client_version();
    if (!node.config().service.empty()) version += "/" + node.config().service;
    return Json(version);
  }
  if (method == "net_version") return Json(std::to_string(network_id_));
  if (method == "eth_gasPrice") {
    // Geth's oracle suggests a price from recent state; the pool median is
    // the estimator TopoShot's Y configuration uses (§5.2.1).
    return Json(to_hex_quantity(node.pool().median_pending_price()));
  }
  if (method == "net_peerCount") {
    return Json(to_hex_quantity(net_->peers_of(node_).size()));
  }
  if (method == "eth_blockNumber") {
    const uint64_t height = net_->chain().height();
    return Json(to_hex_quantity(height == 0 ? 0 : height - 1));
  }
  if (method == "eth_getBlockByNumber") {
    if (!params.is_array() || !params[size_t{0}].is_string()) {
      return rpc_error(kInvalidParams, "expected [blockNumber, fullTx]");
    }
    auto number = from_hex_quantity(params[size_t{0}].as_string());
    if (!number || *number >= net_->chain().height()) return Json();  // null
    const auto& block = net_->chain().blocks()[*number];
    const bool full = params[size_t{1}].is_bool() && params[size_t{1}].as_bool();
    JsonArray txs;
    for (const auto& tx : block.txs) {
      txs.push_back(full ? tx_to_json(tx, false) : Json(hash_to_hex(tx.hash())));
    }
    return Json(JsonObject{
        {"number", Json(to_hex_quantity(block.number))},
        {"timestamp", Json(to_hex_quantity(static_cast<uint64_t>(block.timestamp)))},
        {"gasLimit", Json(to_hex_quantity(block.gas_limit))},
        {"gasUsed", Json(to_hex_quantity(block.gas_used))},
        {"baseFeePerGas", Json(to_hex_quantity(block.base_fee))},
        {"transactions", Json(std::move(txs))},
    });
  }
  if (method == "eth_getTransactionByHash") {
    if (!params.is_array() || !params[size_t{0}].is_string()) {
      return rpc_error(kInvalidParams, "expected [txHash]");
    }
    auto hash = hash_from_hex(params[size_t{0}].as_string());
    if (!hash) return rpc_error(kInvalidParams, "malformed hash");
    if (const auto* tx = node.pool().find_hash(*hash)) return tx_to_json(*tx, true);
    if (net_->chain().includes(*hash)) {
      for (const auto& block : net_->chain().blocks()) {
        for (const auto& tx : block.txs) {
          if (tx.hash() == *hash) {
            Json out = tx_to_json(tx, false);
            out.as_object()["blockNumber"] = Json(to_hex_quantity(block.number));
            return out;
          }
        }
      }
    }
    return Json();  // null: unknown (the §6.1 "txC evicted" signal)
  }
  if (method == "eth_sendRawTransaction") {
    if (!params.is_array() || !params[size_t{0}].is_string()) {
      return rpc_error(kInvalidParams, "expected [rawTx]");
    }
    auto bytes = from_hex_bytes(params[size_t{0}].as_string());
    if (!bytes) return rpc_error(kInvalidParams, "malformed hex");
    auto tx = wire::decode_transaction(*bytes);
    if (!tx) return rpc_error(kInvalidParams, "undecodable transaction");
    const auto outcome = node.submit(*tx);
    if (!outcome.admitted()) {
      return rpc_error(kInvalidParams,
                       std::string("rejected: ") + mempool::admit_code_name(outcome.code));
    }
    return Json(hash_to_hex(tx->hash()));
  }
  if (method == "txpool_status") {
    return Json(JsonObject{
        {"pending", Json(to_hex_quantity(node.pool().pending_count()))},
        {"queued", Json(to_hex_quantity(node.pool().future_count()))},
    });
  }
  if (method == "txpool_content") {
    JsonArray pending, queued;
    for (const auto& tx : node.pool().pending_snapshot()) pending.push_back(tx_to_json(tx, false));
    for (const auto& tx : node.pool().future_snapshot()) queued.push_back(tx_to_json(tx, false));
    return Json(JsonObject{
        {"pending", Json(std::move(pending))},
        {"queued", Json(std::move(queued))},
    });
  }
  if (method == "admin_peers") {
    JsonArray peers;
    for (const auto peer : net_->peers_of(node_)) {
      peers.push_back(Json(JsonObject{{"id", Json(static_cast<uint64_t>(peer))}}));
    }
    return Json(std::move(peers));
  }
  return rpc_error(kMethodNotFound, "unknown method: " + method);
}

std::optional<Json> RpcClient::call(const std::string& method, JsonArray params) {
  const Json request(JsonObject{
      {"jsonrpc", Json("2.0")},
      {"id", Json(next_id_++)},
      {"method", Json(method)},
      {"params", Json(std::move(params))},
  });
  // Round-trip through serialization, exactly like an HTTP transport.
  const auto response = Json::parse(server_->handle(request.dump()));
  if (!response || !(*response)["error"].is_null()) return std::nullopt;
  return (*response)["result"];
}

std::optional<std::string> RpcClient::client_version() {
  auto r = call("web3_clientVersion");
  if (!r || !r->is_string()) return std::nullopt;
  return r->as_string();
}

std::optional<uint64_t> RpcClient::block_number() {
  auto r = call("eth_blockNumber");
  if (!r || !r->is_string()) return std::nullopt;
  return from_hex_quantity(r->as_string());
}

bool RpcClient::has_transaction(eth::TxHash hash) {
  auto r = call("eth_getTransactionByHash", {Json(hash_to_hex(hash))});
  return r.has_value() && !r->is_null();
}

std::optional<std::string> RpcClient::send_raw_transaction(const eth::Transaction& tx) {
  auto r = call("eth_sendRawTransaction",
                {Json(to_hex_bytes(wire::encode_transaction(tx)))});
  if (!r || !r->is_string()) return std::nullopt;
  return r->as_string();
}

std::vector<p2p::PeerId> RpcClient::peers() {
  std::vector<p2p::PeerId> out;
  auto r = call("admin_peers");
  if (!r || !r->is_array()) return out;
  for (const auto& entry : r->as_array()) {
    const std::optional<uint64_t> id = entry["id"].as_uint();
    if (id && *id <= std::numeric_limits<p2p::PeerId>::max()) {
      out.push_back(static_cast<p2p::PeerId>(*id));
    }
  }
  return out;
}

}  // namespace topo::rpc
