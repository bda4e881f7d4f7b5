// Tests for the JSON value/parser and the simulated Ethereum JSON-RPC
// endpoint — the interface the paper's validation tooling drives.

#include <gtest/gtest.h>

#include <limits>

#include "core/session.h"
#include "core/toposhot.h"
#include "p2p/node.h"
#include "rpc/rpc.h"
#include "wire/messages.h"

namespace topo::rpc {
namespace {

// -- JSON -------------------------------------------------------------------

TEST(Json, ParseAndDumpRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,-3],"b":"hi\nthere","c":{"nested":true},"d":null,"e":false})";
  auto v = Json::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE((*v)["a"].is_array());
  EXPECT_DOUBLE_EQ((*v)["a"][1].as_number(), 2.5);
  EXPECT_EQ((*v)["b"].as_string(), "hi\nthere");
  EXPECT_TRUE((*v)["c"]["nested"].as_bool());
  EXPECT_TRUE((*v)["d"].is_null());
  EXPECT_TRUE((*v)["missing"].is_null());

  auto again = Json::parse(v->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(*again == *v);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("true false").has_value()) << "trailing tokens";
  EXPECT_FALSE(Json::parse("nul").has_value());
}

TEST(Json, RejectsNestingPastTheLimit) {
  const auto arrays = [](size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](size_t depth) {
    std::string doc;
    for (size_t i = 1; i < depth; ++i) doc += R"({"a":)";
    doc += "{}";
    return doc + std::string(depth - 1, '}');
  };
  for (const auto& nested : {+arrays, +objects}) {
    const auto at_limit = Json::parse(nested(Json::kMaxDepth));
    ASSERT_TRUE(at_limit.has_value());
    EXPECT_EQ(at_limit->dump(), nested(Json::kMaxDepth));
    EXPECT_FALSE(Json::parse(nested(Json::kMaxDepth + 1)).has_value());
    EXPECT_FALSE(Json::parse(nested(100'000)).has_value()) << "rejected, not a stack overflow";
  }
}

TEST(Json, AsUintAcceptsOnlyExactUnsignedIntegers) {
  EXPECT_EQ(Json(0).as_uint(), 0u);
  EXPECT_EQ(Json(uint64_t{42}).as_uint(), 42u);
  EXPECT_EQ(Json(9007199254740992.0).as_uint(), uint64_t{1} << 53);
  EXPECT_FALSE(Json(9007199254740994.0).as_uint().has_value()) << "past 2^53";
  EXPECT_FALSE(Json(1e300).as_uint().has_value());
  EXPECT_FALSE(Json(-1.0).as_uint().has_value());
  EXPECT_FALSE(Json(1.5).as_uint().has_value());
  EXPECT_FALSE(Json(std::numeric_limits<double>::infinity()).as_uint().has_value());
  EXPECT_FALSE(Json(std::numeric_limits<double>::quiet_NaN()).as_uint().has_value());
  EXPECT_FALSE(Json("7").as_uint().has_value());
  EXPECT_FALSE(Json().as_uint().has_value());
  EXPECT_FALSE((*Json::parse("[1e400]"))[size_t{0}].as_uint().has_value()) << "infinity";
}

TEST(Json, UnicodeEscapes) {
  auto v = Json::parse(R"("Aé")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9");
}

TEST(Json, SurrogatePairsDecodeToSupplementaryPlane) {
  // U+1F600 (emoji, supplementary plane) arrives as a \uD83D\uDE00 pair
  // and must decode to the 4-byte UTF-8 sequence.
  auto v = Json::parse(R"("\uD83D\uDE00")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\xf0\x9f\x98\x80");
  // Lower-case hex and surrounding text both survive.
  auto mixed = Json::parse(R"("a\ud83d\ude00z")");
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->as_string(), "a\xf0\x9f\x98\x80z");
  // Round trip: the serializer emits raw UTF-8, which reparses identically.
  auto again = Json::parse(v->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->as_string(), v->as_string());
}

TEST(Json, LoneSurrogatesAreParseErrors) {
  EXPECT_FALSE(Json::parse(R"("\uD83D")").has_value()) << "high without low";
  EXPECT_FALSE(Json::parse(R"("\uDE00")").has_value()) << "low without high";
  EXPECT_FALSE(Json::parse(R"("\uD83Dx")").has_value()) << "high then raw char";
  EXPECT_FALSE(Json::parse(R"("\uD83D\n")").has_value()) << "high then other escape";
  EXPECT_FALSE(Json::parse(R"("\uD83D\uD83D")").has_value()) << "high then high";
  EXPECT_FALSE(Json::parse(R"("\uD83DA")").has_value()) << "high then BMP";
  EXPECT_FALSE(Json::parse(R"("\uD8")").has_value()) << "truncated digits";
}

TEST(Json, BmpEscapesStillDecode) {
  auto ascii = Json::parse(R"("\u0041")");
  ASSERT_TRUE(ascii.has_value());
  EXPECT_EQ(ascii->as_string(), "A");
  auto three_byte = Json::parse(R"("\u20AC")");  // euro sign
  ASSERT_TRUE(three_byte.has_value());
  EXPECT_EQ(three_byte->as_string(), "\xe2\x82\xac");
}

TEST(Json, HexHelpers) {
  EXPECT_EQ(to_hex_quantity(0), "0x0");
  EXPECT_EQ(to_hex_quantity(26), "0x1a");
  EXPECT_EQ(from_hex_quantity("0x1a"), 26u);
  EXPECT_FALSE(from_hex_quantity("1a").has_value());
  EXPECT_FALSE(from_hex_quantity("0xzz").has_value());
  const std::vector<uint8_t> bytes{0xde, 0xad, 0x01};
  EXPECT_EQ(to_hex_bytes(bytes), "0xdead01");
  EXPECT_EQ(from_hex_bytes("0xdead01"), bytes);
  EXPECT_FALSE(from_hex_bytes("0xabc").has_value()) << "odd digit count";
}

TEST(Json, HashHexRoundTrip) {
  const eth::TxHash h = 0x0123456789abcdefULL;
  const std::string hex = hash_to_hex(h);
  EXPECT_EQ(hex.size(), 2 + 64u);
  EXPECT_EQ(hash_from_hex(hex), h);
  EXPECT_FALSE(hash_from_hex("0x01").has_value());
}

// -- RPC endpoint -----------------------------------------------------------

struct RpcWorld {
  graph::Graph g{3};
  core::Scenario sc;
  RpcServer server;
  RpcClient client;

  RpcWorld()
      : sc(
            [] {
              graph::Graph g(3);
              g.add_edge(0, 1);
              g.add_edge(1, 2);
              g.add_edge(0, 2);
              return g;
            }(),
            [] {
              core::ScenarioOptions opt;
              opt.seed = 12;
              opt.mempool_capacity = 128;
              opt.future_cap = 32;
              opt.background_txs = 0;
              return opt;
            }()),
        server(&sc.net(), sc.targets()[0], 3),
        client(&server) {}
};

TEST(Rpc, ClientVersionAndNetVersion) {
  RpcWorld w;
  auto version = w.client.client_version();
  ASSERT_TRUE(version.has_value());
  EXPECT_NE(version->find("Geth"), std::string::npos);
  auto net = w.client.call("net_version");
  ASSERT_TRUE(net.has_value());
  EXPECT_EQ(net->as_string(), "3");
}

TEST(Rpc, ServiceCodenameAppearsInClientVersion) {
  RpcWorld w;
  w.sc.net().node(w.sc.targets()[0]).mutable_config().service = "SrvR1";
  auto version = w.client.client_version();
  ASSERT_TRUE(version.has_value());
  EXPECT_NE(version->find("SrvR1"), std::string::npos)
      << "the codename the §6.3 discovery step matches against";
}

TEST(Rpc, SendRawTransactionAndLookup) {
  RpcWorld w;
  const eth::Address a = w.sc.accounts().create_one();
  const auto tx = w.sc.factory().make(a, 0, 5000);

  EXPECT_FALSE(w.client.has_transaction(tx.hash()));
  auto hash = w.client.send_raw_transaction(tx);
  ASSERT_TRUE(hash.has_value());
  EXPECT_EQ(*hash, hash_to_hex(tx.hash()));
  EXPECT_TRUE(w.client.has_transaction(tx.hash()));

  // The submission propagates like any local tx.
  w.sc.sim().run_until(w.sc.sim().now() + 3.0);
  EXPECT_TRUE(w.sc.net().node(w.sc.targets()[1]).pool().contains(tx.hash()));

  // Re-submission is a duplicate -> RPC error.
  EXPECT_FALSE(w.client.send_raw_transaction(tx).has_value());
}

TEST(Rpc, GetTransactionReportsEvictionAndInclusion) {
  RpcWorld w;
  const eth::Address a = w.sc.accounts().create_one();
  const auto tx = w.sc.factory().make(a, 0, eth::gwei(5.0));
  ASSERT_TRUE(w.client.send_raw_transaction(tx).has_value());
  ASSERT_TRUE(w.client.has_transaction(tx.hash()));

  // Mine it: the lookup flips from pooled (blockNumber null) to included.
  w.sc.net().mine_block(w.sc.targets()[0]);
  w.sc.sim().run_until(w.sc.sim().now() + 1.0);
  auto r = w.client.call("eth_getTransactionByHash", {Json(hash_to_hex(tx.hash()))});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)["blockNumber"].as_string(), "0x0");
  auto number = w.client.block_number();
  ASSERT_TRUE(number.has_value());
  EXPECT_EQ(*number, 0u);
}

TEST(Rpc, TxpoolStatusCountsPendingAndQueued) {
  RpcWorld w;
  const eth::Address a = w.sc.accounts().create_one();
  w.client.send_raw_transaction(w.sc.factory().make(a, 0, 100));
  const eth::Address b = w.sc.accounts().create_one();
  // Nonce gap -> queued. Submit via the pool directly (futures are not
  // RPC-submittable in this simplified endpoint... they are: submit works).
  w.client.send_raw_transaction(w.sc.factory().make(b, 1, 100));
  auto r = w.client.call("txpool_status");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)["pending"].as_string(), "0x1");
  EXPECT_EQ((*r)["queued"].as_string(), "0x1");

  auto content = w.client.call("txpool_content");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ((*content)["pending"].as_array().size(), 1u);
  EXPECT_EQ((*content)["queued"].as_array().size(), 1u);
}

TEST(Rpc, GasPriceReturnsPoolMedian) {
  RpcWorld w;
  for (int i = 1; i <= 5; ++i) {
    const eth::Address a = w.sc.accounts().create_one();
    w.client.send_raw_transaction(w.sc.factory().make(a, 0, 100 * i));
  }
  auto r = w.client.call("eth_gasPrice");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(from_hex_quantity(r->as_string()), 300u);
}

TEST(Rpc, AdminPeersMatchesGroundTruth) {
  RpcWorld w;
  const auto peers = w.client.peers();
  // Node 0 links to nodes 1 and 2, plus the measurement supernode M.
  EXPECT_EQ(peers.size(), w.sc.net().peers_of(w.sc.targets()[0]).size());
  for (const auto p : peers) {
    EXPECT_TRUE(w.sc.net().linked(w.sc.targets()[0], p));
  }
}

TEST(Rpc, GetBlockByNumber) {
  RpcWorld w;
  const eth::Address a = w.sc.accounts().create_one();
  const auto tx = w.sc.factory().make(a, 0, eth::gwei(3.0));
  w.client.send_raw_transaction(tx);
  w.sc.net().mine_block(w.sc.targets()[0]);

  auto block = w.client.call("eth_getBlockByNumber", {Json("0x0"), Json(true)});
  ASSERT_TRUE(block.has_value());
  ASSERT_EQ((*block)["transactions"].as_array().size(), 1u);
  EXPECT_EQ((*block)["transactions"][size_t{0}]["hash"].as_string(), hash_to_hex(tx.hash()));

  auto missing = w.client.call("eth_getBlockByNumber", {Json("0x5"), Json(false)});
  ASSERT_TRUE(missing.has_value());
  EXPECT_TRUE(missing->is_null());
}

TEST(Rpc, ErrorsForUnknownMethodAndBadRequests) {
  RpcWorld w;
  EXPECT_FALSE(w.client.call("eth_noSuchMethod").has_value());
  // Raw protocol-level checks.
  const std::string garbage = w.server.handle("not json");
  auto parsed = Json::parse(garbage);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ((*parsed)["error"]["code"].as_number(), kParseError);

  const std::string no_method = w.server.handle(R"({"jsonrpc":"2.0","id":1})");
  parsed = Json::parse(no_method);
  EXPECT_DOUBLE_EQ((*parsed)["error"]["code"].as_number(), kInvalidRequest);

  const std::string bad_params =
      w.server.handle(R"({"jsonrpc":"2.0","id":1,"method":"eth_getTransactionByHash"})");
  parsed = Json::parse(bad_params);
  EXPECT_DOUBLE_EQ((*parsed)["error"]["code"].as_number(), kInvalidParams);
}

TEST(Rpc, NestingPastTheJsonLimitIsAParseError) {
  RpcWorld w;
  for (const size_t depth : {Json::kMaxDepth + 1, size_t{100'000}}) {
    const auto resp =
        Json::parse(w.server.handle(std::string(depth, '[') + std::string(depth, ']')));
    ASSERT_TRUE(resp.has_value()) << "depth " << depth;
    EXPECT_DOUBLE_EQ((*resp)["error"]["code"].as_number(), kParseError);
    EXPECT_TRUE((*resp)["id"].is_null());
  }
}

// -- JSON-RPC 2.0 batch framing ---------------------------------------------

TEST(Rpc, BatchArrayAnswersEveryRequestInOrder) {
  RpcWorld w;
  const std::string batch =
      R"([{"jsonrpc":"2.0","id":7,"method":"net_version"},)"
      R"({"jsonrpc":"2.0","id":8,"method":"eth_noSuchMethod"},)"
      R"({"jsonrpc":"2.0","id":9,"method":"web3_clientVersion"}])";
  const auto resp = Json::parse(w.server.handle(batch));
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->is_array());
  ASSERT_EQ(resp->as_array().size(), 3u);
  // Responses come back in request order, errors included inline.
  EXPECT_DOUBLE_EQ((*resp)[size_t{0}]["id"].as_number(), 7.0);
  EXPECT_EQ((*resp)[size_t{0}]["result"].as_string(), "3");
  EXPECT_DOUBLE_EQ((*resp)[size_t{1}]["id"].as_number(), 8.0);
  EXPECT_DOUBLE_EQ((*resp)[size_t{1}]["error"]["code"].as_number(), kMethodNotFound);
  EXPECT_DOUBLE_EQ((*resp)[size_t{2}]["id"].as_number(), 9.0);
  EXPECT_NE((*resp)[size_t{2}]["result"].as_string().find("Geth"), std::string::npos);
}

TEST(Rpc, BatchResponsesRoundTripThroughTheSerializedTransport) {
  // The response document itself is valid JSON that reparses to the same
  // value — the round trip an HTTP client would perform.
  RpcWorld w;
  const std::string batch =
      R"([{"jsonrpc":"2.0","id":1,"method":"net_version"},)"
      R"({"jsonrpc":"2.0","id":2,"method":"eth_blockNumber"}])";
  const std::string wire = w.server.handle(batch);
  const auto first = Json::parse(wire);
  ASSERT_TRUE(first.has_value());
  const auto second = Json::parse(first->dump());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(*first == *second);
}

TEST(Rpc, EmptyBatchIsASingleInvalidRequestError) {
  RpcWorld w;
  const auto resp = Json::parse(w.server.handle("[]"));
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->is_object()) << "one error object, not an array";
  EXPECT_DOUBLE_EQ((*resp)["error"]["code"].as_number(), kInvalidRequest);
  EXPECT_TRUE((*resp)["id"].is_null());
}

TEST(Rpc, NotificationsEarnNoResponseEntry) {
  RpcWorld w;
  // A notification is a request object *without* an "id" member; it is
  // dispatched but contributes nothing to the response array. An explicit
  // null id is NOT a notification.
  const std::string batch =
      R"([{"jsonrpc":"2.0","method":"net_version"},)"
      R"({"jsonrpc":"2.0","id":1,"method":"net_version"},)"
      R"({"jsonrpc":"2.0","id":null,"method":"net_version"}])";
  const auto resp = Json::parse(w.server.handle(batch));
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->is_array());
  ASSERT_EQ(resp->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ((*resp)[size_t{0}]["id"].as_number(), 1.0);
  EXPECT_TRUE((*resp)[size_t{1}]["id"].is_null());
}

TEST(Rpc, AllNotificationBatchYieldsNoResponseDocument) {
  RpcWorld w;
  const std::string batch =
      R"([{"jsonrpc":"2.0","method":"net_version"},)"
      R"({"jsonrpc":"2.0","method":"eth_blockNumber"}])";
  EXPECT_EQ(w.server.handle(batch), "") << "HTTP 204 territory: no body at all";
}

TEST(Rpc, BatchWithInvalidEntriesStillAnswersThem) {
  RpcWorld w;
  // Non-object entries are invalid requests, answered in place with a null
  // id (there is no id to echo).
  const std::string batch = R"([42, {"jsonrpc":"2.0","id":3,"method":"net_version"}])";
  const auto resp = Json::parse(w.server.handle(batch));
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->is_array());
  ASSERT_EQ(resp->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ((*resp)[size_t{0}]["error"]["code"].as_number(), kInvalidRequest);
  EXPECT_TRUE((*resp)[size_t{0}]["id"].is_null());
  EXPECT_EQ((*resp)[size_t{1}]["result"].as_string(), "3");
}

TEST(Rpc, BatchSideEffectsApplyInBatchOrder) {
  // Submissions inside one batch are real: both transactions land in the
  // pool, and the duplicate re-submission errors — exactly as if the three
  // requests had arrived one by one.
  RpcWorld w;
  const eth::Address a = w.sc.accounts().create_one();
  const auto tx = w.sc.factory().make(a, 0, 5000);
  const std::string raw = to_hex_bytes(wire::encode_transaction(tx));
  const std::string batch =
      R"([{"jsonrpc":"2.0","id":1,"method":"eth_sendRawTransaction","params":[")" + raw +
      R"("]},{"jsonrpc":"2.0","id":2,"method":"eth_sendRawTransaction","params":[")" + raw +
      R"("]}])";
  const auto resp = Json::parse(w.server.handle(batch));
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->as_array().size(), 2u);
  EXPECT_EQ((*resp)[size_t{0}]["result"].as_string(), hash_to_hex(tx.hash()));
  EXPECT_FALSE((*resp)[size_t{1}]["error"].is_null()) << "duplicate submission";
  EXPECT_TRUE(w.client.has_transaction(tx.hash()));
}

TEST(Rpc, ValidationWorkflowChecksTxcEviction) {
  // The §6.1 validation flow end-to-end over RPC: plant txC on B, flood,
  // and confirm via eth_getTransactionByHash that txC is gone.
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  core::ScenarioOptions opt;
  opt.seed = 13;
  opt.mempool_capacity = 128;
  opt.future_cap = 32;
  opt.background_txs = 96;
  core::Scenario sc(g, opt);
  sc.seed_background();
  RpcServer server_b(&sc.net(), sc.targets()[1], 3);
  RpcClient rpc_b(&server_b);

  auto cfg = sc.default_measure_config();
  const auto r = core::MeasurementSession(sc, cfg).one_link(sc.targets()[0], sc.targets()[1]).value;
  EXPECT_TRUE(r.connected);
  EXPECT_FALSE(rpc_b.has_transaction(r.txc_hash)) << "txC evicted per RPC";
  EXPECT_TRUE(rpc_b.has_transaction(r.txa_hash)) << "txA replaced txB on B";
}

}  // namespace
}  // namespace topo::rpc
