// Round-trip tests for measurement-report persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/report_io.h"
#include "graph/generators.h"

namespace topo::core {
namespace {

TEST(ReportIo, GraphJsonRoundTrip) {
  util::Rng rng(1);
  const auto g = graph::erdos_renyi_gnm(20, 50, rng);
  const auto j = graph_to_json(g);
  const auto back = graph_from_json(j);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_nodes(), g.num_nodes());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  for (const auto& [u, v] : g.edges()) EXPECT_TRUE(back->has_edge(u, v));
}

TEST(ReportIo, GraphJsonRejectsMalformed) {
  EXPECT_FALSE(graph_from_json(rpc::Json("nope")).has_value());
  auto j = rpc::Json::parse(R"({"nodes":2,"edges":[[0,5]]})");
  ASSERT_TRUE(j.has_value());
  EXPECT_FALSE(graph_from_json(*j).has_value()) << "edge endpoint out of range";
  j = rpc::Json::parse(R"({"nodes":2,"edges":[[0]]})");
  EXPECT_FALSE(graph_from_json(*j).has_value()) << "malformed edge";
}

TEST(ReportIo, ReportFileRoundTrip) {
  util::Rng rng(2);
  NetworkMeasurementReport report;
  report.measured = graph::erdos_renyi_gnm(12, 30, rng);
  report.iterations = 7;
  report.pairs_tested = 66;
  report.sim_seconds = 1234.5;
  report.txs_sent = 98765;

  const std::string path = "/tmp/toposhot_report_test.json";
  ASSERT_TRUE(save_report(report, path));
  const auto back = load_report(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->iterations, 7u);
  EXPECT_EQ(back->pairs_tested, 66u);
  EXPECT_DOUBLE_EQ(back->sim_seconds, 1234.5);
  EXPECT_EQ(back->txs_sent, 98765u);
  EXPECT_EQ(back->measured.num_edges(), report.measured.num_edges());
}

// A well-formed v1 document to mutate field-by-field.
rpc::Json good_report_json() {
  auto j = rpc::Json::parse(
      R"({"format":"toposhot-report-v1","iterations":3,"pairs_tested":10,)"
      R"("sim_seconds":42.5,"txs_sent":100,)"
      R"("topology":{"nodes":3,"edges":[[0,1],[1,2]]}})");
  EXPECT_TRUE(j.has_value());
  return *j;
}

TEST(ReportIo, FromJsonAcceptsWellFormed) {
  const auto r = report_from_json(good_report_json());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->iterations, 3u);
  EXPECT_EQ(r->pairs_tested, 10u);
  EXPECT_DOUBLE_EQ(r->sim_seconds, 42.5);
  EXPECT_EQ(r->txs_sent, 100u);
  EXPECT_EQ(r->measured.num_edges(), 2u);
}

TEST(ReportIo, FromJsonRejectsMissingField) {
  // Regression: as_number() on an absent field used to default to 0, so a
  // truncated document loaded as a report that claimed zero work.
  for (const char* key : {"iterations", "pairs_tested", "sim_seconds", "txs_sent"}) {
    auto j = good_report_json();
    j.as_object().erase(key);
    EXPECT_FALSE(report_from_json(j).has_value()) << "missing " << key;
  }
}

TEST(ReportIo, FromJsonRejectsWrongTypedField) {
  for (const char* key : {"iterations", "pairs_tested", "sim_seconds", "txs_sent"}) {
    auto j = good_report_json();
    j.as_object()[key] = rpc::Json("not-a-number");
    EXPECT_FALSE(report_from_json(j).has_value()) << key << " as string";
  }
}

TEST(ReportIo, FromJsonRejectsNegativeCounts) {
  auto j = good_report_json();
  j.as_object()["txs_sent"] = rpc::Json(-5.0);
  EXPECT_FALSE(report_from_json(j).has_value());
}

TEST(ReportIo, FromJsonRejectsMissingOrBadTopology) {
  auto j = good_report_json();
  j.as_object().erase("topology");
  EXPECT_FALSE(report_from_json(j).has_value());
  j = good_report_json();
  j.as_object()["topology"] = rpc::Json("nope");
  EXPECT_FALSE(report_from_json(j).has_value());
}

TEST(ReportIo, FromJsonIgnoresUnknownFields) {
  auto j = good_report_json();
  j.as_object()["future_extension"] = rpc::Json(1.0);
  EXPECT_TRUE(report_from_json(j).has_value())
      << "unknown fields are forward-compatible, not errors";
}

TEST(ReportIo, FaultAnnexRoundTripsAndIsOmittedWhenAbsent) {
  util::Rng rng(3);
  NetworkMeasurementReport report;
  report.measured = graph::erdos_renyi_gnm(8, 12, rng);
  report.iterations = 2;
  report.pairs_tested = 28;
  report.sim_seconds = 10.0;
  report.txs_sent = 500;
  // Absent annex: no "fault" key in the serialized document (zero-cost-off
  // byte identity for unfaulted reports).
  EXPECT_EQ(report_to_json(report).dump().find("fault"), std::string::npos);

  FaultReport f;
  f.drop_tx = 0.05;
  f.drop_announce = 0.01;
  f.drop_get_tx = 0.02;
  f.spike_prob = 0.1;
  f.spike_mult = 4.0;
  f.churn_rate = 0.5;
  f.retries = 2;
  f.attempts = 40;
  f.inconclusive = 3;
  f.retried = {{0, 5, 2}, {3, 7, 3}};
  report.fault = f;

  const auto back = report_from_json(report_to_json(report));
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->fault.has_value());
  EXPECT_EQ(*back->fault, f);
}

TEST(ReportIo, FromJsonRejectsMalformedFaultAnnex) {
  auto make = [](const char* fault_body) {
    auto j = good_report_json();
    auto f = rpc::Json::parse(fault_body);
    EXPECT_TRUE(f.has_value());
    j.as_object()["fault"] = *f;
    return j;
  };
  // Wrong type for the whole annex.
  auto j = good_report_json();
  j.as_object()["fault"] = rpc::Json("nope");
  EXPECT_FALSE(report_from_json(j).has_value());
  // Missing tally field.
  EXPECT_FALSE(report_from_json(make(
                   R"({"drop_tx":0.1,"drop_announce":0,"drop_get_tx":0,"spike_prob":0,)"
                   R"("spike_mult":1,"churn_rate":0,"retries":1,"attempts":5,"retried":[]})"))
                   .has_value())
      << "missing inconclusive";
  // Malformed retried entry.
  EXPECT_FALSE(report_from_json(make(
                   R"({"drop_tx":0.1,"drop_announce":0,"drop_get_tx":0,"spike_prob":0,)"
                   R"("spike_mult":1,"churn_rate":0,"retries":1,"attempts":5,)"
                   R"("inconclusive":0,"retried":[[1,2]]})"))
                   .has_value())
      << "retried triple truncated";
}

// Mutable lookup along a path of object keys and array indices.
rpc::Json& at(rpc::Json& j, const std::vector<std::string>& path) {
  rpc::Json* cur = &j;
  for (const std::string& k : path) {
    cur = cur->is_array() ? &cur->as_array().at(std::stoul(k)) : &cur->as_object().at(k);
  }
  return *cur;
}

// Hostile integers: 1e300 is no count a report could hold, and casting it
// to an integer is undefined behaviour. Every integer field — the counts,
// the topology, both annexes' triples and tallies — must reject it rather
// than decode whatever the cast happens to produce.
TEST(ReportIo, FromJsonRejectsOutOfRangeIntegers) {
  NetworkMeasurementReport report;
  report.measured = graph::Graph(3);
  report.measured.add_edge(0, 1);
  report.iterations = 1;
  report.pairs_tested = 3;
  report.txs_sent = 10;
  report.fault = FaultReport{};
  report.fault->retries = 1;
  report.fault->retried = {{0, 1, 2}};
  report.diagnostics = DiagnosticsReport{};
  report.diagnostics->inconclusive = {{1, 2, obs::ProbeCause::kNodeOffline}};
  const rpc::Json good = report_to_json(report);
  ASSERT_TRUE(report_from_json(good).has_value());

  const std::vector<std::vector<std::string>> int_fields = {
      {"iterations"},
      {"pairs_tested"},
      {"txs_sent"},
      {"topology", "edges", "0", "1"},
      {"fault", "retries"},
      {"fault", "attempts"},
      {"fault", "inconclusive"},
      {"fault", "retried", "0", "0"},
      {"fault", "retried", "0", "2"},
      {"diagnostics", "inconclusive", "0", "1"},
      {"diagnostics", "causes", "node-offline"},
      {"diagnostics", "cleared", "none"},
  };
  for (const auto& path : int_fields) {
    std::string name;
    for (const std::string& k : path) name += "/" + k;
    rpc::Json j = good;
    at(j, path) = rpc::Json(1e300);
    EXPECT_FALSE(report_from_json(j).has_value()) << name << " = 1e300";
  }
  rpc::Json j = good;
  at(j, {"topology"}) = *rpc::Json::parse(R"({"nodes":1e300,"edges":[]})");
  EXPECT_FALSE(report_from_json(j).has_value()) << "/topology/nodes = 1e300";
  j = good;
  at(j, {"fault", "retried", "0", "2"}) = rpc::Json(-1.0);
  EXPECT_FALSE(report_from_json(j).has_value()) << "negative retried attempts";
}

TEST(ReportIo, LoadRejectsWrongFormat) {
  const std::string path = "/tmp/toposhot_report_bad.json";
  {
    std::ofstream out(path);
    out << R"({"format":"something-else"})";
  }
  EXPECT_FALSE(load_report(path).has_value());
  std::remove(path.c_str());
  EXPECT_FALSE(load_report("/nonexistent/path.json").has_value());
}

}  // namespace
}  // namespace topo::core
