// Tests for the topology-monitoring daemon (topo::monitor): the versioned
// LinkTable and its snapshot/diff/status documents, the strict JSON codecs,
// the epoch loop's incremental re-measurement, the detection scorecard, and
// the MonitorRpcServer read API (including JSON-RPC 2.0 batch framing).
//
// The acceptance-bar test at the bottom pins the ISSUE contract: a scripted
// monitord run detects >= 90% of injected link changes within 2 epochs
// while re-probing < 20% of pairs per epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/schedule.h"
#include "core/toposhot.h"
#include "graph/generators.h"
#include "monitor/monitor.h"
#include "rpc/monitor_rpc.h"
#include "util/rng.h"

namespace topo::monitor {
namespace {

using P = std::pair<size_t, size_t>;

// -- LinkTable --------------------------------------------------------------

TEST(LinkTable, FirstVerdictIsNotAFlipLaterChangesAre) {
  LinkTable t(4);
  EXPECT_EQ(t.pairs_total(), 6u);
  EXPECT_EQ(t.tracked(), 0u);
  EXPECT_EQ(t.find(0, 1), nullptr);

  EXPECT_FALSE(t.record(0, 1, core::Verdict::kConnected, 0));
  ASSERT_NE(t.find(0, 1), nullptr);
  EXPECT_EQ(t.find(0, 1)->verdict, core::Verdict::kConnected);
  EXPECT_EQ(t.find(0, 1)->measured_epoch, 0u);
  EXPECT_EQ(t.find(0, 1)->changed_epoch, 0u);

  // Re-confirming the same verdict is not a flip; a different one is.
  EXPECT_FALSE(t.record(0, 1, core::Verdict::kConnected, 1));
  EXPECT_EQ(t.find(0, 1)->changed_epoch, 0u);
  EXPECT_TRUE(t.record(0, 1, core::Verdict::kNegative, 2));
  EXPECT_EQ(t.find(0, 1)->measured_epoch, 2u);
  EXPECT_EQ(t.find(0, 1)->changed_epoch, 2u);
  EXPECT_EQ(t.tracked(), 1u);
}

TEST(LinkTable, ConfidenceDecaysWithHalfLife) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  EXPECT_DOUBLE_EQ(t.confidence(0, 1, 0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(t.confidence(0, 1, 4, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(t.confidence(0, 1, 8, 4.0), 0.25);
  // half_life <= 0 disables decay entirely.
  EXPECT_DOUBLE_EQ(t.confidence(0, 1, 100, 0.0), 1.0);
  // Never-measured pairs carry no confidence.
  EXPECT_DOUBLE_EQ(t.confidence(2, 3, 5, 4.0), 0.0);
}

TEST(LinkTable, HintsZeroConfidenceAndClearOnRecord) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  EXPECT_EQ(t.hint_node(0), 1u) << "only the tracked pair gains the flag";
  EXPECT_DOUBLE_EQ(t.confidence(0, 1, 0, 4.0), 0.0);
  // Re-measuring clears the hint and restores full confidence.
  t.record(0, 1, core::Verdict::kConnected, 1);
  EXPECT_DOUBLE_EQ(t.confidence(0, 1, 1, 4.0), 1.0);
}

TEST(LinkTable, PriorityPutsBothEndpointHintsFirst) {
  LinkTable t(4);
  // All three pairs measured at epoch 0 with equal confidence...
  t.record(0, 1, core::Verdict::kConnected, 0);
  t.record(0, 2, core::Verdict::kConnected, 0);
  t.record(1, 2, core::Verdict::kNegative, 0);
  // ...then nodes 0 and 1 churn: (0,1) is hinted by both endpoints, (0,2)
  // and (1,2) by one each.
  t.hint_node(0);
  t.hint_node(1);
  const auto pri = t.prioritized_pairs(1, 4.0);
  ASSERT_GE(pri.size(), 3u);
  EXPECT_EQ(pri[0], P(0, 1))
      << "a changed link always churns both endpoints, so double-hinted "
         "pairs lead the re-measurement order";
  // Single-hinted pairs come next, before every unhinted candidate.
  EXPECT_EQ(pri[1], P(0, 2));
  EXPECT_EQ(pri[2], P(1, 2));
}

TEST(LinkTable, HintedCountsByStrength) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  t.record(0, 2, core::Verdict::kConnected, 0);
  t.record(1, 2, core::Verdict::kNegative, 0);
  EXPECT_EQ(t.hinted(), 0u);
  t.hint_node(0);
  t.hint_node(1);
  EXPECT_EQ(t.hinted(), 3u) << "every tracked pair touching node 0 or 1";
  EXPECT_EQ(t.hinted(2), 1u) << "only (0,1) was hinted by both endpoints";
  // Re-measuring clears the hint, at any strength.
  t.record(0, 1, core::Verdict::kConnected, 1);
  EXPECT_EQ(t.hinted(2), 0u);
  EXPECT_EQ(t.hinted(), 2u);
}

TEST(LinkTable, PriorityOrdersByStalenessThenIdentity) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 3);  // freshest
  t.record(0, 2, core::Verdict::kConnected, 1);  // stalest measured
  t.record(1, 2, core::Verdict::kConnected, 2);
  const auto pri = t.prioritized_pairs(4, 4.0);
  ASSERT_EQ(pri.size(), t.pairs_total());
  // Never-measured pairs (confidence 0) lead, in canonical order.
  EXPECT_EQ(pri[0], P(0, 3));
  EXPECT_EQ(pri[1], P(1, 3));
  EXPECT_EQ(pri[2], P(2, 3));
  // Then measured pairs, least-confident (stalest) first.
  EXPECT_EQ(pri[3], P(0, 2));
  EXPECT_EQ(pri[4], P(1, 2));
  EXPECT_EQ(pri[5], P(0, 1));
}

TEST(LinkTable, SnapshotIsSortedAndCarriesDecayedConfidence) {
  LinkTable t(5);
  t.record(2, 3, core::Verdict::kNegative, 0);
  t.record(0, 4, core::Verdict::kConnected, 2);
  t.record(0, 1, core::Verdict::kConnected, 2);
  const TopologySnapshot s = t.snapshot(2, 2.0, 3, 0);
  EXPECT_EQ(s.version, 2u);
  EXPECT_EQ(s.nodes, 5u);
  EXPECT_EQ(s.pairs_total, 10u);
  EXPECT_EQ(s.pairs_measured, 3u);
  ASSERT_EQ(s.links.size(), 3u);
  EXPECT_EQ(s.links[0].u, 0u);
  EXPECT_EQ(s.links[0].v, 1u);
  EXPECT_EQ(s.links[1].u, 0u);
  EXPECT_EQ(s.links[1].v, 4u);
  EXPECT_EQ(s.links[2].u, 2u);
  EXPECT_EQ(s.links[2].v, 3u);
  EXPECT_DOUBLE_EQ(s.links[0].confidence, 1.0);
  EXPECT_DOUBLE_EQ(s.links[2].confidence, 0.5) << "age 2 at half-life 2";
  EXPECT_EQ(s.connected_count(), 2u);
  EXPECT_EQ(s.inconclusive_count(), 0u);
  ASSERT_NE(s.find(2, 3), nullptr);
  EXPECT_EQ(s.find(2, 3)->verdict, core::Verdict::kNegative);
  EXPECT_EQ(s.find(1, 2), nullptr);
}

// -- diff / status ----------------------------------------------------------

TopologySnapshot snap_of(LinkTable& t, uint64_t epoch) {
  return t.snapshot(epoch, 4.0, 0, 0);
}

TEST(TopologyDiffTest, TracksConnectedSetAndEveryVerdictTransition) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  t.record(0, 2, core::Verdict::kNegative, 0);
  const TopologySnapshot a = snap_of(t, 0);

  t.record(0, 1, core::Verdict::kNegative, 1);      // removed
  t.record(0, 2, core::Verdict::kConnected, 1);     // added
  t.record(1, 2, core::Verdict::kConnected, 1);     // newly measured -> added
  t.record(1, 3, core::Verdict::kInconclusive, 1);  // new, not a link change
  const TopologySnapshot b = snap_of(t, 1);

  const TopologyDiff d = compute_diff(a, b);
  EXPECT_EQ(d.from, 0u);
  EXPECT_EQ(d.to, 1u);
  ASSERT_EQ(d.added.size(), 2u);
  EXPECT_EQ(d.added[0], P(0, 2));
  EXPECT_EQ(d.added[1], P(1, 2));
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], P(0, 1));
  // `changed` carries every verdict transition — but a pair arriving as
  // inconclusive is no transition at all, since absent pairs already count
  // as inconclusive: (0,1), (0,2), (1,2) only.
  EXPECT_EQ(d.changed.size(), 3u);
  EXPECT_FALSE(d.empty());
  EXPECT_TRUE(compute_diff(b, b).empty());
}

TEST(TopologyDiffTest, AbsentPairsCountAsInconclusive) {
  LinkTable t(3);
  const TopologySnapshot empty = snap_of(t, 0);
  t.record(0, 1, core::Verdict::kInconclusive, 1);
  const TopologySnapshot one = snap_of(t, 1);
  // inconclusive -> inconclusive is not a transition even though the pair
  // only exists on one side.
  EXPECT_TRUE(compute_diff(empty, one).empty());
  EXPECT_TRUE(compute_diff(one, empty).empty());
}

TEST(MonitorStatusTest, IsAPureFunctionOfTheLatestSnapshot) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  t.record(0, 2, core::Verdict::kNegative, 0);
  t.record(1, 2, core::Verdict::kInconclusive, 0);
  const TopologySnapshot s = t.snapshot(4, 4.0, 7, 2);
  const MonitorStatus st = make_status(s, 5);
  EXPECT_EQ(st.epoch, 4u);
  EXPECT_EQ(st.version, 4u);
  EXPECT_EQ(st.versions, 5u);
  EXPECT_EQ(st.pairs_tracked, 3u);
  EXPECT_EQ(st.links_connected, 1u);
  EXPECT_EQ(st.links_inconclusive, 1u);
  EXPECT_DOUBLE_EQ(st.coverage, 0.5);
  EXPECT_EQ(st.pairs_measured, 7u);
  EXPECT_EQ(st.changes_observed, 2u);
  // Age 4 at half-life 4 -> confidence 0.5, which lands in bin 5 (the
  // half-open [0.5, 0.6) bucket); confidence 1.0 lands in the closed last
  // bin.
  uint64_t total = 0;
  for (uint64_t c : st.confidence_histogram) total += c;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(st.confidence_histogram[5], 3u);
}

// -- JSON codecs ------------------------------------------------------------

TEST(MonitorJson, VerdictNamesRoundTrip) {
  for (core::Verdict v : {core::Verdict::kConnected, core::Verdict::kNegative,
                          core::Verdict::kInconclusive}) {
    core::Verdict back = core::Verdict::kConnected;
    ASSERT_TRUE(verdict_from_name(verdict_name(v), back));
    EXPECT_EQ(back, v);
  }
  core::Verdict unused;
  EXPECT_FALSE(verdict_from_name("bogus", unused));
}

TEST(MonitorJson, SnapshotRoundTripsExactly) {
  LinkTable t(5);
  t.record(0, 1, core::Verdict::kConnected, 0);
  t.record(1, 4, core::Verdict::kNegative, 2);
  t.record(2, 3, core::Verdict::kInconclusive, 3);
  const TopologySnapshot s = t.snapshot(3, 4.0, 11, 1);
  const rpc::Json j = snapshot_to_json(s);
  EXPECT_EQ(j["schema"].as_string(), kSnapshotSchema);
  EXPECT_EQ(snapshot_from_json(j), s);
  // Serialized bytes reparse to the same document (the %.17g double path).
  const auto reparsed = rpc::Json::parse(j.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(snapshot_from_json(*reparsed), s);
}

TEST(MonitorJson, DiffAndStatusRoundTripExactly) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  const TopologySnapshot a = snap_of(t, 0);
  t.record(0, 1, core::Verdict::kNegative, 1);
  t.record(2, 3, core::Verdict::kConnected, 1);
  const TopologySnapshot b = snap_of(t, 1);

  const TopologyDiff d = compute_diff(a, b);
  EXPECT_EQ(diff_from_json(diff_to_json(d)), d);

  const MonitorStatus st = make_status(b, 2);
  EXPECT_EQ(status_from_json(status_to_json(st)), st);
}

TEST(MonitorJson, FromJsonIsStrict) {
  LinkTable t(3);
  t.record(0, 1, core::Verdict::kConnected, 0);
  const rpc::Json good = snapshot_to_json(snap_of(t, 0));

  {  // wrong schema string
    rpc::Json j = good;
    j.as_object()["schema"] = rpc::Json("toposhot-snapshot-v999");
    EXPECT_THROW(snapshot_from_json(j), std::runtime_error);
  }
  {  // missing field
    rpc::Json j = good;
    j.as_object().erase("version");
    EXPECT_THROW(snapshot_from_json(j), std::runtime_error);
  }
  {  // wrong type
    rpc::Json j = good;
    j.as_object()["nodes"] = rpc::Json("three");
    EXPECT_THROW(snapshot_from_json(j), std::runtime_error);
  }
  {  // unknown verdict name
    rpc::Json j = good;
    j.as_object()["links"].as_array()[0].as_object()["verdict"] = rpc::Json("perhaps");
    EXPECT_THROW(snapshot_from_json(j), std::runtime_error);
  }
  EXPECT_THROW(diff_from_json(good), std::runtime_error) << "schema mismatch";
  EXPECT_THROW(status_from_json(good), std::runtime_error) << "schema mismatch";
}

// Hostile integers: 1e300 passes a "non-negative and integral" check but is
// no uint64 (the cast is undefined behaviour). Every codec's integer
// fields — plain fields, [u, v] pairs and the confidence histogram — must
// reject it.
TEST(MonitorJson, IntegerFieldsRejectOutOfRangeValues) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  const TopologySnapshot a = snap_of(t, 0);
  t.record(2, 3, core::Verdict::kConnected, 1);
  const TopologySnapshot b = snap_of(t, 1);
  const rpc::Json snap = snapshot_to_json(b);
  const rpc::Json diff = diff_to_json(compute_diff(a, b));
  const rpc::Json status = status_to_json(make_status(b, 2));
  const rpc::Json huge(1e300);
  {
    rpc::Json j = snap;
    j.as_object()["nodes"] = huge;
    EXPECT_THROW(snapshot_from_json(j), std::runtime_error) << "snapshot nodes";
  }
  {
    rpc::Json j = snap;
    j.as_object()["links"].as_array()[0].as_object()["v"] = huge;
    EXPECT_THROW(snapshot_from_json(j), std::runtime_error) << "link endpoint";
  }
  {
    rpc::Json j = diff;
    ASSERT_FALSE(j["added"].as_array().empty());
    j.as_object()["added"].as_array()[0].as_array()[1] = huge;
    EXPECT_THROW(diff_from_json(j), std::runtime_error) << "diff pair";
  }
  {
    rpc::Json j = diff;
    j.as_object()["to"] = huge;
    EXPECT_THROW(diff_from_json(j), std::runtime_error) << "diff version";
  }
  {
    rpc::Json j = status;
    j.as_object()["pairs_tracked"] = huge;
    EXPECT_THROW(status_from_json(j), std::runtime_error) << "status pairs_tracked";
  }
  {
    rpc::Json j = status;
    j.as_object()["confidence_histogram"].as_array()[0] = huge;
    EXPECT_THROW(status_from_json(j), std::runtime_error) << "confidence histogram";
  }
}

TEST(MonitorJson, StatusV2CarriesRingPressure) {
  LinkTable t(4);
  t.record(0, 1, core::Verdict::kConnected, 0);
  MonitorStatus st = make_status(snap_of(t, 0), 1);
  EXPECT_EQ(st.trace_total_pushed, 0u) << "make_status alone leaves them zero";
  st.trace_total_pushed = 7;
  st.trace_dropped = 3;
  st.log_dropped = 1;
  const rpc::Json j = status_to_json(st);
  EXPECT_EQ(j["schema"].as_string(), std::string("toposhot-status-v2"));
  EXPECT_DOUBLE_EQ(j["trace_dropped"].as_number(), 3.0);
  EXPECT_EQ(status_from_json(j), st);
}

// -- EpochStats ring / health watchdog --------------------------------------

EpochStats healthy_epoch(uint64_t epoch, double sim_seconds = 10.0) {
  EpochStats s;
  s.epoch = epoch;
  s.sim_seconds = sim_seconds;
  s.events_drained = 1000;
  s.pairs_selected = 16;
  s.pairs_reprobed = 12;
  s.budget_utilization = 0.25;
  s.mean_confidence = 0.8;
  return s;
}

TEST(HealthWatchdog, EmptyRingIsStalled) {
  const HealthReport r = classify_health({}, HealthThresholds{});
  EXPECT_EQ(r.state, HealthState::kStalled);
  EXPECT_EQ(r.reason, "no epochs published");
  EXPECT_TRUE(r.epochs.empty());
}

TEST(HealthWatchdog, ZeroProgressIsStalled) {
  {
    EpochStats idle = healthy_epoch(3);
    idle.pairs_selected = 0;
    const HealthReport r =
        classify_health({healthy_epoch(2), idle}, HealthThresholds{});
    EXPECT_EQ(r.state, HealthState::kStalled);
    EXPECT_NE(r.reason.find("epoch 3 made no progress"), std::string::npos);
  }
  {
    EpochStats dead = healthy_epoch(3);
    dead.events_drained = 0;
    EXPECT_EQ(classify_health({dead}, HealthThresholds{}).state,
              HealthState::kStalled);
  }
  // Only the *latest* epoch counts: an old stall already recovered from is
  // history, not state.
  EpochStats old_stall = healthy_epoch(1);
  old_stall.pairs_selected = 0;
  EXPECT_EQ(classify_health({old_stall, healthy_epoch(2)}, HealthThresholds{}).state,
            HealthState::kOk);
}

TEST(HealthWatchdog, AbsoluteSlowEpochCap) {
  HealthThresholds t;
  t.slow_epoch_seconds = 10.0;
  const HealthReport slow = classify_health({healthy_epoch(0, 11.0)}, t);
  EXPECT_EQ(slow.state, HealthState::kDegradedSlowEpoch);
  EXPECT_NE(slow.reason.find("over the absolute cap of 10"), std::string::npos);
  EXPECT_EQ(classify_health({healthy_epoch(0, 10.0)}, t).state, HealthState::kOk)
      << "the cap is exclusive";
  // <= 0 disables the rule entirely.
  t.slow_epoch_seconds = 0.0;
  EXPECT_EQ(classify_health({healthy_epoch(0, 1e9)}, t).state, HealthState::kOk);
}

TEST(HealthWatchdog, FactorOverMedianNeedsHistory) {
  HealthThresholds t;  // factor 3.0, min_history 3
  std::vector<EpochStats> ring = {healthy_epoch(0, 10.0), healthy_epoch(1, 12.0),
                                  healthy_epoch(2, 8.0), healthy_epoch(3, 35.0)};
  // Median of {10, 12, 8} is 10; 35 > 3 * 10.
  const HealthReport r = classify_health(ring, t);
  EXPECT_EQ(r.state, HealthState::kDegradedSlowEpoch);
  EXPECT_NE(r.reason.find("over 3x the prior median of 10"), std::string::npos);
  // At exactly the factor it does not fire (strictly-over rule)...
  ring.back().sim_seconds = 30.0;
  EXPECT_EQ(classify_health(ring, t).state, HealthState::kOk);
  // ...and with too little history the rule stays silent no matter what.
  EXPECT_EQ(classify_health({healthy_epoch(0, 1.0), healthy_epoch(1, 1.0),
                             healthy_epoch(2, 1000.0)},
                            t)
                .state,
            HealthState::kOk)
      << "ring size must exceed slow_epoch_min_history";
}

TEST(HealthWatchdog, SaturationNeedsConsecutiveEpochs) {
  HealthThresholds t;  // saturation_utilization 1.0, saturation_epochs 2
  EpochStats sat2 = healthy_epoch(2);
  sat2.budget_utilization = 1.0;
  EpochStats sat3 = healthy_epoch(3);
  sat3.budget_utilization = 2.5;
  const HealthReport r = classify_health({healthy_epoch(1), sat2, sat3}, t);
  EXPECT_EQ(r.state, HealthState::kDegradedBudgetSaturated);
  EXPECT_NE(r.reason.find("latest utilization 2.5"), std::string::npos);
  // A single saturated epoch is a spike, not a state.
  EXPECT_EQ(classify_health({healthy_epoch(1), healthy_epoch(2), sat3}, t).state,
            HealthState::kOk);
}

// stalled > slow > saturated: the most actionable verdict wins.
TEST(HealthWatchdog, StalledOutranksSlowOutranksSaturated) {
  HealthThresholds t;
  t.slow_epoch_seconds = 5.0;
  EpochStats worst = healthy_epoch(1, 100.0);
  worst.budget_utilization = 3.0;
  EpochStats prior = healthy_epoch(0);
  prior.budget_utilization = 3.0;
  {
    EpochStats stalled = worst;
    stalled.events_drained = 0;
    EXPECT_EQ(classify_health({prior, stalled}, t).state, HealthState::kStalled);
  }
  EXPECT_EQ(classify_health({prior, worst}, t).state,
            HealthState::kDegradedSlowEpoch);
  EpochStats merely_saturated = worst;
  merely_saturated.sim_seconds = 1.0;
  EXPECT_EQ(classify_health({prior, merely_saturated}, t).state,
            HealthState::kDegradedBudgetSaturated);
}

TEST(HealthWatchdog, EqualInputsYieldEqualReports) {
  const std::vector<EpochStats> ring = {healthy_epoch(0), healthy_epoch(1, 42.5)};
  const HealthThresholds t;
  const HealthReport a = classify_health(ring, t);
  const HealthReport b = classify_health(ring, t);
  EXPECT_EQ(a, b);
  EXPECT_EQ(health_to_json(a).dump(), health_to_json(b).dump());
}

TEST(HealthJson, StateNamesRoundTrip) {
  for (HealthState s :
       {HealthState::kOk, HealthState::kDegradedSlowEpoch,
        HealthState::kDegradedBudgetSaturated, HealthState::kStalled}) {
    HealthState back = HealthState::kOk;
    ASSERT_TRUE(health_state_from_name(health_state_name(s), back));
    EXPECT_EQ(back, s);
  }
  HealthState unused;
  EXPECT_FALSE(health_state_from_name("sick", unused));
}

TEST(HealthJson, RoundTripsExactly) {
  EpochStats odd = healthy_epoch(7, 0.1 + 0.2);  // not exactly 0.3
  odd.flips = 3;
  odd.detection_lag_epochs = 1.5;
  HealthThresholds t;
  t.slow_epoch_seconds = 0.05;
  const HealthReport r = classify_health({healthy_epoch(6), odd}, t);
  EXPECT_EQ(r.state, HealthState::kDegradedSlowEpoch);
  const rpc::Json j = health_to_json(r);
  EXPECT_EQ(j["schema"].as_string(), std::string(kHealthSchema));
  EXPECT_EQ(health_from_json(j), r);
  // The serialized bytes reparse to the same document (%.17g doubles).
  const auto reparsed = rpc::Json::parse(j.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(health_from_json(*reparsed), r);
}

TEST(HealthJson, FromJsonIsStrict) {
  const rpc::Json good = health_to_json(classify_health({healthy_epoch(0)}, {}));
  {  // wrong schema
    rpc::Json j = good;
    j.as_object()["schema"] = rpc::Json("toposhot-health-v999");
    EXPECT_THROW(health_from_json(j), std::runtime_error);
  }
  {  // unknown state name
    rpc::Json j = good;
    j.as_object()["state"] = rpc::Json("sick");
    EXPECT_THROW(health_from_json(j), std::runtime_error);
  }
  {  // missing per-epoch field
    rpc::Json j = good;
    j.as_object()["epochs"].as_array()[0].as_object().erase("flips");
    EXPECT_THROW(health_from_json(j), std::runtime_error);
  }
  {  // negative count
    rpc::Json j = good;
    j.as_object()["epochs"].as_array()[0].as_object()["flips"] = rpc::Json(-1.0);
    EXPECT_THROW(health_from_json(j), std::runtime_error);
  }
  {  // count no uint64 can hold
    rpc::Json j = good;
    j.as_object()["epochs"].as_array()[0].as_object()["flips"] = rpc::Json(1e300);
    EXPECT_THROW(health_from_json(j), std::runtime_error);
  }
}

// -- incremental batching (the schedule seam the monitor drives) ------------

TEST(MonitorSchedule, PairBatchesCoverEachPairOnceWithinBudget) {
  const std::vector<std::pair<size_t, size_t>> pairs{{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  const auto batches = core::make_batches_for_pairs(pairs, 2);
  size_t covered = 0;
  for (const auto& b : batches) {
    EXPECT_LE(b.pairs.size(), 2u);
    covered += b.pairs.size();
  }
  EXPECT_EQ(covered, pairs.size());
}

TEST(MonitorSchedule, PairBatchesSplitOnSourceSinkRoleConflicts) {
  // (0,1) makes 0 a source and 1 a sink; (1,2) would then make 1 a source
  // in the same batch — a node cannot probe while being flooded, so the
  // batch must close before (1,2).
  const std::vector<std::pair<size_t, size_t>> pairs{{0, 1}, {1, 2}, {2, 0}};
  const auto batches = core::make_batches_for_pairs(pairs, 16);
  ASSERT_EQ(batches.size(), 3u) << "each pair conflicts with the previous one";
  for (const auto& b : batches) {
    for (const size_t s : b.sources) {
      for (const size_t k : b.sinks) EXPECT_NE(s, k);
    }
  }
}

// -- TopologyMonitor epoch loop ---------------------------------------------

/// Shared world shaping for every monitor test: the toposhot_cli measure
/// regime (slow mining drain against a small block budget plus organic
/// traffic) in which eviction probes resolve crisply — the config under
/// which clean verdicts equal ground truth, which is what makes monitor
/// snapshots shard-invariant.
struct MonitorWorld {
  graph::Graph truth;
  core::ScenarioOptions wopt;
  core::MeasureConfig cfg;

  explicit MonitorWorld(size_t nodes, uint64_t seed, size_t edges = 0,
                        size_t retries = 0)
      : truth(1) {
    util::Rng rng(seed);
    truth = graph::erdos_renyi_gnm(nodes, edges == 0 ? nodes * 2 : edges, rng);
    wopt.seed = seed;
    wopt.block_gas_limit = 30 * eth::kTransferGas;
    cfg = core::MeasureConfig::Builder(
              core::Scenario(truth, wopt).default_measure_config())
              .repetitions(3)
              .inconclusive_retries(retries)
              .build();
  }
};

MonitorOptions default_monitor_options() {
  MonitorOptions mopt;
  mopt.traffic_churn_rate = 3.0;
  return mopt;
}

TEST(TopologyMonitorTest, BootstrapMeasuresEveryPairAndMatchesTruth) {
  MonitorWorld w(12, 9);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 0.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  EXPECT_EQ(mon.versions(), 0u);
  EXPECT_EQ(mon.latest(), nullptr);
  EXPECT_EQ(mon.status().pairs_tracked, 0u) << "pre-run status is zeroed";

  const auto res = mon.run_epoch();
  EXPECT_EQ(res.epoch, 0u);
  EXPECT_EQ(res.pairs_selected, mon.pairs_total());
  EXPECT_EQ(res.changes_injected, 0u);
  ASSERT_NE(res.snapshot, nullptr);
  EXPECT_EQ(res.snapshot->links.size(), mon.pairs_total());
  EXPECT_EQ(res.snapshot->inconclusive_count(), 0u);
  // Clean verdicts equal ground truth, pair by pair.
  for (const LinkEntry& e : res.snapshot->links) {
    EXPECT_EQ(e.verdict == core::Verdict::kConnected,
              mon.truth().has_edge(static_cast<graph::NodeId>(e.u),
                                   static_cast<graph::NodeId>(e.v)))
        << "pair (" << e.u << ", " << e.v << ")";
  }
  EXPECT_EQ(mon.versions(), 1u);
  EXPECT_EQ(mon.status().coverage, 1.0);
}

TEST(TopologyMonitorTest, IncrementalEpochsStayWithinBudgetAndPublishVersions) {
  MonitorWorld w(12, 10);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  mopt.epoch_budget = 12;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  EXPECT_EQ(mon.effective_epoch_budget(), 12u);
  mon.run(3);
  EXPECT_EQ(mon.epochs_run(), 3u);
  EXPECT_EQ(mon.versions(), 3u);
  for (uint64_t v = 0; v < 3; ++v) {
    const auto snap = mon.snapshot(v);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->version, v);
  }
  EXPECT_EQ(mon.snapshot(3), nullptr);
  EXPECT_EQ(mon.latest()->version, 2u);

  // Post-bootstrap epochs measured at most `epoch_budget` pairs each.
  const auto s2 = mon.snapshot(2);
  EXPECT_LE(s2->pairs_measured, mon.pairs_total() + 2 * 12);

  // Diffs exist for every published ordered pair; unknown versions don't.
  EXPECT_TRUE(mon.diff(0, 2).has_value());
  EXPECT_FALSE(mon.diff(0, 3).has_value());

  // The monitor's own metrics registry tracks the loop.
  const auto ms = mon.metrics().snapshot();
  EXPECT_EQ(ms.counters.at("monitor.epochs"), 3u);
  EXPECT_DOUBLE_EQ(ms.gauges.at("monitor.coverage"), 1.0);
}

TEST(TopologyMonitorTest, ZeroChurnReachesAQuiescentFixedPoint) {
  MonitorWorld w(10, 11);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 0.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(3);
  // With no drift, later epochs only re-confirm: no verdict ever flips.
  const auto d = mon.diff(0, 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->empty());
  EXPECT_EQ(mon.status().changes_observed, 0u);
  EXPECT_EQ(mon.injected_changes().size(), 0u);
}

TEST(TopologyMonitorTest, ReadApiIsSafeUnderConcurrentReaders) {
  MonitorWorld w(10, 12);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = mon.latest();
        if (snap != nullptr) {
          // Published snapshots are immutable: internal consistency holds
          // no matter when the read lands relative to the writer.
          EXPECT_EQ(snap->version, snap->epoch);
          EXPECT_LE(snap->connected_count(), snap->links.size());
        }
        const MonitorStatus st = mon.status();
        EXPECT_LE(st.links_connected, st.pairs_total);
        (void)mon.versions();
        (void)mon.snapshot(0);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  mon.run(3);
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(mon.versions(), 3u);
}

// -- telemetry plane (EpochStats ring, health, event log, exposition) -------

TEST(TopologyMonitorTest, PreRunTelemetryIsPublishedAndStalled) {
  MonitorWorld w(10, 20);
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, default_monitor_options());
  const auto health = mon.health();
  ASSERT_NE(health, nullptr) << "health is never null, even before epoch 0";
  EXPECT_EQ(health->state, HealthState::kStalled);
  EXPECT_TRUE(health->epochs.empty());
  const auto expo = mon.metrics_exposition();
  ASSERT_NE(expo, nullptr);
  EXPECT_TRUE(expo->empty()) << "nothing measured, nothing exposed";
  EXPECT_EQ(mon.status().log_dropped, 0u);
}

TEST(TopologyMonitorTest, EpochStatsRingKeepsLastN) {
  MonitorWorld w(10, 21);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  mopt.stats_capacity = 2;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(4);
  const auto health = mon.health();
  ASSERT_EQ(health->epochs.size(), 2u) << "ring trims to stats_capacity";
  EXPECT_EQ(health->epochs[0].epoch, 2u);
  EXPECT_EQ(health->epochs[1].epoch, 3u);
  EXPECT_GT(health->epochs[1].events_drained, 0u);
  EXPECT_GT(health->epochs[1].sim_seconds, 0.0);
  EXPECT_EQ(health->epochs[1].pairs_selected, mon.effective_epoch_budget());
  EXPECT_EQ(health->state, HealthState::kOk);
}

TEST(TopologyMonitorTest, HealthyRunExposesMetricsAndLogsEpochs) {
  MonitorWorld w(12, 22);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(2);

  // The published exposition tracks the registry and the epoch count.
  const auto expo = mon.metrics_exposition();
  ASSERT_NE(expo, nullptr);
  EXPECT_NE(expo->find("# TYPE monitor_epochs counter\nmonitor_epochs 2\n"),
            std::string::npos);
  EXPECT_NE(expo->find("monitor_coverage 1\n"), std::string::npos);
  EXPECT_NE(expo->find("# TYPE monitor_epoch_utilization histogram\n"),
            std::string::npos);
  EXPECT_NE(expo->find("obs_log_dropped 0\n"), std::string::npos);

  // The event log carries one "epoch" summary per epoch, sim-time stamped,
  // monotonically.
  const auto events = mon.event_log().events();
  std::vector<const obs::LogEvent*> epochs;
  for (const obs::LogEvent& e : events) {
    if (e.subsystem == "monitor" && e.event == "epoch") epochs.push_back(&e);
  }
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_GT(epochs[0]->t, 0.0);
  EXPECT_GT(epochs[1]->t, epochs[0]->t);
  bool saw_health_field = false;
  for (const auto& [k, v] : epochs[1]->fields) {
    if (k == "health") {
      saw_health_field = true;
      EXPECT_EQ(v.as_string(), "ok");
    }
  }
  EXPECT_TRUE(saw_health_field);
  EXPECT_EQ(mon.status().log_dropped, mon.event_log().dropped());

  // A healthy run has nothing to warn about.
  for (const obs::LogEvent& e : events) {
    EXPECT_LT(e.level, util::LogLevel::kWarn)
        << e.subsystem << "/" << e.event << " at " << obs::log_level_name(e.level);
  }
}

// A seeded run pushed over a tiny absolute sim-time cap must classify as
// degraded:slow-epoch (the ISSUE's seeded slow-epoch scenario).
TEST(TopologyMonitorTest, SeededSlowEpochIsClassifiedDegraded) {
  MonitorWorld w(10, 23);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  mopt.health.slow_epoch_seconds = 1e-6;  // every real epoch blows this
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(1);
  const auto health = mon.health();
  EXPECT_EQ(health->state, HealthState::kDegradedSlowEpoch);
  EXPECT_NE(health->reason.find("over the absolute cap"), std::string::npos);
  // The transition from the pre-run `stalled` was logged.
  bool saw_transition = false;
  for (const obs::LogEvent& e : mon.event_log().events()) {
    if (e.event == "health-changed") {
      saw_transition = true;
      EXPECT_EQ(e.level, util::LogLevel::kWarn) << "leaving ok-land warns";
    }
  }
  EXPECT_TRUE(saw_transition);
}

// A budget far under the forced demand saturates: with bootstrap disabled
// every epoch's never-measured backlog alone dwarfs a budget of 1.
TEST(TopologyMonitorTest, StarvedBudgetIsClassifiedSaturated) {
  MonitorWorld w(10, 24);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  mopt.bootstrap_full = false;
  mopt.epoch_budget = 1;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(3);
  const auto health = mon.health();
  EXPECT_EQ(health->state, HealthState::kDegradedBudgetSaturated);
  EXPECT_GT(health->epochs.back().budget_utilization, 1.0);
}

// A world with no candidate pairs never selects or drains anything: the
// watchdog must call that stalled, and the epoch loop must survive it
// (the campaign is skipped outright — an empty selection must not fall
// through to CampaignOptions' "empty means full schedule" rule).
TEST(TopologyMonitorTest, DegenerateWorldIsClassifiedStalled) {
  MonitorWorld w(1, 25);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 0.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  const auto res = mon.run_epoch();
  EXPECT_EQ(res.pairs_selected, 0u);
  ASSERT_NE(res.snapshot, nullptr);
  EXPECT_TRUE(res.snapshot->links.empty());
  const auto health = mon.health();
  EXPECT_EQ(health->state, HealthState::kStalled);
  EXPECT_NE(health->reason.find("made no progress"), std::string::npos);
}

// -- evaluation -------------------------------------------------------------

TEST(EvaluateTracking, WindowsPendingAndPerfectDetection) {
  MonitorWorld w(12, 13);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(2);  // bootstrap + one drifted epoch

  // Changes injected at epoch 1 with a window of 3 epochs reach past the
  // last published version -> pending, not scored.
  const TrackingEvaluation wide = evaluate_tracking(mon, 3);
  EXPECT_EQ(wide.scoreable + wide.superseded + wide.pending,
            mon.injected_changes().size());

  mon.run(3);
  const TrackingEvaluation ev = evaluate_tracking(mon, 2);
  EXPECT_EQ(ev.pending, 0u) << "every window is now fully published";
  EXPECT_EQ(ev.scoreable + ev.superseded, mon.injected_changes().size());
  // Degenerate window: nothing is scoreable.
  const TrackingEvaluation none = evaluate_tracking(mon, 0);
  EXPECT_EQ(none.scoreable, 0u);
  EXPECT_DOUBLE_EQ(none.detection_rate(), 1.0);
}

// -- MonitorRpcServer -------------------------------------------------------

double error_code_of(const rpc::Json& response) {
  return response["error"]["code"].as_number();
}

TEST(MonitorRpc, ServesSnapshotDiffAndStatus) {
  MonitorWorld w(10, 14);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(3);
  rpc::MonitorRpcServer server(&mon);

  // topo_getStatus mirrors the in-process status document exactly.
  const auto status_resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":1,"method":"topo_getStatus","params":[]})"));
  ASSERT_TRUE(status_resp.has_value());
  EXPECT_EQ(status_from_json((*status_resp)["result"]), mon.status());

  // topo_getSnapshot with no param serves the latest version; with a
  // version number, that version.
  const auto latest_resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":2,"method":"topo_getSnapshot","params":[]})"));
  ASSERT_TRUE(latest_resp.has_value());
  EXPECT_EQ(snapshot_from_json((*latest_resp)["result"]), *mon.latest());
  const auto v0_resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":3,"method":"topo_getSnapshot","params":[0]})"));
  ASSERT_TRUE(v0_resp.has_value());
  EXPECT_EQ(snapshot_from_json((*v0_resp)["result"]).version, 0u);

  // topo_getDiff across the published range.
  const auto diff_resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":4,"method":"topo_getDiff","params":[0,2]})"));
  ASSERT_TRUE(diff_resp.has_value());
  EXPECT_EQ(diff_from_json((*diff_resp)["result"]), *mon.diff(0, 2));
}

TEST(MonitorRpc, ErrorsForBadVersionsParamsAndMethods) {
  MonitorWorld w(10, 15);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 0.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  rpc::MonitorRpcServer server(&mon);

  // Before any epoch there is nothing to serve.
  auto resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":1,"method":"topo_getSnapshot","params":[]})"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams);

  mon.run(1);
  resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":2,"method":"topo_getSnapshot","params":[99]})"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams) << "unknown version";
  resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":3,"method":"topo_getSnapshot","params":[-1]})"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams) << "negative version";
  resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":4,"method":"topo_getDiff","params":[0]})"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams) << "arity";
  // Versions no uint64 can hold (the cast is undefined behaviour) are
  // invalid params, never a wrapped-around version's document.
  for (const char* huge : {"1e300", "1e400", "18446744073709551616"}) {
    resp = rpc::Json::parse(server.handle(
        std::string(R"({"jsonrpc":"2.0","id":6,"method":"topo_getSnapshot","params":[)") + huge +
        "]}"));
    EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams) << "snapshot " << huge;
    resp = rpc::Json::parse(server.handle(
        std::string(R"({"jsonrpc":"2.0","id":7,"method":"topo_getDiff","params":[0,)") + huge +
        "]}"));
    EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams) << "diff " << huge;
  }
  resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":5,"method":"topo_noSuchMethod","params":[]})"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kMethodNotFound);
  // Transport framing is shared with the Ethereum endpoint.
  resp = rpc::Json::parse(server.handle("not json"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kParseError);
  resp = rpc::Json::parse(server.handle("[]"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidRequest);
}

TEST(MonitorRpc, BatchRequestsAnswerInOrder) {
  MonitorWorld w(10, 16);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(2);
  rpc::MonitorRpcServer server(&mon);

  const std::string batch =
      R"([{"jsonrpc":"2.0","id":1,"method":"topo_getStatus","params":[]},)"
      R"({"jsonrpc":"2.0","method":"topo_getStatus","params":[]},)"
      R"({"jsonrpc":"2.0","id":2,"method":"topo_getDiff","params":[0,1]}])";
  const auto resp = rpc::Json::parse(server.handle(batch));
  ASSERT_TRUE(resp.has_value());
  ASSERT_TRUE(resp->is_array());
  ASSERT_EQ(resp->as_array().size(), 2u) << "the notification earns no entry";
  EXPECT_DOUBLE_EQ((*resp)[size_t{0}]["id"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ((*resp)[size_t{1}]["id"].as_number(), 2.0);
}

TEST(MonitorRpc, ServesMetricsAndHealth) {
  MonitorWorld w(10, 26);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  mon.run(2);
  rpc::MonitorRpcServer server(&mon);

  // Wrapped (default) mode: schema + format + the exposition body.
  const auto wrapped = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":1,"method":"topo_getMetrics","params":[]})"));
  ASSERT_TRUE(wrapped.has_value());
  const rpc::Json& result = (*wrapped)["result"];
  EXPECT_EQ(result["schema"].as_string(), std::string(rpc::kMetricsSchema));
  EXPECT_EQ(result["format"].as_string(), "prometheus-text-0.0.4");
  EXPECT_EQ(result["body"].as_string(), *mon.metrics_exposition());
  const auto explicit_wrapped = rpc::Json::parse(server.handle(
      R"({"jsonrpc":"2.0","id":2,"method":"topo_getMetrics","params":["wrapped"]})"));
  EXPECT_EQ((*explicit_wrapped)["result"].dump(), result.dump());

  // Raw mode: the exposition text itself, scrape-ready.
  const auto raw = rpc::Json::parse(server.handle(
      R"({"jsonrpc":"2.0","id":3,"method":"topo_getMetrics","params":["raw"]})"));
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ((*raw)["result"].as_string(), *mon.metrics_exposition());

  // topo_getHealth round-trips the published report exactly.
  const auto health_resp = rpc::Json::parse(
      server.handle(R"({"jsonrpc":"2.0","id":4,"method":"topo_getHealth","params":[]})"));
  ASSERT_TRUE(health_resp.has_value());
  EXPECT_EQ(health_from_json((*health_resp)["result"]), *mon.health());

  // Bad params on both methods.
  auto resp = rpc::Json::parse(server.handle(
      R"({"jsonrpc":"2.0","id":5,"method":"topo_getMetrics","params":["xml"]})"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams);
  resp = rpc::Json::parse(server.handle(
      R"({"jsonrpc":"2.0","id":6,"method":"topo_getMetrics","params":[7]})"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams);
  resp = rpc::Json::parse(server.handle(
      R"({"jsonrpc":"2.0","id":7,"method":"topo_getHealth","params":[0]})"));
  EXPECT_DOUBLE_EQ(error_code_of(*resp), rpc::kInvalidParams);
}

TEST(MonitorRpc, ErrorsAreLoggedToTheEventLog) {
  MonitorWorld w(10, 27);
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, default_monitor_options());
  rpc::MonitorRpcServer server(&mon);
  (void)server.handle(
      R"({"jsonrpc":"2.0","id":1,"method":"topo_noSuchMethod","params":[]})");
  (void)server.handle(
      R"({"jsonrpc":"2.0","id":2,"method":"topo_getDiff","params":[0]})");
  std::vector<obs::LogEvent> errors;
  for (const obs::LogEvent& e : mon.event_log().events()) {
    if (e.subsystem == "rpc" && e.event == "error") errors.push_back(e);
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].level, util::LogLevel::kWarn);
  bool saw_code = false, saw_method = false;
  for (const auto& [k, v] : errors[0].fields) {
    if (k == "code") {
      saw_code = true;
      EXPECT_DOUBLE_EQ(v.as_number(), rpc::kMethodNotFound);
    }
    if (k == "method") {
      saw_method = true;
      EXPECT_EQ(v.as_string(), "topo_noSuchMethod");
    }
  }
  EXPECT_TRUE(saw_code);
  EXPECT_TRUE(saw_method);
  // Successful calls log nothing.
  mon.run(1);
  const size_t before = mon.event_log().events().size();
  (void)server.handle(
      R"({"jsonrpc":"2.0","id":3,"method":"topo_getStatus","params":[]})");
  EXPECT_EQ(mon.event_log().events().size(), before);
}

// The new read methods serve published state: hammering them from reader
// threads while the epoch loop runs must stay race-free (check.sh runs
// this under ASan) and always yield well-formed, parseable documents.
TEST(MonitorRpc, TelemetryReadsAreSafeDuringEpochLoop) {
  MonitorWorld w(10, 28);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 1.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);
  rpc::MonitorRpcServer server(&mon);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto health_resp = rpc::Json::parse(server.handle(
            R"({"jsonrpc":"2.0","id":1,"method":"topo_getHealth","params":[]})"));
        ASSERT_TRUE(health_resp.has_value());
        const HealthReport r = health_from_json((*health_resp)["result"]);
        for (size_t e = 1; e < r.epochs.size(); ++e) {
          EXPECT_GT(r.epochs[e].epoch, r.epochs[e - 1].epoch)
              << "published rings are immutable and ordered";
        }
        const auto metrics_resp = rpc::Json::parse(server.handle(
            R"({"jsonrpc":"2.0","id":2,"method":"topo_getMetrics","params":["raw"]})"));
        ASSERT_TRUE(metrics_resp.has_value());
        EXPECT_TRUE((*metrics_resp)["result"].is_string());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  mon.run(3);
  stop.store(true);
  for (std::thread& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(mon.health()->state, HealthState::kOk);
}

// -- the acceptance bar -----------------------------------------------------

// The ISSUE contract for the daemon, pinned as a test: at the default
// budget (auto: 15% of pairs, under the 20% re-probe ceiling), a monitored
// run over a drifting topology detects >= 90% of injected link changes
// within 2 epochs.
TEST(TopologyMonitorTest, DetectsNinetyPercentOfChangesWithinTwoEpochs) {
  MonitorWorld w(24, 1, 44, /*retries=*/2);
  MonitorOptions mopt = default_monitor_options();
  mopt.churn_per_epoch = 2.0;
  TopologyMonitor mon(w.truth, w.wopt, w.cfg, mopt);

  const double reprobe = static_cast<double>(mon.effective_epoch_budget()) /
                         static_cast<double>(mon.pairs_total());
  EXPECT_LT(reprobe, 0.20) << "the default budget must re-probe < 20% of pairs";

  mon.run(6);
  const TrackingEvaluation ev = evaluate_tracking(mon, 2);
  EXPECT_GT(mon.injected_changes().size(), 0u);
  EXPECT_GT(ev.scoreable, 0u);
  EXPECT_GE(ev.detection_rate(), 0.9)
      << ev.detected << "/" << ev.scoreable << " detected";
  EXPECT_EQ(mon.status().links_inconclusive, 0u)
      << "the measure-regime world resolves every probe crisply";
}

}  // namespace
}  // namespace topo::monitor
