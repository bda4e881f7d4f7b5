// World snapshot / fork tests (core::Scenario::snapshot / fork) and the
// peer-lifetime enforcement contract (p2p::Peer auto-detach).
//
// The fork contract under test: a WorldSnapshot is a frozen, self-contained
// image of a warmed world; replicas forked from it are fully independent
// (copy-on-write pages — mutating one never leaks into another or back into
// the snapshot), survive the base world's destruction, and — driven with
// the same inputs — produce byte-identical artifacts to each other and to
// the world they were forked from. The campaign-level fork-vs-rebuild
// byte-identity goldens live in test_determinism.cpp; this file covers the
// mechanism itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "core/session.h"
#include "core/toposhot.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "p2p/network.h"
#include "p2p/node.h"
#include "util/rng.h"

namespace topo {
namespace {

core::ScenarioOptions small_options(uint64_t seed = 7) {
  core::ScenarioOptions opt;
  opt.seed = seed;
  opt.mempool_capacity = 96;
  opt.future_cap = 24;
  opt.background_txs = 64;
  return opt;
}

graph::Graph small_truth() {
  util::Rng rng(3);
  return graph::erdos_renyi_gnm(12, 20, rng);
}

/// Name-sorted JSON-ish fingerprint of a scenario's full metrics export.
/// A fork rebuilds its queue by re-pushing the captured events, so a
/// fork-vs-source comparison strips the timing-wheel `sim.queue.impl.*`
/// gauges.
std::string metrics_fingerprint(core::Scenario& sc, bool strip_queue_internals = false) {
  const obs::MetricsSnapshot snap = sc.snapshot_metrics();
  const auto kept = [&](const std::string& k) {
    return !strip_queue_internals || k.rfind("sim.queue.impl.", 0) != 0;
  };
  std::string out;
  for (const auto& [k, v] : snap.counters) out += k + "=" + std::to_string(v) + ";";
  for (const auto& [k, v] : snap.gauges) {
    if (kept(k)) out += k + "=" + std::to_string(v) + ";";
  }
  for (const auto& [k, v] : snap.gauge_maxes) {
    if (kept(k)) out += k + "^" + std::to_string(v) + ";";
  }
  return out;
}

TEST(SnapshotWorld, CapturesWarmedStateAndSurvivesBaseDestruction) {
  const graph::Graph truth = small_truth();
  core::WorldSnapshot snap;
  {
    core::Scenario base(truth, small_options());
    base.seed_background();
    snap = base.snapshot();
    // Base world dies here; the snapshot must be self-contained.
  }
  auto fork = core::Scenario::fork(snap);
  ASSERT_EQ(fork->targets().size(), truth.num_nodes());
  // The warmed background load came across: every node's pool is populated.
  for (p2p::PeerId id : fork->targets()) {
    EXPECT_GT(fork->net().node(id).pool().size(), 0u) << "node " << id;
  }
  // The replica's clock continues from the warmed world's, not from zero.
  EXPECT_GT(fork->sim().now(), 0.0);
  // And the world is actually runnable: pending maintenance ticks fire.
  const double before = fork->sim().now();
  fork->sim().run_until(before + 2.0);
  EXPECT_GT(fork->sim().processed(), 0u);
}

TEST(SnapshotWorld, ForkMidLinkChurnMatchesSource) {
  const graph::Graph truth = small_truth();
  core::Scenario base(truth, small_options());
  base.seed_background();
  base.net().start_link_churn(5.0);
  base.sim().run_until(base.sim().now() + 2.0);
  const uint64_t churned = base.net().churn_events();
  ASSERT_GT(churned, 0u);

  // The pending churn tick is captured like any other event and re-binds
  // to the replica's network.
  const core::WorldSnapshot snap = base.snapshot();
  ASSERT_TRUE(std::any_of(snap.pending.begin(), snap.pending.end(), [](const auto& pe) {
    return pe.ev.kind == sim::EventKind::kLinkChurn;
  }));
  auto fork = core::Scenario::fork(snap);
  EXPECT_EQ(fork->net().churn_events(), churned);

  const double until = base.sim().now() + 5.0;
  base.sim().run_until(until);
  fork->sim().run_until(until);
  EXPECT_GT(base.net().churn_events(), churned) << "churn keeps running in the source";
  EXPECT_EQ(fork->net().churn_events(), base.net().churn_events());
  EXPECT_EQ(fork->net().snapshot_topology().edges(), base.net().snapshot_topology().edges());
  EXPECT_EQ(metrics_fingerprint(*fork, /*strip_queue_internals=*/true),
            metrics_fingerprint(base, /*strip_queue_internals=*/true));
}

// Equal-time events pop in the order they were scheduled. A fork re-pushes
// the captured events in the source's pop order, so its queue must pop a
// same-time group in exactly the source's order — not in any order the
// events themselves would sort into.
TEST(SnapshotWorld, RestoresEqualTimeEventsInSourcePopOrder) {
  const graph::Graph truth = small_truth();
  core::ScenarioOptions opt = small_options();
  opt.latency_sigma = 0.0;  // every link delay is the median
  core::Scenario base(truth, opt);
  base.seed_background();
  // Sends made in one instant, from the highest peer id down, all land at
  // now + median.
  const auto& t = base.targets();
  for (size_t i = t.size() - 1; i > 0; --i) {
    const eth::Address a = base.accounts().create_one();
    base.net().send_tx(t[i], t[i - 1],
                       base.factory().make(a, base.accounts().allocate_nonce(a), 300));
  }
  const double lands = base.sim().now() + opt.latency_median;
  const auto source = base.sim().pending_snapshot();
  ASSERT_GE(std::count_if(source.begin(), source.end(),
                          [&](const auto& s) {
                            return s.t == lands && s.ev.kind == sim::EventKind::kDeliverTx;
                          }),
            2)
      << "the test needs a same-time group";

  auto fork = core::Scenario::fork(base.snapshot());
  const auto forked = fork->sim().pending_snapshot();
  ASSERT_EQ(forked.size(), source.size());
  const auto key = [](const sim::EventQueue::Scheduled& s) {
    return std::tuple{s.t, s.ev.kind, s.ev.a, s.ev.b, s.ev.payload};
  };
  for (size_t i = 0; i < source.size(); ++i) {
    EXPECT_EQ(key(forked[i]), key(source[i])) << "pending event " << i;
  }
}

TEST(SnapshotWorld, RejectsPendingEventsOfAnOutsideSink) {
  const graph::Graph truth = small_truth();
  core::Scenario base(truth, small_options());
  base.seed_background();
  fault::FaultPlan plan;
  plan.scheduled.push_back(fault::NodeFaultEvent{base.sim().now() + 1.0, 2.0, 3, false});
  fault::FaultInjector injector(plan, 9);
  injector.install(base.net());
  // The injector lives outside the world: its pending outage cannot be
  // replayed into a fork.
  EXPECT_THROW((void)base.snapshot(), std::logic_error);
  // Once the outage has started and its window closed, nothing of the
  // injector's is pending and the world snapshots again.
  base.sim().run_until(base.sim().now() + 5.0);
  EXPECT_EQ(injector.unresponsive_windows(), 1u);
  EXPECT_NO_THROW((void)base.snapshot());
}

TEST(ForkWorld, MutatingOneReplicaNeverLeaksIntoAnother) {
  const graph::Graph truth = small_truth();
  core::Scenario base(truth, small_options());
  base.seed_background();
  const core::WorldSnapshot snap = base.snapshot();

  auto dirty = core::Scenario::fork(snap);
  auto clean = core::Scenario::fork(snap);

  // Drive the dirty replica hard: a real measurement floods pools, evicts,
  // mines nothing but dirties nearly every copy-on-write page.
  core::MeasurementSession session(*dirty);
  const auto r = session.one_link(dirty->targets()[0], dirty->targets()[1]);
  (void)r;
  EXPECT_GT(dirty->sim().now(), clean->sim().now());

  // The untouched replica still matches a fresh fork of the same snapshot,
  // down to every metric — nothing the dirty replica did is visible.
  auto fresh = core::Scenario::fork(snap);
  EXPECT_EQ(metrics_fingerprint(*clean), metrics_fingerprint(*fresh));
  for (size_t i = 0; i < clean->targets().size(); ++i) {
    EXPECT_EQ(clean->net().node(clean->targets()[i]).pool().size(),
              fresh->net().node(fresh->targets()[i]).pool().size());
  }
}

TEST(ForkWorld, ReplicasDrivenIdenticallyStayByteIdentical) {
  const graph::Graph truth = small_truth();
  core::Scenario base(truth, small_options());
  base.seed_background();
  const core::WorldSnapshot snap = base.snapshot();

  auto run = [&](core::Scenario& sc) {
    sc.reseed(1234);
    core::MeasurementSession session(sc);
    (void)session.one_link(sc.targets()[2], sc.targets()[3]);
    return metrics_fingerprint(sc);
  };
  auto a = core::Scenario::fork(snap);
  auto b = core::Scenario::fork(snap);
  EXPECT_EQ(run(*a), run(*b));
}

TEST(ForkWorld, DoubleForkContinuesExactlyWhereTheFirstForkWas) {
  const graph::Graph truth = small_truth();
  core::Scenario base(truth, small_options());
  base.seed_background();
  const core::WorldSnapshot snap = base.snapshot();

  // Fork once, advance, snapshot the fork, fork again: the grandchild must
  // be indistinguishable from the child it was cut from.
  auto child = core::Scenario::fork(snap);
  child->sim().run_until(child->sim().now() + 1.5);
  const core::WorldSnapshot mid = child->snapshot();
  auto grandchild = core::Scenario::fork(mid);

  EXPECT_EQ(grandchild->sim().now(), child->sim().now());
  EXPECT_EQ(grandchild->sim().processed(), child->sim().processed());

  // Driven identically from here, they stay identical.
  auto run = [](core::Scenario& sc) {
    sc.reseed(99);
    core::MeasurementSession session(sc);
    (void)session.one_link(sc.targets()[1], sc.targets()[4]);
    return sc.sim().now();
  };
  EXPECT_EQ(run(*child), run(*grandchild));
}

TEST(ForkWorld, ArenaPeakGaugeStartsFromTheRestoredLevelPerFork) {
  const graph::Graph truth = small_truth();
  core::Scenario base(truth, small_options());
  base.seed_background();
  // Dirty the base's arena telemetry with a real measurement (its floods
  // put thousands of payloads in flight at once).
  core::MeasurementSession session(base);
  (void)session.one_link(base.targets()[0], base.targets()[5]);
  const auto base_metrics = base.snapshot_metrics();
  const double base_peak = base_metrics.gauge_maxes.at("net.arena_peak");
  ASSERT_GT(base_peak, 0.0);

  const core::WorldSnapshot snap = base.snapshot();
  auto fork = core::Scenario::fork(snap);
  // Telemetry is per-world: the replica's high-water starts from the
  // payloads it restored, exactly like a freshly rebuilt world — it must
  // not inherit the base run's spike.
  const auto fork_metrics = fork->snapshot_metrics();
  EXPECT_EQ(fork_metrics.gauge_maxes.at("net.arena_peak"),
            static_cast<double>(fork->net().arena().live()));
  EXPECT_LT(fork_metrics.gauge_maxes.at("net.arena_peak"), base_peak);
}

TEST(ForkWorld, ReseedGivesForksIndependentIdentities) {
  const graph::Graph truth = small_truth();
  core::Scenario base(truth, small_options());
  base.seed_background();
  const core::WorldSnapshot snap = base.snapshot();

  // Organic traffic draws arrival times and senders from the scenario RNG,
  // so it is the seed-sensitive load: same seed → same trajectory;
  // different seed → (overwhelmingly) not.
  auto run = [&](uint64_t seed) {
    auto sc = core::Scenario::fork(snap);
    sc->reseed(seed);
    sc->start_organic_traffic(40.0);
    sc->sim().run_until(sc->sim().now() + 5.0);
    std::string fp;
    for (const auto& [k, v] : sc->snapshot_metrics().counters)
      fp += k + "=" + std::to_string(v) + ";";
    return fp;
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// ---------------------------------------------------------------------------
// Peer lifetime enforcement (p2p::Peer auto-detach).

class RecordingPeer final : public p2p::Peer {
 public:
  void deliver_tx(const eth::Transaction&, eth::TxHash, p2p::PeerId) override { ++delivered; }
  void deliver_announce(eth::TxHash, p2p::PeerId) override {}
  void deliver_get_tx(eth::TxHash, p2p::PeerId) override {}
  int delivered = 0;
};

TEST(PeerLifetime, DestroyedPeerDetachesWithDeliveryStillInFlight) {
  sim::Simulator sim;
  eth::Chain chain(8'000'000);
  p2p::Network net(&sim, &chain, util::Rng(5), sim::LatencyModel::fixed(0.05));

  p2p::NodeConfig cfg;
  const p2p::PeerId sender = net.add_node(cfg);
  auto doomed = std::make_unique<RecordingPeer>();
  const p2p::PeerId id = net.register_peer(doomed.get());
  ASSERT_TRUE(net.connect(sender, id));

  eth::TxFactory f;
  net.send_tx(sender, id, f.make(1, 0, 100));
  // The delivery is scheduled but not yet run; destroying the peer now must
  // sever its links and leave an inert sink in its slot. Under ASan this is
  // the use-after-free regression test for the old dangling peers_ entry.
  doomed.reset();
  EXPECT_FALSE(net.linked(sender, id));
  // Delivers into the sink — must not crash or touch freed memory. (Bounded
  // run: the network's periodic maintenance keeps the queue non-empty.)
  sim.run_until(sim.now() + 1.0);
  SUCCEED();
}

TEST(PeerLifetime, NetworkDestroyedBeforePeerLeavesNoDanglingBackref) {
  auto peer = std::make_unique<RecordingPeer>();
  {
    sim::Simulator sim;
    eth::Chain chain(8'000'000);
    p2p::Network net(&sim, &chain, util::Rng(5));
    net.register_peer(peer.get());
    // Network dies first: it must unhook the peer's auto-detach
    // back-reference, or the peer's destructor would call into freed
    // memory below.
  }
  peer.reset();
  SUCCEED();
}

TEST(PeerLifetime, ExplicitDetachThenDestroyIsIdempotent) {
  sim::Simulator sim;
  eth::Chain chain(8'000'000);
  p2p::Network net(&sim, &chain, util::Rng(5));
  auto peer = std::make_unique<RecordingPeer>();
  const p2p::PeerId id = net.register_peer(peer.get());
  net.detach_peer(id);
  // Already detached: the destructor must not detach a second time (the
  // slot now holds the sink, not this peer).
  peer.reset();
  EXPECT_NO_THROW(net.peer(id).deliver_announce(1, 0));  // inert sink slot
}

}  // namespace
}  // namespace topo
