// Full-transaction delivery: one kDeliverTx event per message, the payload
// arena behind it, and the per-stream FIFO-clock lifecycle (the churn leak
// regression). The campaign-level fork-vs-rebuild byte goldens live in
// test_determinism.cpp; this file covers the mechanism: disconnect and
// fault-hook interaction, arena capacity hygiene, and forks taken with
// deliveries in flight.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/toposhot.h"
#include "eth/chain.h"
#include "graph/generators.h"
#include "p2p/fault_hook.h"
#include "p2p/network.h"
#include "p2p/node.h"
#include "p2p/payload_arena.h"

namespace topo::p2p {
namespace {

struct World {
  sim::Simulator sim;
  eth::Chain chain{8'000'000};
  Network net;
  eth::TxFactory factory;
  eth::AccountManager accounts;

  explicit World(sim::LatencyModel lat = sim::LatencyModel::fixed(0.05))
      : net(&sim, &chain, util::Rng(12), lat) {}

  NodeConfig default_config() {
    NodeConfig cfg;
    mempool::MempoolPolicy p = mempool::profile_for(mempool::ClientKind::kGeth).policy;
    p.capacity = 64;
    p.future_cap = 16;
    cfg.policy_override = p;
    return cfg;
  }

  eth::Transaction pending_tx(eth::Wei price = 100) {
    const eth::Address a = accounts.create_one();
    return factory.make(a, accounts.allocate_nonce(a), price);
  }
};

/// Registered sink that records the hash of every full-tx delivery.
struct RecordingPeer : Peer {
  std::vector<eth::TxHash> rxs;

  void deliver_tx(const eth::Transaction& tx, eth::TxHash hash, PeerId) override {
    EXPECT_EQ(hash, tx.hash()) << "the carried hash is the payload's";
    rxs.push_back(hash);
  }
  void deliver_announce(eth::TxHash, PeerId) override {}
  void deliver_get_tx(eth::TxHash, PeerId) override {}
};

// --- Disconnect interaction -------------------------------------------------

TEST(TxDelivery, InFlightDeliveriesLandAfterDisconnect) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  ASSERT_TRUE(w.net.connect(a, b));
  const auto tx = w.pending_tx();
  w.net.node(a).submit(tx);  // floods a->b; delivery in flight, not yet run
  ASSERT_TRUE(w.net.disconnect(a, b));
  w.sim.run_until(5.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx.hash()))
      << "messages already on the wire outlive the link";
  EXPECT_EQ(w.net.arena().live(), 0u);
  EXPECT_EQ(w.net.stream_count(), 0u) << "both directed streams pruned";
}

// --- FIFO-clock lifecycle (the churn leak regression) -----------------------

TEST(FifoClock, ChurnCycleReturnsStreamMapToBaseline) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  const size_t baseline = w.net.stream_count();
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(w.net.connect(a, b));
    const auto tx = w.pending_tx();
    w.net.node(a).submit(tx);
    w.sim.run_until(w.sim.now() + 5.0);
    EXPECT_GT(w.net.stream_count(), baseline) << "traffic created stream state";
    ASSERT_TRUE(w.net.disconnect(a, b));
    EXPECT_EQ(w.net.stream_count(), baseline)
        << "cycle " << cycle << ": disconnect must prune the FIFO clocks";
  }
}

TEST(FifoClock, ReconnectedLinkStartsWithFreshClock) {
  World w;  // fixed 0.05 latency
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  ASSERT_TRUE(w.net.connect(a, b));
  // Park the a->b clock far in the future (delivery at ~100.05).
  w.net.send_tx(a, b, w.pending_tx(), 100.0);
  w.sim.run_until(1.0);
  ASSERT_TRUE(w.net.disconnect(a, b));
  ASSERT_TRUE(w.net.connect(a, b));
  // A fresh send on the re-established link must deliver at ~now + latency,
  // not behind the dead link's stale 100-second clock.
  const auto tx = w.pending_tx();
  w.net.send_tx(a, b, tx);
  w.sim.run_until(5.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx.hash()))
      << "pre-fix, the stale clock pushed this delivery past t=100";
}

// --- Fault-hook interaction -------------------------------------------------

/// Drops every full-tx send (announce/get-tx untouched).
struct DropTxHook : FaultHook {
  bool should_drop(MsgKind kind, PeerId, PeerId) override { return kind == MsgKind::kTx; }
  double latency_multiplier(MsgKind, PeerId, PeerId) override { return 1.0; }
};

TEST(TxDelivery, DroppedSendsHoldNoArenaSlot) {
  World w;
  DropTxHook hook;
  w.net.set_fault_hook(&hook);
  RecordingPeer rx;
  const PeerId to = w.net.register_peer(&rx);
  RecordingPeer sender;
  const PeerId from = w.net.register_peer(&sender);
  for (int i = 0; i < 6; ++i) w.net.send_tx(from, to, w.pending_tx());
  EXPECT_EQ(w.net.arena().live(), 0u);
  EXPECT_EQ(w.sim.queued(), 0u) << "a dropped send schedules no delivery";
  w.sim.run_until(5.0);
  EXPECT_TRUE(rx.rxs.empty());
}

// --- Payload arena ----------------------------------------------------------

TEST(PayloadArena, AcquireTakeRoundTripsThePayload) {
  World w;
  PayloadArena arena;
  const auto tx = w.pending_tx();
  const uint32_t slot = arena.acquire(tx, tx.hash());
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.peek(slot).tx.hash(), tx.hash());
  EXPECT_EQ(arena.peek(slot).hash, tx.hash()) << "the slot carries the hash";
  const PayloadArena::Payload p = arena.take(slot);
  EXPECT_EQ(p.tx.hash(), tx.hash());
  EXPECT_EQ(p.hash, tx.hash());
  EXPECT_EQ(arena.live(), 0u);
}

TEST(PayloadArena, HandlesStayStableAcrossChunkGrowth) {
  World w;
  PayloadArena arena;
  std::vector<std::pair<uint32_t, eth::TxHash>> held;
  for (uint32_t i = 0; i < PayloadArena::kChunkSlots + 40; ++i) {
    const auto tx = w.pending_tx();
    held.emplace_back(arena.acquire(tx, tx.hash()), tx.hash());
  }
  EXPECT_GT(arena.capacity_slots(), size_t{PayloadArena::kChunkSlots});
  for (const auto& [slot, hash] : held) EXPECT_EQ(arena.peek(slot).tx.hash(), hash);
  for (const auto& [slot, hash] : held) EXPECT_EQ(arena.take(slot).tx.hash(), hash);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(PayloadArena, SpikeCapacityIsReleasedAfterDrain) {
  World w;
  PayloadArena arena;
  std::vector<uint32_t> slots;
  const uint32_t spike = PayloadArena::kChunkSlots * 4;
  for (uint32_t i = 0; i < spike; ++i) {
    const auto tx = w.pending_tx();
    slots.push_back(arena.acquire(tx, tx.hash()));
  }
  EXPECT_GE(arena.capacity_slots(), size_t{spike});
  EXPECT_EQ(arena.peak(), spike);
  for (uint32_t s : slots) arena.release(s);
  // Pre-compaction, the grow-only slab pinned all four chunks forever.
  EXPECT_LE(arena.capacity_slots(), size_t{PayloadArena::kChunkSlots})
      << "drained chunks hand their memory back";
  EXPECT_EQ(arena.peak(), spike) << "the gauge still remembers the spike";
  arena.reset_peak();
  EXPECT_EQ(arena.peak(), 0u);
}

TEST(PayloadArena, SnapshotRestoreRebuildsLivePayloads) {
  World w;
  PayloadArena arena;
  std::vector<std::pair<uint32_t, eth::TxHash>> held;
  for (int i = 0; i < 10; ++i) {
    const auto tx = w.pending_tx();
    held.emplace_back(arena.acquire(tx, tx.hash()), tx.hash());
  }
  for (int i = 0; i < 10; i += 2) arena.release(held[static_cast<size_t>(i)].first);
  const PayloadArena::Snapshot snap = arena.snapshot();

  PayloadArena copy;
  copy.restore(snap);
  EXPECT_EQ(copy.live(), 5u);
  for (int i = 1; i < 10; i += 2) {
    const auto& [slot, hash] = held[static_cast<size_t>(i)];
    EXPECT_EQ(copy.peek(slot).tx.hash(), hash) << "slot handles preserved verbatim";
  }
  // The restored arena is a working arena: new acquires and releases land.
  const auto tx = w.pending_tx();
  const uint32_t slot = copy.acquire(tx, tx.hash());
  EXPECT_EQ(copy.take(slot).tx.hash(), tx.hash());
}

// --- Snapshot / fork with deliveries in flight -----------------------------

TEST(TxDelivery, ForkCarriesInFlightDeliveriesAcrossTheSnapshot) {
  util::Rng grng(3);
  const graph::Graph truth = graph::erdos_renyi_gnm(12, 20, grng);
  core::ScenarioOptions opt;
  opt.seed = 7;
  opt.mempool_capacity = 96;
  opt.future_cap = 24;
  opt.background_txs = 64;
  core::Scenario base(truth, opt);
  base.seed_background();

  // Several sends on one stream, snapshot taken while their kDeliverTx
  // events and arena payloads are live. Accounts come from the scenario's
  // own manager so the nonces don't collide with the background load's.
  const p2p::PeerId from = base.targets()[0];
  const p2p::PeerId to = base.targets()[1];
  std::vector<eth::TxHash> hashes;
  for (int i = 0; i < 3; ++i) {
    const eth::Address a = base.accounts().create_one();
    const auto tx = base.factory().make(a, base.accounts().allocate_nonce(a), 200);
    hashes.push_back(tx.hash());
    base.net().send_tx(from, to, tx);
  }
  ASSERT_GE(base.net().arena().live(), 3u);

  const core::WorldSnapshot snap = base.snapshot();
  auto fork = core::Scenario::fork(snap);
  EXPECT_EQ(fork->net().arena().live(), base.net().arena().live());
  const double horizon = base.sim().now() + 5.0;
  base.sim().run_until(horizon);
  fork->sim().run_until(horizon);
  for (eth::TxHash h : hashes) {
    EXPECT_TRUE(base.net().node(to).pool().contains(h));
    EXPECT_TRUE(fork->net().node(to).pool().contains(h))
        << "in-flight delivery lost across the fork";
  }
  EXPECT_EQ(fork->net().arena().live(), base.net().arena().live());
}

/// Everything a network's future depends on, as text: stream clocks,
/// in-flight payloads (arena slots and hashes), traffic tallies and every
/// regular node's pending pool.
std::string network_state(const Network& net) {
  const Network::Snapshot s = net.snapshot();
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& c : s.streams) out << "stream " << c.key << ' ' << c.last_delivery << '\n';
  for (const auto& [slot, p] : s.arena.slots) out << "slot " << slot << ' ' << p.hash << '\n';
  out << "traffic " << s.messages << ' ' << s.bytes << '\n';
  for (PeerId id : s.regular) {
    out << "pool " << id << ':';
    for (const auto& tx : net.node(id).pool().pending_snapshot()) out << ' ' << tx.hash();
    out << '\n';
  }
  return out.str();
}

TEST(TxDelivery, ForkMidFloodWithChurnedStreamsDrainsIdentically) {
  util::Rng grng(5);
  const graph::Graph truth = graph::erdos_renyi_gnm(12, 24, grng);
  core::ScenarioOptions opt;
  opt.seed = 11;
  opt.mempool_capacity = 96;
  opt.future_cap = 24;
  opt.background_txs = 64;
  core::Scenario base(truth, opt);
  base.seed_background();
  Network& net = base.net();
  const auto& t = base.targets();
  const auto burst = [&base](PeerId from, PeerId to, int n) {
    for (int i = 0; i < n; ++i) {
      const eth::Address a = base.accounts().create_one();
      base.net().send_tx(from, to, base.factory().make(a, base.accounts().allocate_nonce(a), 300));
    }
  };

  // Phase 1: bursts on many streams, drained, so every stream has a clock.
  for (size_t i = 0; i + 1 < t.size(); ++i) burst(t[i], t[i + 1], 3);
  base.sim().run_until(base.sim().now() + 5.0);
  ASSERT_EQ(net.arena().live(), 0u);

  // Churn: drop links (their streams leave the table), dial new ones.
  const size_t streams_before = net.stream_count();
  size_t dropped = 0;
  for (PeerId u : t) {
    const auto peers = net.peers_of(u);
    if (!peers.empty() && net.disconnect(u, peers.front())) ++dropped;
    if (dropped == 4) break;
  }
  ASSERT_EQ(dropped, 4u);
  EXPECT_LT(net.stream_count(), streams_before) << "disconnects erase stream clocks";
  for (size_t i = 0; i + 3 < t.size(); i += 3) net.connect(t[i], t[i + 3]);

  // Phase 2: fresh bursts, forked while their payloads are in flight.
  burst(t[0], t[2], 4);
  burst(t[5], t[1], 3);
  ASSERT_GE(net.arena().live(), 7u);

  const core::WorldSnapshot snap = base.snapshot();
  auto fork = core::Scenario::fork(snap);
  ASSERT_EQ(network_state(fork->net()), network_state(net));
  for (const double dt : {0.03, 0.08, 0.2, 5.0}) {
    const double horizon = snap.now + dt;
    base.sim().run_until(horizon);
    fork->sim().run_until(horizon);
    ASSERT_EQ(fork->sim().processed(), base.sim().processed()) << "dt " << dt;
    ASSERT_EQ(fork->sim().dispatch_counts(), base.sim().dispatch_counts()) << "dt " << dt;
    ASSERT_EQ(network_state(fork->net()), network_state(net)) << "dt " << dt;
  }
  EXPECT_EQ(net.arena().live(), 0u);
}

}  // namespace
}  // namespace topo::p2p
