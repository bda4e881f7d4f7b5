// Batched per-link delivery: the kDeliverTxBatch drain loop, the payload
// arena behind it, and the per-stream FIFO-clock lifecycle (the churn leak
// regression). The campaign-level batched-vs-unbatched byte goldens live
// in test_determinism.cpp; this file covers the mechanism: member-exact
// trajectory equivalence, window sealing, disconnect interaction, fault
// hooks, and arena capacity hygiene.

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

/// Registered sink that records every full-tx delivery with its exact
/// simulated timestamp — the observable trajectory the batched and
/// unbatched paths must agree on.
struct RecordingPeer : Peer {
  struct Rx {
    double t;
    PeerId from;
    eth::TxHash hash;
    bool operator==(const Rx& o) const {
      return t == o.t && from == o.from && hash == o.hash;
    }
  };
  sim::Simulator* sim = nullptr;
  std::vector<Rx> rxs;

  void deliver_tx(const eth::Transaction& tx, eth::TxHash hash, PeerId from) override {
    EXPECT_EQ(hash, tx.hash()) << "the carried hash is the payload's";
    rxs.push_back({sim->now(), from, hash});
  }
  void deliver_announce(eth::TxHash, PeerId) override {}
  void deliver_get_tx(eth::TxHash, PeerId) override {}
};

// --- Trajectory equivalence -------------------------------------------------

/// Drives an identical randomized burst schedule (three interleaved sender
/// streams, varying extra delays, mid-sequence sim advances) at the given
/// batch window and returns what the receiver saw, when.
std::vector<RecordingPeer::Rx> run_bursts(double window, size_t* events_processed) {
  World w;
  w.net.set_batch_window(window);
  RecordingPeer rx;
  rx.sim = &w.sim;
  const PeerId to = w.net.register_peer(&rx);
  RecordingPeer senders[3];
  PeerId from[3];
  for (int i = 0; i < 3; ++i) {
    senders[i].sim = &w.sim;
    from[i] = w.net.register_peer(&senders[i]);
  }

  util::Rng sched(99);  // identical schedule either way; net RNG is World's
  double t = 0.0;
  for (int burst = 0; burst < 12; ++burst) {
    const int n = 1 + static_cast<int>(sched.next() % 5);
    for (int k = 0; k < n; ++k) {
      const PeerId s = from[sched.next() % 3];
      const double extra = 0.01 * static_cast<double>(sched.next() % 40);
      w.net.send_tx(s, to, w.pending_tx(), extra);
    }
    t += 0.05 * static_cast<double>(1 + sched.next() % 6);
    w.sim.run_until(t);
  }
  w.sim.run_until(t + 10.0);
  if (events_processed != nullptr) *events_processed = w.sim.processed();
  EXPECT_EQ(w.net.arena().live(), 0u) << "all payload slots released";
  return rx.rxs;
}

TEST(BatchDelivery, BatchedTrajectoryIsIdenticalToUnbatched) {
  size_t batched_events = 0, unbatched_events = 0;
  const auto batched = run_bursts(0.25, &batched_events);
  const auto unbatched = run_bursts(0.0, &unbatched_events);
  ASSERT_FALSE(unbatched.empty());
  EXPECT_EQ(batched, unbatched);
  // Per-stream FIFO: deliveries from one sender never go backwards in time.
  for (size_t i = 1; i < batched.size(); ++i) {
    for (size_t j = i; j-- > 0;) {
      if (batched[j].from == batched[i].from) {
        EXPECT_LE(batched[j].t, batched[i].t);
        break;
      }
    }
  }
  // Batching actually engaged: the same trajectory took fewer queue pops.
  EXPECT_LT(batched_events, unbatched_events);
}

// --- Window lifecycle -------------------------------------------------------

TEST(BatchDelivery, WindowRollSealsAndOpensNewBatch) {
  World w;
  w.net.set_batch_window(0.1);
  RecordingPeer rx;
  rx.sim = &w.sim;
  const PeerId to = w.net.register_peer(&rx);
  RecordingPeer sender;
  sender.sim = &w.sim;
  const PeerId from = w.net.register_peer(&sender);

  // The window's first send ships as a plain kDeliverTx — no batch yet.
  w.net.send_tx(from, to, w.pending_tx());  // delivers ~0.05
  EXPECT_EQ(w.net.staged_batches(), 0u) << "a single send pays no staging";
  // A second send inside the window opens the batch...
  w.net.send_tx(from, to, w.pending_tx(), 0.05);  // ~0.10, same window
  EXPECT_EQ(w.net.staged_batches(), 1u);
  // ...and a send past the window seals it and restarts the plain regime,
  // so the next pair opens a second batch.
  w.net.send_tx(from, to, w.pending_tx(), 0.40);  // ~0.45, rolls the window
  w.net.send_tx(from, to, w.pending_tx(), 0.45);  // ~0.50, joins window 2
  EXPECT_EQ(w.net.staged_batches(), 2u);
  w.sim.run_until(5.0);
  ASSERT_EQ(rx.rxs.size(), 4u);
  EXPECT_LT(rx.rxs[0].t, rx.rxs[1].t);
  EXPECT_LT(rx.rxs[1].t, rx.rxs[2].t);
  EXPECT_LT(rx.rxs[2].t, rx.rxs[3].t);
  EXPECT_EQ(w.net.arena().live(), 0u);
  EXPECT_EQ(w.net.staged_batches(), 0u) << "drained batches are erased";
}

TEST(BatchDelivery, ZeroWindowDisablesBatching) {
  World w;
  w.net.set_batch_window(0.0);
  RecordingPeer rx;
  rx.sim = &w.sim;
  const PeerId to = w.net.register_peer(&rx);
  RecordingPeer sender;
  sender.sim = &w.sim;
  const PeerId from = w.net.register_peer(&sender);
  for (int i = 0; i < 4; ++i) w.net.send_tx(from, to, w.pending_tx());
  EXPECT_EQ(w.net.staged_batches(), 0u);
  EXPECT_EQ(w.net.arena().live(), 4u) << "payloads still ride the arena";
  w.sim.run_until(5.0);
  EXPECT_EQ(rx.rxs.size(), 4u);
  EXPECT_EQ(w.net.arena().live(), 0u);
}

// --- Disconnect interaction -------------------------------------------------

TEST(BatchDelivery, DisconnectSealsBatchButInFlightMembersDeliver) {
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

// --- Mid-drain map growth (iterator-invalidation regression) ----------------

TEST(BatchDelivery, MidDrainPropagationOpeningManyBatchesIsSafe) {
  // Draining a batch delivers into a Node whose propagation immediately
  // send_tx()es to every neighbor; the second delivery's fan-out opens a
  // new batch on every hub->leaf stream *while the drain dispatch is still
  // on the stack*, growing batches_ from 1 entry to ~41 and forcing a
  // rehash. Regression: the handler used to hold a pre-drain iterator
  // across the loop and compare/erase through it afterwards — dangling
  // (UB) once the map rehashed. It must erase by key instead.
  World w;
  w.net.set_batch_window(0.25);
  const PeerId hub = w.net.add_node(w.default_config());
  RecordingPeer sender;
  sender.sim = &w.sim;
  const PeerId from = w.net.register_peer(&sender);
  constexpr int kLeaves = 40;
  RecordingPeer leaves[kLeaves];
  for (int i = 0; i < kLeaves; ++i) {
    leaves[i].sim = &w.sim;
    ASSERT_TRUE(w.net.connect(hub, w.net.register_peer(&leaves[i])));
  }
  // Two sends in one window: the opener ships plain (the hub fans tx1 out
  // to all leaves, anchoring each hub->leaf window at ~0.10), the second
  // becomes the batch's sole member; draining it makes the hub fan out
  // tx2 — the second send inside every hub->leaf window, so each one
  // opens a batch mid-dispatch.
  w.net.send_tx(from, hub, w.pending_tx());
  w.net.send_tx(from, hub, w.pending_tx(), 0.005);
  ASSERT_EQ(w.net.staged_batches(), 1u);
  w.sim.run_until(10.0);
  for (int i = 0; i < kLeaves; ++i) {
    EXPECT_EQ(leaves[i].rxs.size(), 2u) << "leaf " << i;
  }
  EXPECT_EQ(w.net.staged_batches(), 0u) << "all batches drained and erased";
  EXPECT_EQ(w.net.arena().live(), 0u);
}

// --- Watchdog budget accounting ---------------------------------------------

TEST(BatchDelivery, RunCappedChargesEachDrainedMember) {
  // A batch dispatch delivers its whole member list in one queue pop under
  // run_capped (drain_bound is +inf there). The budget must charge one
  // unit per drained member, or batching would let event-capped watchdog
  // runs do unboundedly more work per counted event than unbatched runs.
  for (const double window : {0.25, 0.0}) {
    World w;
    w.net.set_batch_window(window);
    RecordingPeer rx;
    rx.sim = &w.sim;
    const PeerId to = w.net.register_peer(&rx);
    RecordingPeer s1, s2;
    s1.sim = &w.sim;
    s2.sim = &w.sim;
    const PeerId from1 = w.net.register_peer(&s1);
    const PeerId from2 = w.net.register_peer(&s2);
    // Six sends inside one window (batched: one plain opener + a batch of
    // five members) plus a straggler on another stream an hour of sim
    // time later, so the queue is provably non-empty when the budget runs
    // out mid-way.
    for (int i = 0; i < 6; ++i) {
      w.net.send_tx(from1, to, w.pending_tx(), 0.005 * static_cast<double>(i));
    }
    w.net.send_tx(from2, to, w.pending_tx(), 1.0);
    // Both regimes deliver 7 messages; both must agree that a 4-delivery
    // budget is not enough...
    EXPECT_FALSE(w.sim.run_capped(4)) << "window=" << window;
    // ...and that topping the budget up finishes the job.
    EXPECT_TRUE(w.sim.run_capped(100)) << "window=" << window;
    EXPECT_EQ(rx.rxs.size(), 7u) << "window=" << window;
    EXPECT_EQ(w.net.arena().live(), 0u);
  }
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

/// Drops every `modulo`-th full-tx send (announce/get-tx untouched).
struct PatternDropHook : FaultHook {
  int modulo;
  int n = 0;
  explicit PatternDropHook(int m) : modulo(m) {}
  bool should_drop(MsgKind kind, PeerId, PeerId) override {
    return kind == MsgKind::kTx && (n++ % modulo) == 0;
  }
  double latency_multiplier(MsgKind, PeerId, PeerId) override { return 1.0; }
};

TEST(BatchDelivery, DroppedSendsNeverHoldArenaSlotsOrJoinBatches) {
  World w;
  PatternDropHook hook(1);  // drop everything
  w.net.set_fault_hook(&hook);
  RecordingPeer rx;
  rx.sim = &w.sim;
  const PeerId to = w.net.register_peer(&rx);
  RecordingPeer sender;
  sender.sim = &w.sim;
  const PeerId from = w.net.register_peer(&sender);
  for (int i = 0; i < 6; ++i) w.net.send_tx(from, to, w.pending_tx());
  EXPECT_EQ(w.net.arena().live(), 0u);
  EXPECT_EQ(w.net.staged_batches(), 0u);
  w.sim.run_until(5.0);
  EXPECT_TRUE(rx.rxs.empty());
}

TEST(BatchDelivery, PartialDropsSplitTheBatchCorrectly) {
  World w;
  PatternDropHook hook(2);  // drop sends 0, 2, 4, ...
  w.net.set_fault_hook(&hook);
  RecordingPeer rx;
  rx.sim = &w.sim;
  const PeerId to = w.net.register_peer(&rx);
  RecordingPeer sender;
  sender.sim = &w.sim;
  const PeerId from = w.net.register_peer(&sender);
  std::vector<eth::TxHash> kept;
  for (int i = 0; i < 8; ++i) {
    const auto tx = w.pending_tx();
    if (i % 2 == 1) kept.push_back(tx.hash());
    w.net.send_tx(from, to, tx);
  }
  EXPECT_EQ(w.net.arena().live(), kept.size());
  w.sim.run_until(5.0);
  ASSERT_EQ(rx.rxs.size(), kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(rx.rxs[i].hash, kept[i]) << "survivors deliver in send order";
  }
  EXPECT_EQ(w.net.arena().live(), 0u);
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

// --- Snapshot / fork with staged batches in flight --------------------------

TEST(BatchDelivery, ForkCarriesStagedBatchesAcrossTheSnapshot) {
  util::Rng grng(3);
  const graph::Graph truth = graph::erdos_renyi_gnm(12, 20, grng);
  core::ScenarioOptions opt;
  opt.seed = 7;
  opt.mempool_capacity = 96;
  opt.future_cap = 24;
  opt.background_txs = 64;
  core::Scenario base(truth, opt);
  base.seed_background();

  // Stage a real burst mid-flight: several sends on one stream, snapshot
  // taken while the kDeliverTxBatch event and its arena payloads are live.
  // Accounts come from the scenario's own manager so the nonces don't
  // collide with the background load's.
  const p2p::PeerId from = base.targets()[0];
  const p2p::PeerId to = base.targets()[1];
  std::vector<eth::TxHash> hashes;
  for (int i = 0; i < 3; ++i) {
    const eth::Address a = base.accounts().create_one();
    const auto tx = base.factory().make(a, base.accounts().allocate_nonce(a), 200);
    hashes.push_back(tx.hash());
    base.net().send_tx(from, to, tx);
  }
  ASSERT_GE(base.net().staged_batches(), 1u);
  ASSERT_GE(base.net().arena().live(), 3u);

  const core::WorldSnapshot snap = base.snapshot();
  auto fork = core::Scenario::fork(snap);
  const double horizon = base.sim().now() + 5.0;
  base.sim().run_until(horizon);
  fork->sim().run_until(horizon);
  for (eth::TxHash h : hashes) {
    EXPECT_TRUE(base.net().node(to).pool().contains(h));
    EXPECT_TRUE(fork->net().node(to).pool().contains(h))
        << "staged batch member lost across the fork";
  }
  EXPECT_EQ(fork->net().arena().live(), base.net().arena().live());
}


/// Everything a network's future depends on, as text: stream clocks, staged
/// batches (ids, flags, member times and arena slots), the batch free list,
/// in-flight payloads, traffic tallies and every regular node's pending
/// pool. Member seqs are left out: a fork renumbers them to ranks.
std::string network_state(const Network& net) {
  const Network::Snapshot s = net.snapshot();
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& c : s.streams) {
    out << "stream " << c.key << ' ' << c.last_delivery << ' ' << c.open_batch << ' '
        << c.window_start << '\n';
  }
  for (const auto& b : s.batches) {
    out << "batch " << b.id << ' ' << b.from << "->" << b.to << ' ' << b.sealed << b.live_event
        << ' ' << b.window_start;
    for (const auto& m : b.members) out << ' ' << m.t << '@' << m.slot;
    out << '\n';
  }
  for (uint32_t id : s.free_batches) out << "free " << id << '\n';
  for (const auto& [slot, p] : s.arena.slots) out << "slot " << slot << ' ' << p.hash << '\n';
  out << "traffic " << s.messages << ' ' << s.bytes << '\n';
  for (PeerId id : s.regular) {
    out << "pool " << id << ':';
    for (const auto& tx : net.node(id).pool().pending_snapshot()) out << ' ' << tx.hash();
    out << '\n';
  }
  return out.str();
}

TEST(BatchDelivery, ForkWithRecycledBatchIdsAndChurnedStreamsDrainsIdentically) {
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

  // Phase 1: bursts on many streams open many batches; drain them all, so
  // every id they used sits on the free list.
  for (size_t i = 0; i + 1 < t.size(); ++i) burst(t[i], t[i + 1], 3);
  const size_t opened = net.staged_batches();
  ASSERT_GE(opened, 6u);
  base.sim().run_until(base.sim().now() + 5.0);
  ASSERT_EQ(net.staged_batches(), 0u);
  const size_t slab = net.snapshot().free_batches.size();
  ASSERT_GE(slab, opened);

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

  // Phase 2: fresh bursts stage batches under recycled ids.
  burst(t[0], t[2], 4);
  burst(t[5], t[1], 3);
  const Network::Snapshot staged = net.snapshot();
  ASSERT_GE(staged.batches.size(), 2u);
  ASSERT_EQ(staged.batches.size() + staged.free_batches.size(), slab)
      << "no new slab entries: every staged batch reuses a freed id";

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
  EXPECT_EQ(net.staged_batches(), 0u);
  EXPECT_EQ(net.arena().live(), 0u);
}

}  // namespace
}  // namespace topo::p2p
