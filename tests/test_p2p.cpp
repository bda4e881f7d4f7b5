// Tests for the p2p layer: propagation semantics, announcement protocol,
// FIFO link ordering, mining integration, and the measurement node.

#include <gtest/gtest.h>

#include "eth/chain.h"
#include "p2p/measurement_node.h"
#include "p2p/network.h"
#include "p2p/node.h"

namespace topo::p2p {
namespace {

struct World {
  sim::Simulator sim;
  eth::Chain chain{8'000'000};
  util::Rng rng{11};
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
  eth::Transaction future_tx(eth::Wei price = 100) {
    const eth::Address a = accounts.create_one();
    return factory.make(a, accounts.future_nonce(a, 1), price);
  }
};

TEST(P2p, PendingTxFloodsLine) {
  World w;
  std::vector<PeerId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(w.net.add_node(w.default_config()));
  for (int i = 0; i + 1 < 5; ++i) w.net.connect(ids[i], ids[i + 1]);

  const auto tx = w.pending_tx();
  w.net.node(ids[0]).submit(tx);
  w.sim.run_until(5.0);
  for (PeerId id : ids) {
    EXPECT_TRUE(w.net.node(id).pool().contains(tx.hash())) << "node " << id;
  }
}

TEST(P2p, FutureTxIsNotPropagated) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);
  const auto tx = w.future_tx();
  w.net.node(a).submit(tx);
  w.sim.run_until(5.0);
  EXPECT_TRUE(w.net.node(a).pool().contains(tx.hash()));
  EXPECT_FALSE(w.net.node(b).pool().contains(tx.hash()));
}

TEST(P2p, MisconfiguredNodeForwardsFutures) {
  World w;
  NodeConfig cfg = w.default_config();
  cfg.forwards_future = true;
  const PeerId a = w.net.add_node(cfg);
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);
  const auto tx = w.future_tx();
  w.net.node(a).submit(tx);
  w.sim.run_until(5.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx.hash()));
}

TEST(P2p, NonForwardingNodeBlocksPropagation) {
  World w;
  NodeConfig silent = w.default_config();
  silent.forwards_transactions = false;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId mid = w.net.add_node(silent);
  const PeerId c = w.net.add_node(w.default_config());
  w.net.connect(a, mid);
  w.net.connect(mid, c);
  const auto tx = w.pending_tx();
  w.net.node(a).submit(tx);
  w.sim.run_until(5.0);
  EXPECT_TRUE(w.net.node(mid).pool().contains(tx.hash())) << "still buffers";
  EXPECT_FALSE(w.net.node(c).pool().contains(tx.hash())) << "but never forwards";
}

TEST(P2p, UnresponsiveNodeDropsEverything) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);
  w.net.node(b).set_unresponsive(true);
  const auto tx = w.pending_tx();
  w.net.node(a).submit(tx);
  w.sim.run_until(5.0);
  EXPECT_FALSE(w.net.node(b).pool().contains(tx.hash()));
}

TEST(P2p, PromotionAfterGapFillPropagates) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);

  const eth::Address acct = w.accounts.create_one();
  const auto tx1 = w.factory.make(acct, 1, 100);  // future (gap at 0)
  const auto tx0 = w.factory.make(acct, 0, 100);
  w.net.node(a).submit(tx1);
  w.sim.run_until(2.0);
  EXPECT_FALSE(w.net.node(b).pool().contains(tx1.hash()));
  w.net.node(a).submit(tx0);  // fills the gap; both become pending
  w.sim.run_until(4.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx0.hash()));
  EXPECT_TRUE(w.net.node(b).pool().contains(tx1.hash())) << "promoted tx propagates";
}

TEST(P2p, FifoOrderingPerLink) {
  // With high-variance latency, messages on one directed link must still
  // arrive in send order (they share a TCP stream). A MeasurementNode logs
  // arrival times; the arrival sequence must match the send sequence.
  World w(sim::LatencyModel::lognormal(0.05, 1.5));
  const PeerId a = w.net.add_node(w.default_config());
  MeasurementNode m(&w.net, &w.chain);
  w.net.register_peer(&m);
  w.net.connect(a, m.id());

  std::vector<eth::TxHash> order;
  for (int i = 0; i < 200; ++i) {
    const auto tx = w.future_tx();
    order.push_back(tx.hash());
    w.net.send_tx(a, m.id(), tx);
  }
  w.sim.run_until(w.sim.now() + 120.0);
  double last = -1.0;
  for (const auto h : order) {
    const auto recs = m.receptions(h);
    ASSERT_EQ(recs.size(), 1u);
    ASSERT_GE(recs[0].second, last) << "reordered delivery on one link";
    last = recs[0].second;
  }
}

// M's receive log keeps, per hash, every (peer, time) reception in arrival
// order, interleaved with other hashes' receptions, and a snapshot carries
// it to a restored node.
TEST(MeasurementLog, ReceptionsKeepArrivalOrderPerHash) {
  World w;
  MeasurementNode m(&w.net, &w.chain);
  w.net.register_peer(&m);
  const auto tx1 = w.future_tx();
  const auto tx2 = w.future_tx();
  m.deliver_tx(tx1, tx1.hash(), 3);
  w.sim.run_until(1.0);
  m.deliver_tx(tx2, tx2.hash(), 4);
  m.deliver_tx(tx1, tx1.hash(), 5);
  w.sim.run_until(2.0);
  m.deliver_tx(tx1, tx1.hash(), 3);

  using Recs = std::vector<std::pair<PeerId, double>>;
  EXPECT_EQ(m.receptions(tx1.hash()), (Recs{{3, 0.0}, {5, 1.0}, {3, 2.0}}));
  EXPECT_EQ(m.receptions(tx2.hash()), (Recs{{4, 1.0}}));
  EXPECT_TRUE(m.receptions(w.future_tx().hash()).empty());
  EXPECT_TRUE(m.received_from_since(tx1.hash(), 5, 1.0));
  EXPECT_FALSE(m.received_from_since(tx1.hash(), 5, 1.5));
  EXPECT_FALSE(m.received_only_from(tx1.hash(), 3, 0.5)) << "5 leaked it at t=1";
  EXPECT_TRUE(m.received_only_from(tx1.hash(), 3, 1.5));
  EXPECT_TRUE(m.received_only_from(tx2.hash(), 4, 0.0));

  MeasurementNode copy(&w.net, &w.chain);
  copy.restore(m.snapshot());
  EXPECT_EQ(copy.receptions(tx1.hash()), m.receptions(tx1.hash()));
  m.clear_log();
  EXPECT_TRUE(m.receptions(tx1.hash()).empty());
  EXPECT_EQ(copy.receptions(tx2.hash()), (Recs{{4, 1.0}})) << "the snapshot owns its copy";
}

TEST(P2p, AnnouncementsDeliverBodiesOnRequest) {
  World w;
  NodeConfig cfg = w.default_config();
  cfg.use_announcements = true;
  std::vector<PeerId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(w.net.add_node(cfg));
  for (int i = 0; i + 1 < 6; ++i) w.net.connect(ids[i], ids[i + 1]);
  const auto tx = w.pending_tx();
  w.net.node(ids[0]).submit(tx);
  w.sim.run_until(20.0);
  for (PeerId id : ids) {
    EXPECT_TRUE(w.net.node(id).pool().contains(tx.hash())) << "node " << id;
  }
}

TEST(P2p, AnnounceBlockWindowSuppressesRerequests) {
  World w;
  NodeConfig cfg = w.default_config();
  const PeerId a = w.net.add_node(cfg);
  const PeerId b = w.net.add_node(cfg);
  const PeerId c = w.net.add_node(cfg);
  w.net.connect(a, b);
  w.net.connect(c, b);

  // Two announcements for the same (never-delivered) hash from different
  // peers within 5 s: only the first may be answered with a GetTx.
  const eth::TxHash fake = 0xdeadbeef;
  const uint64_t before = w.net.messages_delivered();
  w.net.send_announce(a, b, fake);
  w.sim.run_until(1.0);
  w.net.send_announce(c, b, fake);
  w.sim.run_until(4.0);
  // Messages: 2 announces + exactly 1 get_tx (the second was blocked).
  EXPECT_EQ(w.net.messages_delivered() - before, 3u);
  // After the 5 s window expires, a new announcement is honored again.
  w.sim.run_until(7.0);
  w.net.send_announce(c, b, fake);
  w.sim.run_until(9.0);
  EXPECT_EQ(w.net.messages_delivered() - before, 5u);
}

TEST(P2p, MiningRemovesIncludedTransactions) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);
  const auto tx = w.pending_tx(1000);
  w.net.node(a).submit(tx);
  w.sim.run_until(2.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx.hash()));
  w.net.mine_block(a);
  w.sim.run_until(4.0);
  EXPECT_TRUE(w.chain.includes(tx.hash()));
  EXPECT_FALSE(w.net.node(a).pool().contains(tx.hash()));
  EXPECT_FALSE(w.net.node(b).pool().contains(tx.hash()));
}

// A commit notification lands one link latency after its block, so more
// blocks may have committed by then. The one notification must prune the
// pool for every block since the node's previous one, not just the newest.
TEST(P2p, OneCommitNotificationCoversEveryBlockSinceTheLast) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const auto x = w.pending_tx(1000);
  const auto y = w.pending_tx(1000);
  w.net.node(a).submit(x);
  w.net.node(a).submit(y);
  ASSERT_EQ(w.net.node(a).pool().size(), 2u);

  // Two blocks with different senders commit before the node is told.
  eth::Block first;
  first.txs = {x};
  w.chain.commit(std::move(first));
  eth::Block second;
  second.txs = {y};
  w.chain.commit(std::move(second));

  w.net.node(a).on_block_commit();
  EXPECT_FALSE(w.net.node(a).pool().contains(x.hash()));
  EXPECT_FALSE(w.net.node(a).pool().contains(y.hash()));
  EXPECT_EQ(w.net.node(a).pool().size(), 0u);
}

TEST(P2p, StartMiningProducesPeriodicBlocks) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  for (int i = 0; i < 5; ++i) w.net.node(a).submit(w.pending_tx(100 + i));
  w.net.start_mining({a}, 2.0);
  w.sim.run_until(7.0);
  w.net.stop_mining();
  EXPECT_EQ(w.chain.height(), 3u);
  EXPECT_EQ(w.chain.blocks()[0].txs.size(), 5u);
}

TEST(P2p, SeedMempoolsSkipsExceptions) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  const auto tx = w.pending_tx();
  w.net.seed_mempools({tx}, {b});
  EXPECT_TRUE(w.net.node(a).pool().contains(tx.hash()));
  EXPECT_FALSE(w.net.node(b).pool().contains(tx.hash()));
}

TEST(P2p, SnapshotTopologyMatchesConnections) {
  World w;
  std::vector<PeerId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(w.net.add_node(w.default_config()));
  w.net.connect(ids[0], ids[1]);
  w.net.connect(ids[2], ids[3]);
  // A measurement peer must not appear in the topology.
  MeasurementNode m(&w.net, &w.chain);
  w.net.register_peer(&m);
  m.connect_to_all();

  const auto g = w.net.snapshot_topology();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(P2p, MeasurementNodeLogsSenderAndTime) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);
  MeasurementNode m(&w.net, &w.chain);
  w.net.register_peer(&m);
  m.connect_to_all();

  const auto tx = w.pending_tx();
  m.send_to(a, tx);
  w.sim.run_until(5.0);
  // A never echoes back to the peer that sent it the tx (M), but B, which
  // learned it from A, forwards it to M.
  EXPECT_FALSE(m.received_from(tx.hash(), a));
  EXPECT_TRUE(m.received_from(tx.hash(), b)) << "B forwards the propagated tx";
  EXPECT_FALSE(m.received_from_since(tx.hash(), b, 100.0));
  EXPECT_GE(m.receptions(tx.hash()).size(), 1u);
  m.clear_log();
  EXPECT_FALSE(m.received_from(tx.hash(), b));
}

TEST(P2p, MeasurementNodePacingSerializesSends) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  MeasurementNode m(&w.net, &w.chain, /*send_spacing=*/0.01);
  w.net.register_peer(&m);
  w.net.connect(m.id(), a);

  std::vector<eth::Transaction> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(w.future_tx());
  const double done = m.send_batch_to(a, batch);
  EXPECT_NEAR(done, w.sim.now() + 0.1, 1e-9);
  EXPECT_EQ(m.txs_sent(), 10u);
}

TEST(P2p, ClientVersionStringsDiffer) {
  World w;
  NodeConfig geth = w.default_config();
  NodeConfig parity = w.default_config();
  parity.client = mempool::ClientKind::kParity;
  const PeerId a = w.net.add_node(geth);
  const PeerId b = w.net.add_node(parity);
  EXPECT_NE(w.net.node(a).client_version(), w.net.node(b).client_version());
  EXPECT_NE(w.net.node(a).client_version().find("Geth"), std::string::npos);
}


TEST(P2p, AnnouncementFetcherFailsOverToSecondAnnouncer) {
  // Peer A announces a hash but never serves the body (unresponsive after
  // the announce); peer C also announced it. After the blocking window, B
  // must re-request from C and obtain the transaction.
  World w;
  NodeConfig cfg = w.default_config();
  const PeerId a = w.net.add_node(cfg);
  const PeerId b = w.net.add_node(cfg);
  const PeerId c = w.net.add_node(cfg);
  w.net.connect(a, b);
  w.net.connect(c, b);

  const auto tx = w.pending_tx();
  // C holds the body; A does not (it will fail the GetTx silently).
  w.net.node(c).pool().add(tx, 0.0);

  w.net.send_announce(a, b, tx.hash());
  w.sim.run_until(1.0);
  w.net.send_announce(c, b, tx.hash());  // inside A's blocking window
  w.sim.run_until(2.0);
  EXPECT_FALSE(w.net.node(b).pool().contains(tx.hash()))
      << "A cannot serve the body; B is still waiting";
  // After the 5 s window, the fetcher fails over to C.
  w.sim.run_until(12.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx.hash()));
}

TEST(P2p, AnnounceFetcherStateFreedWhenBodyArrives) {
  // Regression: fetcher bookkeeping (block windows + fail-over sources)
  // must be erased once the body lands, or every announced hash leaks two
  // map entries for the life of the node.
  World w;
  NodeConfig cfg = w.default_config();
  cfg.use_announcements = true;
  std::vector<PeerId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(w.net.add_node(cfg));
  for (int i = 0; i + 1 < 6; ++i) w.net.connect(ids[i], ids[i + 1]);

  for (int round = 0; round < 8; ++round) {
    const auto tx = w.pending_tx();
    w.net.node(ids[0]).submit(tx);
    w.sim.run_until(w.sim.now() + 20.0);
    for (PeerId id : ids) {
      ASSERT_TRUE(w.net.node(id).pool().contains(tx.hash()));
    }
  }
  for (PeerId id : ids) {
    EXPECT_EQ(w.net.node(id).announce_fetcher_entries(), 0u) << "node " << id;
  }
}

TEST(P2p, AnnounceFetcherStateFreedWhenAnnouncersExhausted) {
  // Regression: a hash that no announcer can ever serve must not pin
  // fetcher state once the retry chain runs out of sources.
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  const PeerId c = w.net.add_node(w.default_config());
  w.net.connect(a, b);
  w.net.connect(c, b);

  for (int i = 0; i < 4; ++i) {
    const eth::TxHash fake = 0xabc000 + static_cast<eth::TxHash>(i);
    w.net.send_announce(a, b, fake);
    w.net.send_announce(c, b, fake);
  }
  w.sim.run_until(60.0);  // every retry window expires, no body ever arrives
  EXPECT_EQ(w.net.node(b).announce_fetcher_entries(), 0u);
}

TEST(P2p, AnnounceFetcherSkipsRequestOnceBodyIsKnown) {
  // A body that arrives by direct push while an announcement window is
  // pending must cancel the queued re-request (no stale GetTx) and free
  // the state.
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);

  const auto tx = w.pending_tx();
  w.net.send_announce(a, b, tx.hash());
  w.sim.run_until(1.0);
  w.net.send_tx(a, b, tx);  // direct push bypasses the block window
  w.sim.run_until(10.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx.hash()));
  EXPECT_EQ(w.net.node(b).announce_fetcher_entries(), 0u);
}

TEST(P2p, RestartWipesPoolAndFetcherState) {
  World w;
  const PeerId a = w.net.add_node(w.default_config());
  const PeerId b = w.net.add_node(w.default_config());
  w.net.connect(a, b);
  const auto tx = w.pending_tx();
  w.net.node(a).submit(tx);
  w.sim.run_until(2.0);
  ASSERT_TRUE(w.net.node(b).pool().contains(tx.hash()));

  w.net.node(b).restart();
  EXPECT_EQ(w.net.node(b).pool().size(), 0u);
  EXPECT_EQ(w.net.node(b).announce_fetcher_entries(), 0u);
  EXPECT_FALSE(w.net.node(b).pool().contains(tx.hash()));

  // The restarted node still participates: a new pending tx reaches it.
  const auto tx2 = w.pending_tx();
  w.net.node(a).submit(tx2);
  w.sim.run_until(w.sim.now() + 2.0);
  EXPECT_TRUE(w.net.node(b).pool().contains(tx2.hash()));
}

}  // namespace
}  // namespace topo::p2p
