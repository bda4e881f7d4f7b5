// End-to-end measureOneLink across every *measurable* client profile
// (paper §5.2's "Configuration of R/U" — the primitive must adapt its price
// ladder and flood sharding to each client's R/U/P/L), plus the negative
// results for the zero-bump clients.

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/toposhot.h"
#include "p2p/node.h"
#include "graph/generators.h"

namespace topo::core {
namespace {

class ClientEndToEnd : public ::testing::TestWithParam<mempool::ClientKind> {};

TEST_P(ClientEndToEnd, TriangleMeasurementMatchesTruth) {
  const auto kind = GetParam();
  const auto& profile = mempool::profile_for(kind);

  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);

  ScenarioOptions opt;
  opt.seed = 100 + static_cast<uint64_t>(kind);
  opt.client = kind;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  Scenario sc(g, opt);
  sc.seed_background();

  // Configure the primitive for the target client (§5.2): R from the
  // profile, flood sharded into <= U futures per account.
  MeasureConfig cfg = sc.default_measure_config();
  ASSERT_EQ(cfg.bump_bp, profile.policy.replace_bump_bp);
  ASSERT_LE(cfg.futures_per_account_U, profile.policy.max_futures_per_account);

  MeasurementSession session(sc, cfg);
  const auto linked = session.one_link(sc.targets()[0], sc.targets()[1]).value;
  const auto unlinked = session.one_link(sc.targets()[0], sc.targets()[3]).value;

  if (profile.measurable()) {
    EXPECT_TRUE(linked.connected) << profile.name << " true link missed";
    EXPECT_FALSE(unlinked.connected) << profile.name << " false positive";
  } else {
    // Zero-bump clients (Aleth, Nethermind): the ladder degenerates
    // (txA price == txC price), so the primitive cannot certify links.
    EXPECT_FALSE(unlinked.connected) << profile.name << " must stay false-positive-free";
  }
}

INSTANTIATE_TEST_SUITE_P(AllClients, ClientEndToEnd, ::testing::ValuesIn(mempool::kAllClients),
                         [](const ::testing::TestParamInfo<mempool::ClientKind>& info) {
                           return mempool::client_name(info.param);
                         });

TEST(ClientEndToEnd, ParityPendingGateScalesWithPool) {
  // Parity's P = 2000-of-8192 becomes 62-of-256 under scaling; floods must
  // still evict because seeded pools hold more pending than the gate.
  ScenarioOptions opt;
  opt.client = mempool::ClientKind::kParity;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;  // must fit the shrunken pool (ctor validates)
  graph::Graph g(2);
  Scenario sc(g, opt);
  const auto& pool = sc.net().node(sc.targets()[0]).pool();
  EXPECT_EQ(pool.policy().min_pending_for_eviction, 2000u * 256 / 8192);
  EXPECT_EQ(pool.policy().capacity, 256u);
}

}  // namespace
}  // namespace topo::core
