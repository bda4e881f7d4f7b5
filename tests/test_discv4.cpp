// Tests for the event-driven discv4 protocol: bootstrap convergence,
// lookups, liveness tracking, eviction challenges, and loss tolerance.

#include <gtest/gtest.h>

#include <bit>

#include "disc/discv4.h"
#include "util/rng.h"

namespace topo::disc {
namespace {

TEST(DiscV4, BootstrapFillsTables) {
  sim::Simulator sim;
  DiscV4Net net(&sim, util::Rng(1));
  for (int i = 0; i < 40; ++i) net.add_node();
  net.converge(120.0);

  size_t total = 0;
  for (uint32_t i = 0; i < net.size(); ++i) total += net.node(i).table_size();
  const double avg = static_cast<double>(total) / net.size();
  EXPECT_GT(avg, 15.0) << "tables should fill well past the bootstrap contact";
}

TEST(DiscV4, LookupFindsClosestNodes) {
  sim::Simulator sim;
  DiscV4Net net(&sim, util::Rng(2));
  for (int i = 0; i < 30; ++i) net.add_node();
  net.converge(120.0);

  // Look up node 17's exact id from node 3: it must appear in the result.
  const auto target = net.node(17).id();
  std::vector<uint32_t> found;
  net.node(3).lookup(target, [&](std::vector<uint32_t> nodes) { found = std::move(nodes); });
  sim.run_until(sim.now() + 10.0);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.front(), 17u) << "the target itself is the closest node to its own id";
}

TEST(DiscV4, PongUpdatesLastSeen) {
  sim::Simulator sim;
  DiscV4Net net(&sim, util::Rng(3));
  for (int i = 0; i < 10; ++i) net.add_node();
  net.converge(60.0);

  bool any_seen = false;
  for (uint32_t i = 0; i < net.size() && !any_seen; ++i) {
    for (const auto entry : net.node(i).table_entries()) {
      if (net.node(i).last_seen(entry).has_value()) {
        any_seen = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_seen) << "liveness (last_seen) must be tracked via PONGs";
}

TEST(DiscV4, DeadNodesAreEvicted) {
  sim::Simulator sim;
  DiscV4Net net(&sim, util::Rng(4));
  for (int i = 0; i < 20; ++i) net.add_node();
  net.converge(90.0);

  // Kill node 5 and let refresh cycles re-ping; its entries must drain.
  size_t before = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 5) continue;
    const auto entries = net.node(i).table_entries();
    before += std::count(entries.begin(), entries.end(), 5u);
  }
  ASSERT_GT(before, 0u) << "node 5 should be known before dying";

  net.set_dead(5, true);
  // Pressure: new nodes join, full buckets challenge the dead entry.
  for (int i = 0; i < 20; ++i) net.add_node();
  for (uint32_t i = 20; i < 40; ++i) net.node(i).bootstrap(0, net.node(0).id());
  sim.run_until(sim.now() + 240.0);

  size_t after = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 5) continue;
    const auto entries = net.node(i).table_entries();
    after += std::count(entries.begin(), entries.end(), 5u);
  }
  EXPECT_LT(after, before) << "eviction challenges must drain a dead contact";
}

TEST(DiscV4, ToleratesDatagramLoss) {
  sim::Simulator sim;
  DiscV4Net net(&sim, util::Rng(5), 0.03, /*loss=*/0.2);
  for (int i = 0; i < 25; ++i) net.add_node();
  net.converge(180.0);
  size_t total = 0;
  for (uint32_t i = 0; i < net.size(); ++i) total += net.node(i).table_size();
  EXPECT_GT(static_cast<double>(total) / net.size(), 8.0)
      << "discovery must still converge under 20% packet loss";
}

TEST(DiscV4, DatagramsAreCounted) {
  sim::Simulator sim;
  DiscV4Net net(&sim, util::Rng(6));
  for (int i = 0; i < 5; ++i) net.add_node();
  net.converge(30.0);
  EXPECT_GT(net.datagrams(), 20u);
}

// The whole protocol trajectory, pinned: a lossy run in which a node dies
// mid-way and newcomers join. Any change to when a datagram, refresh or
// timeout fires, or to the order of the loss and delay draws, moves the
// recorded values. discv4 draws only uniform/chance and calls no libm, so
// they hold on every platform.
TEST(DiscV4, TrajectoryMatchesRecordedFingerprint) {
  sim::Simulator sim;
  DiscV4Net net(&sim, util::Rng(11), 0.03, /*loss=*/0.1);
  for (int i = 0; i < 24; ++i) net.add_node();
  net.converge(45.0);
  net.set_dead(5, true);
  for (int i = 0; i < 8; ++i) net.add_node();
  for (uint32_t i = 24; i < 32; ++i) net.node(i).bootstrap(0, net.node(0).id());
  sim.run_until(sim.now() + 75.0);

  // Every node's sorted table with each entry's last PONG time.
  uint64_t h = 0;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    util::splitmix64(h);
  };
  for (uint32_t i = 0; i < net.size(); ++i) {
    mix(i);
    for (uint32_t e : net.node(i).table_entries()) {
      mix(e);
      const auto seen = net.node(i).last_seen(e);
      mix(seen ? std::bit_cast<uint64_t>(*seen) : ~uint64_t{0});
    }
  }
  EXPECT_EQ(net.datagrams(), 14407u);
  EXPECT_EQ(sim.processed(), 20795u);
  EXPECT_EQ(h, 0x8739f7ba6c33b8f0u);
}

}  // namespace
}  // namespace topo::disc
