// Batched per-link delivery microbenchmarks: the same deliver_tx-dominated
// workloads with batching disabled (window 0, one kDeliverTx event per
// message — the pre-batching cost model) and enabled (the default window).
// The batched/unbatched pairs share every argument except the window, so
// the ratio between them IS the payoff of coalescing queue traffic; both
// sides are gated against BENCH_baseline.json so neither the optimization
// nor the reference path can silently regress.
//
// Benchmark names encode the window in milliseconds: BM_*/0 is unbatched,
// BM_*/250 is the default window.

#include <benchmark/benchmark.h>

#include "core/session.h"
#include "core/toposhot.h"
#include "eth/chain.h"
#include "graph/generators.h"
#include "p2p/network.h"
#include "p2p/node.h"

namespace {

using namespace topo;

/// Inert delivery sink: the cost under test is the queue/dispatch/arena
/// machinery, not mempool admission.
struct NullPeer final : p2p::Peer {
  uint64_t delivered = 0;
  void deliver_tx(const eth::Transaction& tx, eth::TxHash, p2p::PeerId) override {
    benchmark::DoNotOptimize(&tx);
    ++delivered;
  }
  void deliver_announce(eth::TxHash, p2p::PeerId) override {}
  void deliver_get_tx(eth::TxHash, p2p::PeerId) override {}
};

/// One directed stream, kSends full-tx sends, drained to quiescence: the
/// purest deliver_tx-dominated shape. Batched, the whole burst rides a
/// handful of kDeliverTxBatch drains instead of kSends wheel pops.
void BM_SingleStreamBurst(benchmark::State& state) {
  const double window = static_cast<double>(state.range(0)) / 1000.0;
  constexpr int kSends = 4096;
  eth::TxFactory factory;
  eth::AccountManager accounts;
  const eth::Address a = accounts.create_one();
  const eth::Transaction tx = factory.make(a, accounts.allocate_nonce(a), 1000);
  uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    eth::Chain chain(8'000'000);
    p2p::Network net(&sim, &chain, util::Rng(7), sim::LatencyModel::fixed(0.05));
    net.set_batch_window(window);
    NullPeer rx;
    NullPeer src;
    const p2p::PeerId to = net.register_peer(&rx);
    const p2p::PeerId from = net.register_peer(&src);
    state.ResumeTiming();
    for (int i = 0; i < kSends; ++i) net.send_tx(from, to, tx);
    sim.run();
    sink += rx.delivered;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kSends);
}
BENCHMARK(BM_SingleStreamBurst)->Arg(0)->Arg(250);

/// Fan-out over many streams (one sender, 64 receivers, round-robin):
/// every stream batches independently, the shape a gossiping node's
/// per-neighbor forwards produce.
void BM_FanOutBurst(benchmark::State& state) {
  const double window = static_cast<double>(state.range(0)) / 1000.0;
  constexpr int kReceivers = 64;
  constexpr int kSends = 4096;
  eth::TxFactory factory;
  eth::AccountManager accounts;
  const eth::Address a = accounts.create_one();
  const eth::Transaction tx = factory.make(a, accounts.allocate_nonce(a), 1000);
  uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    eth::Chain chain(8'000'000);
    p2p::Network net(&sim, &chain, util::Rng(7), sim::LatencyModel::lognormal(0.05, 0.4));
    net.set_batch_window(window);
    NullPeer src;
    const p2p::PeerId from = net.register_peer(&src);
    NullPeer rxs[kReceivers];
    p2p::PeerId to[kReceivers];
    for (int i = 0; i < kReceivers; ++i) to[i] = net.register_peer(&rxs[i]);
    state.ResumeTiming();
    for (int i = 0; i < kSends; ++i) net.send_tx(from, to[i % kReceivers], tx);
    sim.run();
    for (const NullPeer& rx : rxs) sink += rx.delivered;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kSends);
}
BENCHMARK(BM_FanOutBurst)->Arg(0)->Arg(250);

/// End to end: a pending transaction flooding a dense overlay through real
/// nodes (mempool admission and all), batched vs not. The absolute numbers
/// include admission cost, so the ratio here is the honest campaign-level
/// payoff rather than the queue-isolated ceiling above.
void BM_FloodCampaign(benchmark::State& state) {
  const double window = static_cast<double>(state.range(0)) / 1000.0;
  constexpr size_t kNodes = 120;
  util::Rng rng(1);
  const auto g = graph::erdos_renyi_gnm(kNodes, kNodes * 10, rng);
  for (auto _ : state) {
    state.PauseTiming();
    core::ScenarioOptions opt;
    opt.seed = 2;
    opt.background_txs = 0;
    opt.batch_window = window;
    core::Scenario sc(g, opt);
    const eth::Address a = sc.accounts().create_one();
    const auto tx = sc.factory().make(a, sc.accounts().allocate_nonce(a), 1000);
    state.ResumeTiming();
    sc.m().send_to(sc.targets()[0], tx);
    sc.sim().run_until(sc.sim().now() + 10.0);
    benchmark::DoNotOptimize(sc.net().messages_delivered());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kNodes);
}
BENCHMARK(BM_FloodCampaign)->Arg(0)->Arg(250)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
