// google-benchmark microbenchmarks for the network simulator and the
// TopoShot primitive end to end.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/session.h"
#include "core/toposhot.h"
#include "disc/discovery.h"
#include "graph/generators.h"
#include "sim/latency.h"
#include "util/rng.h"

namespace {

using namespace topo;

void BM_FloodPropagation(benchmark::State& state) {
  // One pending transaction flooding an n-node overlay.
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  const auto g = graph::erdos_renyi_gnm(n, n * 12, rng);
  for (auto _ : state) {
    state.PauseTiming();
    core::ScenarioOptions opt;
    opt.seed = 2;
    opt.background_txs = 0;
    core::Scenario sc(g, opt);
    const eth::Address a = sc.accounts().create_one();
    const auto tx = sc.factory().make(a, sc.accounts().allocate_nonce(a), 1000);
    state.ResumeTiming();
    sc.m().send_to(sc.targets()[0], tx);
    sc.sim().run_until(sc.sim().now() + 10.0);
    benchmark::DoNotOptimize(sc.net().messages_delivered());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FloodPropagation)->Arg(100)->Arg(300);

void BM_OneLinkMeasurement(benchmark::State& state) {
  util::Rng rng(3);
  const auto g = graph::erdos_renyi_gnm(24, 60, rng);
  core::ScenarioOptions opt;
  opt.seed = 4;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  core::Scenario sc(g, opt);
  sc.seed_background();
  core::MeasurementSession session(sc);
  size_t pair = 0;
  for (auto _ : state) {
    const graph::NodeId u = static_cast<graph::NodeId>(pair % 24);
    const graph::NodeId v = static_cast<graph::NodeId>((pair / 24 + 1 + u) % 24);
    ++pair;
    if (u == v) continue;
    benchmark::DoNotOptimize(session.one_link(sc.targets()[u], sc.targets()[v]).value);
  }
}
BENCHMARK(BM_OneLinkMeasurement)->Unit(benchmark::kMillisecond);

void BM_KademliaLookupRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    disc::DiscoverySim disc(n, util::Rng(5));
    state.ResumeTiming();
    disc.run_round();
    benchmark::DoNotOptimize(disc.average_fill());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_KademliaLookupRound)->Arg(200)->Arg(600)->Unit(benchmark::kMillisecond);

struct CountingSink final : sim::EventSink {
  uint64_t hits = 0;
  void on_event(const sim::Event&) override { ++hits; }
};

/// Isolates raw push/pop cost (no dispatch, no simulator loop): typed
/// events through the queue alone, over a spread mimicking real schedules —
/// mostly sub-second deliveries with periodic far-future entries.
void BM_EventQueuePushPop(benchmark::State& state) {
  CountingSink sink;
  for (auto _ : state) {
    sim::EventQueue q;
    double now = 0.0;
    for (int i = 0; i < 10'000; ++i) {
      const double dt = (i % 13 == 0) ? 30.0 : 0.001 * static_cast<double>(i % 311);
      q.push(now + dt, sim::Event::typed(sim::EventKind::kMaintenance, &sink));
      if (i % 2 == 0) now = q.pop().t;
    }
    while (!q.empty()) now = q.pop().t;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_EventQueuePushPop);

/// The queue under a campaign-shaped schedule: floods send runs of messages
/// over ~300 links, and each message lands at max(now + lognormal latency
/// (median 50 ms, sigma 0.4), its link's previous message + 1 us), the
/// per-link FIFO rule of p2p::Network. A run piles up behind its largest
/// latency, so most wheel buckets hold a few events and a few hold a long
/// run; BM_EventQueuePushPop's arithmetic spread never builds such runs.
/// With ~200 messages in flight and one send in a hundred a long run, a
/// 1/512 s bucket holds 6.9 events on average and 19% of the messages sit
/// in buckets of 64 or more, close to perfbench `campaign` (6.8 and 21%).
void BM_EventQueueFloodBursts(benchmark::State& state) {
  constexpr size_t kLinks = 300;
  constexpr size_t kBacklog = 200;
  constexpr size_t kMessages = 20'000;
  // Every draw is made once, outside the timed loop: the link and run
  // length of each send and the latency of each message.
  util::Rng rng(3);
  const sim::LatencyModel latency = sim::LatencyModel::lognormal(0.05, 0.4);
  struct Send {
    size_t link;
    size_t run;
  };
  std::vector<Send> sends;
  std::vector<double> delays;
  while (delays.size() < kMessages) {
    const size_t run = rng.uniform() < 0.01 ? 64 + rng.index(192) : 1 + rng.index(8);
    sends.push_back(Send{rng.index(kLinks), run});
    for (size_t i = 0; i < run; ++i) delays.push_back(latency.sample(rng));
  }

  CountingSink sink;
  const sim::Event ev = sim::Event::typed(sim::EventKind::kDeliverTx, &sink);
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<double> last(kLinks, 0.0);
    double now = 0.0;
    size_t next_send = 0, next_delay = 0;
    const auto send = [&] {
      const Send& s = sends[next_send++];
      for (size_t i = 0; i < s.run; ++i) {
        last[s.link] = std::max(now + delays[next_delay++], last[s.link] + 1e-6);
        q.push(last[s.link], ev);
      }
    };
    while (next_send < sends.size() && q.size() < kBacklog) send();
    while (!q.empty()) {
      now = q.pop().t;
      if (next_send < sends.size() && q.size() < kBacklog) send();
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(delays.size()));
}
BENCHMARK(BM_EventQueueFloodBursts);

/// Simulator throughput: 10,000 events over 97 distinct times, each popped,
/// counted and dispatched to its sink.
void BM_TypedEventThroughput(benchmark::State& state) {
  CountingSink sink;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(static_cast<double>(i % 97),
                      sim::Event::typed(sim::EventKind::kMaintenance, &sink));
    }
    sim.run();
    benchmark::DoNotOptimize(sink.hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_TypedEventThroughput);

}  // namespace

BENCHMARK_MAIN();
