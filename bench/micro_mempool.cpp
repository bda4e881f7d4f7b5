// google-benchmark microbenchmarks for the mempool substrate: admission,
// replacement, eviction floods, duplicate rejection, maintenance
// truncation, block commits, block packing, and the flood cycle of a
// campaign (with its heap allocations counted).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "eth/miner.h"
#include "mempool/client_profile.h"
#include "mempool/mempool.h"
#include "util/rng.h"

// Heap allocations made by this binary, counted by the replacement global
// operator new below (BM_MempoolFloodCycle reports them per cycle).
std::atomic<uint64_t> g_allocations{0};

// GCC flags free() on memory from operator new once both are inlined, not
// knowing that this operator new is malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace topo;

mempool::MempoolPolicy policy_with_capacity(size_t capacity) {
  mempool::MempoolPolicy p = mempool::profile_for(mempool::ClientKind::kGeth).policy;
  p.capacity = capacity;
  p.future_cap = capacity / 5;
  return p;
}

void BM_MempoolAddPending(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  eth::MapState chain;
  eth::TxFactory f;
  for (auto _ : state) {
    state.PauseTiming();
    mempool::Mempool pool(policy_with_capacity(capacity), &chain);
    state.ResumeTiming();
    for (size_t i = 0; i < capacity; ++i) {
      benchmark::DoNotOptimize(pool.add(f.make(1 + i, 0, 100 + i), 0.0));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * capacity);
}
BENCHMARK(BM_MempoolAddPending)->Arg(512)->Arg(5120);

void BM_MempoolReplacementChain(benchmark::State& state) {
  eth::MapState chain;
  eth::TxFactory f;
  mempool::Mempool pool(policy_with_capacity(512), &chain);
  eth::Wei price = 1000;
  pool.add(f.make(1, 0, price), 0.0);
  for (auto _ : state) {
    price = price + price / 10 + 1;  // always above the bump
    benchmark::DoNotOptimize(pool.add(f.make(1, 0, price), 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MempoolReplacementChain);

void BM_MempoolEvictionFlood(benchmark::State& state) {
  // The TopoShot flood: Z futures against a full pool of cheap pendings.
  const size_t capacity = static_cast<size_t>(state.range(0));
  eth::MapState chain;
  eth::TxFactory f;
  for (auto _ : state) {
    state.PauseTiming();
    mempool::Mempool pool(policy_with_capacity(capacity), &chain);
    for (size_t i = 0; i < capacity; ++i) pool.add(f.make(1 + i, 0, 100), 0.0);
    state.ResumeTiming();
    for (size_t i = 0; i < capacity; ++i) {
      benchmark::DoNotOptimize(pool.add(f.make(100000 + i, 1, 10'000), 0.0));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * capacity);
}
BENCHMARK(BM_MempoolEvictionFlood)->Arg(512)->Arg(5120);

void BM_MempoolMaintainTruncate(benchmark::State& state) {
  eth::MapState chain;
  eth::TxFactory f;
  const size_t capacity = 5120;
  for (auto _ : state) {
    state.PauseTiming();
    mempool::Mempool pool(policy_with_capacity(capacity), &chain);
    for (size_t i = 0; i < capacity; ++i) pool.add(f.make(1 + i, 1, 100 + i), 0.0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(pool.maintain(0.0));
  }
}
BENCHMARK(BM_MempoolMaintainTruncate);

void BM_MempoolDuplicateReject(benchmark::State& state) {
  // The flood's echo: every buffered transaction offered again, the way
  // each pool's peers relay it back. Most campaign offers end here.
  const size_t capacity = static_cast<size_t>(state.range(0));
  eth::MapState chain;
  eth::TxFactory f;
  mempool::Mempool pool(policy_with_capacity(capacity), &chain);
  std::vector<eth::Transaction> buffered;
  for (size_t i = 0; i < capacity; ++i) {
    buffered.push_back(f.make(1 + i, 0, 100 + i));
    pool.add(buffered.back(), 0.0);
  }
  for (auto _ : state) {
    for (const auto& tx : buffered) benchmark::DoNotOptimize(pool.add(tx, 0.0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * capacity);
}
BENCHMARK(BM_MempoolDuplicateReject)->Arg(512)->Arg(5120);

void BM_MempoolOnBlock(benchmark::State& state) {
  // One 30-sender block against a full stock-Geth pool (4/5 pending
  // senders, 1/5 gapped futures). Only on_block is timed; between blocks
  // each mined sender re-submits its next nonce, so the pool stays full.
  const size_t capacity = static_cast<size_t>(state.range(0));
  constexpr size_t kBlockSenders = 30;
  const size_t pending_senders = capacity - capacity / 5;
  eth::MapState chain;
  eth::TxFactory f;
  mempool::Mempool pool(policy_with_capacity(capacity), &chain);
  for (size_t i = 0; i < capacity; ++i) {
    const eth::Nonce nonce = i < pending_senders ? 0 : 1;
    pool.add(f.make(1 + i, nonce, 100 + i), 0.0);
  }
  std::vector<eth::Address> senders(kBlockSenders);
  size_t next_sender = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (eth::Address& a : senders) {
      a = 1 + next_sender++ % pending_senders;
      chain.set_next_nonce(a, chain.next_nonce(a) + 1);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(pool.on_block(senders));
    state.PauseTiming();
    for (eth::Address a : senders) pool.add(f.make(a, chain.next_nonce(a), 100 + a), 0.0);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MempoolOnBlock)->Arg(5120);

/// Chain view of the flood cycle: every account below `mined_below` has
/// its nonce 0 confirmed.
class FloodCycleChain final : public eth::StateView {
 public:
  eth::Nonce next_nonce(eth::Address a) const override { return a < mined_below ? 1 : 0; }
  eth::Address mined_below = 1;
};

void BM_MempoolFloodCycle(benchmark::State& state) {
  // The campaign's shape: a flood of futures from fresh accounts through a
  // full pool, then the block that makes the flood's senders executable.
  // Each flood outprices the previous one, so once the pool is full every
  // admission evicts. allocs_per_op counts the heap allocations of one
  // cycle's pool calls after three warm-up cycles (steady state).
  const size_t capacity = static_cast<size_t>(state.range(0));
  FloodCycleChain chain;
  eth::TxFactory f;
  mempool::Mempool pool(policy_with_capacity(capacity), &chain);
  std::vector<eth::Address> senders(capacity);
  eth::Address next_account = 1;
  eth::Wei price = 100;
  const auto cycle = [&] {
    for (eth::Address& a : senders) {
      a = next_account++;
      benchmark::DoNotOptimize(pool.add(f.make(a, 1, ++price), 0.0));
    }
    chain.mined_below = next_account;
    benchmark::DoNotOptimize(pool.on_block(senders));
  };
  for (int i = 0; i < 3; ++i) cycle();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) cycle();
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * capacity);
}
BENCHMARK(BM_MempoolFloodCycle)->Arg(512);

void BM_MinerPackBlock(benchmark::State& state) {
  eth::MapState chain;
  eth::TxFactory f;
  util::Rng rng(1);
  std::vector<eth::Transaction> candidates;
  for (size_t i = 0; i < 4096; ++i) {
    candidates.push_back(f.make(1 + rng.index(512), rng.index(4), 100 + rng.index(10'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eth::pack_block(candidates, chain, 8'000'000, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MinerPackBlock);

}  // namespace

BENCHMARK_MAIN();
