#include "core/profiler.h"

#include <limits>

#include "eth/account.h"
#include "eth/transaction.h"

namespace topo::core {

namespace {

/// Fresh probe environment: an empty pool over a blank chain state.
struct Probe {
  eth::MapState state;
  eth::TxFactory factory;
  eth::AccountManager accounts;
  std::optional<mempool::Mempool> pool;

  explicit Probe(const mempool::MempoolPolicy& policy) { pool.emplace(policy, &state); }

  mempool::AdmitResult add_pending(eth::Wei price) {
    const eth::Address a = accounts.create_one();
    return pool->add(factory.make(a, 0, price), 0.0);
  }
  mempool::AdmitResult add_future(eth::Address a, eth::Nonce nonce, eth::Wei price) {
    return pool->add(factory.make(a, nonce, price), 0.0);
  }
};

}  // namespace

size_t ClientProfiler::measure_capacity(const mempool::MempoolPolicy& policy) const {
  Probe probe(policy);
  // Strictly increasing prices: once the pool is full each further add must
  // evict the cheapest entry, which is the first observable "full" event.
  for (uint64_t i = 0; i < probe_cap_; ++i) {
    const auto result = probe.add_pending(1000 + i);
    if (result.evicted) return probe.pool->size();
    if (!result.admitted()) return probe.pool->size();
  }
  return static_cast<size_t>(probe_cap_);
}

double ClientProfiler::measure_bump(const mempool::MempoolPolicy& policy) const {
  constexpr eth::Wei kBase = 1'000'000;
  auto accepts = [&](eth::Wei replacement_price) {
    Probe probe(policy);
    const eth::Address a = probe.accounts.create_one();
    probe.pool->add(probe.factory.make(a, 0, kBase), 0.0);
    const auto result = probe.pool->add(probe.factory.make(a, 0, replacement_price), 0.0);
    return result.code == mempool::AdmitCode::kReplaced;
  };
  // Minimal accepted price in [kBase, 2*kBase]; a client needing more than
  // +100% would be pathological.
  eth::Wei lo = kBase, hi = 2 * kBase;
  if (!accepts(hi)) return 1.0;  // out of probe range
  while (lo < hi) {
    const eth::Wei mid = lo + (hi - lo) / 2;
    if (accepts(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<double>(lo - kBase) / static_cast<double>(kBase);
}

std::pair<uint64_t, bool> ClientProfiler::measure_future_limit(
    const mempool::MempoolPolicy& policy) const {
  Probe probe(policy);
  const eth::Address a = probe.accounts.create_one();
  for (uint64_t i = 0; i < probe_cap_; ++i) {
    // Nonce gap at 0 keeps every probe transaction a future; increasing
    // prices let the probe keep evicting once the pool fills, so only the
    // per-account limit U can stop it.
    const auto result = probe.add_future(a, 1 + i, 5000 + i);
    if (result.code == mempool::AdmitCode::kRejectedFutureLimit) return {i, false};
    if (!result.admitted()) return {i, false};
  }
  return {probe_cap_, true};
}

size_t ClientProfiler::measure_min_pending(const mempool::MempoolPolicy& policy,
                                           size_t capacity) const {
  // Eviction-by-future succeeds iff pending count >= P; binary search the
  // threshold. Each trial rebuilds the pool with exactly `l` pending
  // transactions and capacity - l single-future filler accounts.
  auto evicts = [&](size_t l) {
    Probe probe(policy);
    for (size_t i = 0; i < l; ++i) probe.add_pending(100 + i);
    while (probe.pool->size() < capacity) {
      const eth::Address filler = probe.accounts.create_one();
      const auto result = probe.add_future(filler, 1, 200);
      if (!result.admitted()) return false;  // cannot even build the state
    }
    const eth::Address prober = probe.accounts.create_one();
    const auto result = probe.add_future(prober, 1, 10'000);
    return result.admitted() && result.evicted.has_value();
  };
  size_t lo = 0, hi = capacity;
  if (evicts(0)) return 0;
  if (!evicts(capacity)) return capacity;  // never evicts below full-pending
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (evicts(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

ClientProfileEstimate ClientProfiler::profile(const mempool::MempoolPolicy& policy) const {
  ClientProfileEstimate est;
  est.capacity = measure_capacity(policy);
  est.replace_bump_fraction = measure_bump(policy);
  const auto [u, unbounded] = measure_future_limit(policy);
  est.max_futures_per_account = unbounded ? std::numeric_limits<uint64_t>::max() : u;
  est.futures_unbounded = unbounded;
  est.min_pending_for_eviction = measure_min_pending(policy, est.capacity);
  est.measurable = est.replace_bump_fraction > 0.0;
  return est;
}

ClientProfileEstimate ClientProfiler::profile(mempool::ClientKind kind) const {
  return profile(mempool::profile_for(kind).policy);
}

}  // namespace topo::core
