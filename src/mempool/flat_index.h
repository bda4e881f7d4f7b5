#pragma once

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "eth/types.h"
#include "obs/metrics.h"

namespace topo::mempool {

/// One price-index key. Ordered by (price, id): cheapest first, ties to the
/// oldest transaction. The content hash rides along so a victim read from
/// `min()` is located through the transaction index without a second map.
struct PriceKey {
  eth::Wei price = 0;
  uint64_t id = 0;
  eth::TxHash hash = 0;

  auto operator<=>(const PriceKey&) const = default;
};

/// Flat, allocation-light replacement for the node-based
/// std::set<std::pair<Wei, uint64_t>> price/future indexes.
///
/// The pool only ever asks three things of these indexes — insert a key,
/// erase a key, and read the current minimum (the eviction / truncation
/// victim) — so the structure is a flat binary min-heap with lazy deletion
/// rather than an ordered tree: `data_` holds every inserted key, `dead_`
/// holds erased keys that are still buried in `data_`, and equal heap tops
/// cancel pairwise when the minimum is read. Erasing the current minimum
/// (the common case: victims come from `min()`) pops directly. When
/// tombstones pile up past half the heap, both arrays are sorted and the
/// multiset difference rebuilt — an amortized O(log n) per operation, with
/// no per-node allocation or hashing anywhere.
///
/// Semantics match the std::set exactly where the pool uses it: `min()`
/// returns the least live key, ties on price broken by ascending id. Keys
/// are unique by id among *live* entries; a key erased and later
/// re-inserted is handled by multiset accounting (each tombstone cancels
/// exactly one buried copy).
///
/// The index holds no observability pointers: it lives inside the pool's
/// copy-on-write state layer (see Mempool), and a baked-in registry handle
/// would leak across forked worlds. Callers pass their tallies into the
/// mutating operations instead.
class FlatPriceIndex {
 public:
  using Key = PriceKey;

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  /// Allocated capacity of the backing heap (live + buried entries). An
  /// eviction flood drives this far above `size()`; `erase`/compaction
  /// release it again once occupancy falls below a quarter of capacity —
  /// the regression the world-fork work guards against is a forked replica
  /// inheriting a flood-sized allocation it will never use.
  size_t heap_capacity() const { return data_.capacity(); }
  size_t tombstone_capacity() const { return dead_.capacity(); }

  void insert(Key key) {
    ++live_;
    data_.push_back(key);
    std::push_heap(data_.begin(), data_.end(), std::greater<>{});
  }

  /// Erases a live key. Precondition: `key` was inserted and not yet
  /// erased. Unlike the std::set::erase this replaced, erasing an absent
  /// key is NOT a no-op — it would underflow the live count and bury a
  /// tombstone with no matching copy, silently corrupting eviction order.
  /// Call sites must stay insert/erase-balanced per key; debug builds
  /// assert membership so an unbalanced caller fails loudly.
  ///
  /// `compactions`/`tombstone_peak` (both optional) receive the rebuild
  /// count and the deepest tombstone heap seen.
  void erase(Key key, obs::Counter* compactions = nullptr,
             obs::Gauge* tombstone_peak = nullptr) {
    assert(live_ > 0);
    assert(contains_live(key) && "FlatPriceIndex::erase: key not live");
    --live_;
    if (!data_.empty() && data_.front() == key) {
      pop_data();
      cancel_top();
      maybe_shrink();
      return;
    }
    dead_.push_back(key);
    std::push_heap(dead_.begin(), dead_.end(), std::greater<>{});
    if (tombstone_peak != nullptr) {
      tombstone_peak->update_max(static_cast<double>(dead_.size()));
    }
    if (dead_.size() > data_.size() / 2) compact(compactions);
  }

  /// Least live key; undefined when empty. Non-const on purpose: reading
  /// the minimum settles lazy cancellations (physical mutation), which must
  /// never happen through a copy-on-write handle that other worlds share.
  Key min() {
    assert(live_ > 0);
    cancel_top();
    return data_.front();
  }

  void clear() {
    data_.clear();
    data_.shrink_to_fit();
    dead_.clear();
    dead_.shrink_to_fit();
    live_ = 0;
  }

 private:
  /// Below this capacity a stale high-water allocation is noise; don't churn.
  static constexpr size_t kShrinkFloor = 64;

  /// Debug-only membership probe (O(n) scans; assert operand, so it never
  /// runs in release builds): `key` is live iff its copies in data_
  /// outnumber its tombstones in dead_.
  bool contains_live(const Key& key) const {
    const auto count = [&key](const std::vector<Key>& v) {
      return std::count(v.begin(), v.end(), key);
    };
    return count(data_) > count(dead_);
  }

  void pop_data() {
    std::pop_heap(data_.begin(), data_.end(), std::greater<>{});
    data_.pop_back();
  }

  /// Cancels tombstoned copies sitting at the top of the data heap so
  /// data_.front() is live. dead_ ⊆ data_ as multisets, so a non-empty
  /// dead_ implies a non-empty data_.
  void cancel_top() {
    while (!dead_.empty() && !data_.empty() && data_.front() == dead_.front()) {
      pop_data();
      std::pop_heap(dead_.begin(), dead_.end(), std::greater<>{});
      dead_.pop_back();
    }
  }

  /// Releases a stale high-water allocation once occupancy drops below a
  /// quarter of capacity. An eviction flood that drains through direct
  /// min-pops never triggers compact(), so the check runs on every shrink
  /// opportunity; the 4x hysteresis keeps the amortized cost O(1) per
  /// erase (capacity at least quarters between reallocations). A
  /// reallocated vector of a sorted/heaped range preserves element order,
  /// so the heap invariant survives.
  void maybe_shrink() {
    if (data_.capacity() > kShrinkFloor && data_.size() < data_.capacity() / 4) {
      data_.shrink_to_fit();
    }
    if (dead_.capacity() > kShrinkFloor && dead_.size() < dead_.capacity() / 4) {
      dead_.shrink_to_fit();
    }
  }

  /// Amortized rebuild: drop every tombstoned copy in one sorted sweep.
  void compact(obs::Counter* compactions) {
    if (compactions != nullptr) compactions->inc();
    std::sort(data_.begin(), data_.end());
    std::sort(dead_.begin(), dead_.end());
    std::vector<Key> keep;
    keep.reserve(live_);
    size_t d = 0;
    for (const Key& k : data_) {
      if (d < dead_.size() && dead_[d] == k) {
        ++d;
        continue;
      }
      keep.push_back(k);
    }
    assert(d == dead_.size());
    assert(keep.size() == live_);
    // A sorted ascending array already satisfies the min-heap property
    // (parent index < child index, values ascending), so no make_heap.
    data_ = std::move(keep);
    dead_.clear();
    maybe_shrink();
  }

  std::vector<Key> data_;  ///< min-heap of every inserted key
  std::vector<Key> dead_;  ///< min-heap of erased-but-buried keys
  size_t live_ = 0;
};

}  // namespace topo::mempool
