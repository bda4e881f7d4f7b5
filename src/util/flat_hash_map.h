#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace topo::util {

/// Open-addressing hash map from a 64-bit key to a small trivially copyable
/// value: the mempool's transaction index (content hash -> slab index) and
/// address -> account-slot table, the chain's nonce and inclusion tables,
/// the measurement node's receive log, block packing's sender groups, and
/// the network's per-stream FIFO clocks (directed stream key -> last
/// delivery time).
///
/// Linear probing over a power-of-two bucket array, Fibonacci-hashed so
/// sequential keys (simulation addresses, packed peer-id pairs) spread as
/// well as content hashes do, grown at 3/4 load, with backward-shift
/// deletion (no tombstones, so a long-lived table never degrades). Every
/// bucket carries a `used` flag rather than reserving a sentinel key: a
/// content hash may be any 64-bit value. The table never shrinks: its
/// footprint is the peak live size.
template <typename V>
class FlatHashMap {
 public:
  size_t size() const { return size_; }

  const V* find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = home(key);; i = (i + 1) & mask()) {
      const Bucket& b = buckets_[i];
      if (!b.used) return nullptr;
      if (b.key == key) return &b.value;
    }
  }
  V* find(uint64_t key) {
    return const_cast<V*>(static_cast<const FlatHashMap&>(*this).find(key));
  }

  /// Inserts `key`, which must be absent.
  void insert(uint64_t key, V value) {
    if ((size_ + 1) * 4 > buckets_.size() * 3) grow();
    size_t i = home(key);
    while (buckets_[i].used) {
      assert(buckets_[i].key != key && "FlatHashMap::insert: key already present");
      i = (i + 1) & mask();
    }
    buckets_[i] = Bucket{key, value, true};
    ++size_;
  }

  /// The value under `key`, value-initialized and inserted first when
  /// absent (std::unordered_map::operator[]). The reference stays valid
  /// until the next insert or erase.
  V& operator[](uint64_t key) {
    if (V* v = find(key)) return *v;
    insert(key, V{});
    return *find(key);
  }

  /// Erases `key`, which must be present. Later members of the probe run
  /// shift back into the hole, so every remaining key stays reachable from
  /// its home bucket without tombstones.
  void erase(uint64_t key) {
    assert(size_ > 0);
    size_t hole = home(key);
    while (buckets_[hole].used && buckets_[hole].key != key) hole = (hole + 1) & mask();
    assert(buckets_[hole].used && "FlatHashMap::erase: key not present");
    if (!buckets_[hole].used) return;
    for (size_t j = (hole + 1) & mask(); buckets_[j].used; j = (j + 1) & mask()) {
      // Bucket j may fill the hole iff its home does not lie cyclically in
      // (hole, j] — moving it must not put it before its own home.
      if (((j - home(buckets_[j].key)) & mask()) >= ((j - hole) & mask())) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].used = false;
    --size_;
  }

  /// Calls `fn(key, value)` for every entry, in bucket order. That order
  /// depends on the table's insert/erase history, so a caller whose output
  /// must be deterministic sorts what it collects (Network::snapshot sorts
  /// its stream clocks by key).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Bucket& b : buckets_) {
      if (b.used) fn(b.key, b.value);
    }
  }

 private:
  struct Bucket {
    uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static constexpr size_t kMinBuckets = 16;

  size_t mask() const { return buckets_.size() - 1; }
  size_t home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    const size_t n = old.empty() ? kMinBuckets : old.size() * 2;
    buckets_.assign(n, Bucket{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    size_ = 0;
    for (const Bucket& b : old) {
      if (b.used) insert(b.key, b.value);
    }
  }

  std::vector<Bucket> buckets_;
  size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(bucket count)
};

}  // namespace topo::util
