#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "eth/types.h"

namespace topo::mempool {

/// One price-index key. Ordered by (price, id): cheapest first, ties to the
/// oldest transaction. Live entries of one pool never share a content hash,
/// so the hash completes a strict total order even if two transactions
/// carry the same id.
struct PriceKey {
  eth::Wei price = 0;
  uint64_t id = 0;
  eth::TxHash hash = 0;

  auto operator<=>(const PriceKey&) const = default;
};

/// Indexed binary min-heap over a pool's entry slab: the price and future
/// indexes of Mempool.
///
/// The pool asks three things of these indexes — insert an entry, erase an
/// entry, and read the cheapest one (the eviction / truncation victim).
/// Each heap node carries its key inline, so sifts never touch the slab,
/// and `pos_` maps a slab index to its node, so an arbitrary erase is one
/// O(log n) sift with no tombstones. The heap holds at most one node per
/// live entry, so its footprint is bounded by the pool's capacity and
/// never needs shrinking; a copy-on-write clone copies two flat arrays.
///
/// `min()` is physically const, so it is safe to read through a handle
/// that forked worlds share.
class FlatPriceIndex {
 public:
  using Key = PriceKey;
  static constexpr uint32_t kAbsent = UINT32_MAX;

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  bool contains(uint32_t entry) const { return entry < pos_.size() && pos_[entry] != kAbsent; }

  /// Files slab entry `entry` under `key`; the entry must be absent.
  void insert(Key key, uint32_t entry) {
    while (pos_.size() <= entry) pos_.push_back(kAbsent);
    heap_.push_back(Node{key, entry});
    sift_up(heap_.size() - 1);
  }

  /// Removes slab entry `entry`, which must be present. The last node
  /// fills the hole; when it does not belong above the hole, the hole first
  /// walks down to a leaf along the cheaper children and the last node
  /// sifts up from there (one comparison per level on the way down, and
  /// the last node rarely climbs far: it came from the bottom).
  void erase(uint32_t entry) {
    size_t at = pos_[entry];
    pos_[entry] = kAbsent;
    const Node last = heap_.back();
    heap_.pop_back();
    const size_t size = heap_.size();
    if (at == size) return;  // erased the last node
    if (at == 0 || !less(last.key, heap_[(at - 1) / 2].key)) {
      for (size_t child = 2 * at + 1; child < size; child = 2 * at + 1) {
        if (child + 1 < size && less(heap_[child + 1].key, heap_[child].key)) ++child;
        place(at, heap_[child]);
        at = child;
      }
    }
    heap_[at] = last;
    sift_up(at);
  }

  /// Least key and its slab entry; undefined when empty.
  const Key& min() const { return heap_.front().key; }
  uint32_t min_entry() const { return heap_.front().entry; }

  /// True when every node satisfies the heap property and `pos_` names
  /// exactly the nodes' positions. O(n + slab); for Mempool::check_invariants.
  bool consistent() const {
    size_t mapped = 0;
    for (uint32_t e = 0; e < pos_.size(); ++e) {
      if (pos_[e] == kAbsent) continue;
      if (pos_[e] >= heap_.size() || heap_[pos_[e]].entry != e) return false;
      ++mapped;
    }
    if (mapped != heap_.size()) return false;
    for (size_t i = 1; i < heap_.size(); ++i) {
      if (less(heap_[i].key, heap_[(i - 1) / 2].key)) return false;
    }
    return true;
  }

  /// The key filed for `entry`, which must be present.
  const Key& key_of(uint32_t entry) const { return heap_[pos_[entry]].key; }

 private:
  struct Node {
    Key key;
    uint32_t entry = 0;
  };

  void place(size_t at, const Node& n) {
    heap_[at] = n;
    pos_[n.entry] = static_cast<uint32_t>(at);
  }

  static bool less(const Key& a, const Key& b) {
    if (a.price != b.price) return a.price < b.price;
    if (a.id != b.id) return a.id < b.id;
    return a.hash < b.hash;
  }

  void sift_up(size_t at) {
    const Node n = heap_[at];
    while (at > 0) {
      const size_t parent = (at - 1) / 2;
      if (!less(n.key, heap_[parent].key)) break;
      place(at, heap_[parent]);
      at = parent;
    }
    place(at, n);
  }

  std::vector<Node> heap_;
  std::vector<uint32_t> pos_;  ///< slab index -> heap position, kAbsent if not filed
};

}  // namespace topo::mempool
