#pragma once

#include <cstdint>
#include <vector>

namespace topo::util {

/// Nodes of many singly linked lists, kept in one pair of flat arrays: the
/// timing wheel's bucket lists (and, with no lists at all, discv4's slab
/// of datagram bodies). A node is a 32-bit handle; released nodes form an intrusive free list and are
/// reused LIFO, so the pool's footprint is the peak number of live nodes
/// and a steady-state alloc/release pair never reaches the allocator.
/// Handles stay valid until released; references into the pool do not
/// survive an alloc (the arrays may grow).
template <typename T>
class ListPool {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// Stores `value` in a free node linked to `next`; returns the node.
  uint32_t alloc(const T& value, uint32_t next = kNil) {
    if (free_ == kNil) {
      values_.push_back(value);
      next_.push_back(next);
      return static_cast<uint32_t>(values_.size() - 1);
    }
    const uint32_t n = free_;
    free_ = next_[n];
    values_[n] = value;
    next_[n] = next;
    return n;
  }

  /// Returns node `n`, already unlinked by the caller, to the free list.
  void release(uint32_t n) {
    next_[n] = free_;
    free_ = n;
  }

  T& operator[](uint32_t n) { return values_[n]; }
  const T& operator[](uint32_t n) const { return values_[n]; }
  uint32_t& next(uint32_t n) { return next_[n]; }
  uint32_t next(uint32_t n) const { return next_[n]; }

 private:
  std::vector<T> values_;
  std::vector<uint32_t> next_;
  uint32_t free_ = kNil;  ///< head of the free list, threaded through next_
};

}  // namespace topo::util
