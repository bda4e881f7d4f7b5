#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace topo::sim {

namespace {

/// Pops earliest first: the heap comparator orders *later* slots first so a
/// std::*_heap family max-heap behaves as a min-heap by (t, seq).
struct Later {
  template <typename S>
  bool operator()(const S& a, const S& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::reset_wheel_to(int64_t slot) {
  // Only legal when every ring is empty (fresh queue, or an overflow
  // cascade after both wheel levels drained): the bitmaps are already zero.
  cur_slot_ = slot;
  l0_base_ = slot & ~static_cast<int64_t>(kL0Buckets - 1);
}

template <size_t N>
void EventQueue::link(std::array<uint32_t, N>& heads, std::array<uint64_t, N / 64>& bits,
                      size_t idx, uint32_t n) {
  uint64_t& word = bits[idx >> 6];
  const uint64_t bit = uint64_t{1} << (idx & 63);
  nodes_.next(n) = (word & bit) != 0 ? heads[idx] : kNil;
  heads[idx] = n;
  word |= bit;
}

void EventQueue::wheel_push(const Scheduled& slot) {
  // cur_slot_ never jumps forward on push: it tracks the bucket currently
  // draining, so only genuine same-bucket (or clamped-past) events take the
  // binary-insert path into due_. Jumping cur_slot_ to a far-future first
  // event would classify every earlier push as "past" and grow due_ into a
  // quadratic insertion-sorted vector; far-future firsts are instead found
  // by refill_due's window scan / L1 / overflow cascade on the next pop.
  const int64_t s = slot_of(slot.t);
  if (s <= cur_slot_) {
    // Lands in (or before) the bucket currently draining — push into the
    // drain heap so the exact (t, seq) order holds even for same-time
    // follow-ups scheduled mid-bucket. O(log k) keeps dense single-bucket
    // bursts (flood frontiers with sub-tick latencies) from degenerating
    // into an insertion sort.
    due_.push_back(slot);
    std::push_heap(due_.begin(), due_.end(), Later{});
    if (due_.size() > stats_.due_peak) stats_.due_peak = due_.size();
    return;
  }
  if (s < l0_base_ + static_cast<int64_t>(kL0Buckets)) {
    link(l0_head_, l0_bits_, static_cast<size_t>(s) & (kL0Buckets - 1), nodes_.alloc(slot));
    return;
  }
  const int64_t w = s >> kL0Bits;
  const int64_t b0 = l0_base_ >> kL0Bits;
  if (w - b0 <= static_cast<int64_t>(kL1Buckets)) {
    link(l1_head_, l1_bits_, static_cast<size_t>(w) & (kL1Buckets - 1), nodes_.alloc(slot));
    return;
  }
  overflow_.push_back(slot);
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  if (overflow_.size() > stats_.overflow_peak) stats_.overflow_peak = overflow_.size();
}

void EventQueue::push(Time t, Event ev) {
  ++size_;
  wheel_push(Scheduled{t, next_seq_++, ev});
  // Invariant: due_ is non-empty whenever size_ > 0 (next_time() and pop()
  // read due_.front() unconditionally). A push into a drained queue lands
  // in the rings, so pull the earliest bucket forward here.
  if (due_.empty()) refill_due();
}

void EventQueue::cascade_l1(size_t l1_index) {
  ++stats_.l1_cascades;
  l1_bits_[l1_index >> 6] &= ~(uint64_t{1} << (l1_index & 63));
  // Relink every node of the L1 list into its L0 bucket; no slot moves.
  for (uint32_t n = l1_head_[l1_index]; n != kNil;) {
    const uint32_t next = nodes_.next(n);
    const int64_t s = slot_of(nodes_[n].t);
    assert(s >= l0_base_ && s < l0_base_ + static_cast<int64_t>(kL0Buckets));
    link(l0_head_, l0_bits_, static_cast<size_t>(s) & (kL0Buckets - 1), n);
    n = next;
  }
}

void EventQueue::cascade_overflow_window(int64_t w_base) {
  // Pops every overflow event whose window equals w_base — the window the
  // wheel just advanced to — into L0. Anything farther stays in the heap;
  // refill_due re-considers the overflow minimum on every window advance,
  // so leaving it buried is safe.
  while (!overflow_.empty() &&
         (slot_of(overflow_.front().t) >> kL0Bits) == w_base) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Scheduled slot = overflow_.back();
    overflow_.pop_back();
    ++stats_.overflow_cascaded;
    const size_t idx = static_cast<size_t>(slot_of(slot.t)) & (kL0Buckets - 1);
    link(l0_head_, l0_bits_, idx, nodes_.alloc(slot));
  }
}

void EventQueue::drain_overflow_into_wheel() {
  assert(!overflow_.empty());
  ++stats_.overflow_rebuilds;
  // Jump the (fully drained) wheel to the overflow minimum, then pull in
  // everything within the new two-level horizon.
  const int64_t w_base = slot_of(overflow_.front().t) >> kL0Bits;
  reset_wheel_to(w_base << kL0Bits);
  cur_slot_ = l0_base_ - 1;
  while (!overflow_.empty()) {
    const int64_t w = slot_of(overflow_.front().t) >> kL0Bits;
    if (w - w_base > static_cast<int64_t>(kL1Buckets)) break;
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const Scheduled slot = overflow_.back();
    overflow_.pop_back();
    ++stats_.overflow_cascaded;
    if (w == w_base) {
      const size_t idx = static_cast<size_t>(slot_of(slot.t)) & (kL0Buckets - 1);
      link(l0_head_, l0_bits_, idx, nodes_.alloc(slot));
    } else {
      link(l1_head_, l1_bits_, static_cast<size_t>(w) & (kL1Buckets - 1), nodes_.alloc(slot));
    }
  }
}

void EventQueue::refill_due() {
  // due_ is empty but events remain in the wheel levels or the overflow.
  for (;;) {
    // 1. Next occupied L0 bucket in the current window.
    const int64_t from = std::max(cur_slot_ + 1, l0_base_);
    const int64_t window_end = l0_base_ + static_cast<int64_t>(kL0Buckets);
    int64_t found = -1;
    for (int64_t s = from; s < window_end;) {
      const size_t idx = static_cast<size_t>(s) & (kL0Buckets - 1);
      const size_t word = idx >> 6;
      uint64_t bits = l0_bits_[word] >> (idx & 63);
      if (bits != 0) {
        const int offset = __builtin_ctzll(bits);
        if ((idx & 63) + static_cast<size_t>(offset) < 64) {
          found = s + offset;
          break;
        }
      }
      s += 64 - static_cast<int64_t>(idx & 63);  // next word boundary
    }
    if (found >= 0) {
      cur_slot_ = found;
      const size_t idx = static_cast<size_t>(found) & (kL0Buckets - 1);
      l0_bits_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
      // due_ is empty here; its buffer is the one drain heap every bucket
      // shares, so moving a bucket in allocates nothing once warm.
      for (uint32_t n = l0_head_[idx]; n != kNil;) {
        const uint32_t next = nodes_.next(n);
        due_.push_back(nodes_[n]);
        nodes_.release(n);
        n = next;
      }
      std::make_heap(due_.begin(), due_.end(), Later{});
      if (due_.size() > stats_.due_peak) stats_.due_peak = due_.size();
      return;
    }

    // 2. L0 exhausted: advance to the earliest upcoming window — the next
    // occupied L1 bucket or the overflow minimum's window, whichever is
    // sooner. The overflow MUST be a candidate here: as the wheel advances,
    // events pushed beyond the L1 horizon come within it, and a later push
    // landing in L1 would otherwise pop before an earlier overflow event.
    // The overflow minimum's window is always strictly ahead of the current
    // one (pushes beyond the horizon, and every window advance cascades the
    // matching overflow events below), so step 1 needs no overflow check.
    const int64_t b0 = l0_base_ >> kL0Bits;
    int64_t next_w = -1;
    for (int64_t rel = 1; rel <= static_cast<int64_t>(kL1Buckets);) {
      const int64_t w = b0 + rel;
      const size_t idx = static_cast<size_t>(w) & (kL1Buckets - 1);
      const uint64_t bits = l1_bits_[idx >> 6] >> (idx & 63);
      if (bits != 0) {
        const int offset = __builtin_ctzll(bits);
        if ((idx & 63) + static_cast<size_t>(offset) < 64 &&
            rel + offset <= static_cast<int64_t>(kL1Buckets)) {
          next_w = w + offset;
          break;
        }
      }
      rel += 64 - static_cast<int64_t>(idx & 63);  // next word boundary
    }
    const int64_t over_w =
        overflow_.empty() ? -1 : slot_of(overflow_.front().t) >> kL0Bits;
    if (next_w >= 0 && (over_w < 0 || next_w <= over_w)) {
      l0_base_ = next_w << kL0Bits;
      cur_slot_ = l0_base_ - 1;
      cascade_l1(static_cast<size_t>(next_w) & (kL1Buckets - 1));
      if (over_w == next_w) cascade_overflow_window(next_w);
      continue;
    }
    if (over_w >= 0 && next_w >= 0) {
      // Overflow minimum lands before the next occupied L1 bucket. The
      // jump is bounded (over_w < next_w <= old b0 + kL1Buckets), so the
      // L1 ring's absolute-window indexing stays valid across it.
      l0_base_ = over_w << kL0Bits;
      cur_slot_ = l0_base_ - 1;
      cascade_overflow_window(over_w);
      continue;
    }

    // 3. Both wheel levels drained: cascade from the overflow heap. The
    // loop has no other exit, so fail fast if the size_/ring bookkeeping is
    // ever inconsistent instead of spinning or reading an empty heap (UB).
    if (overflow_.empty()) {
      assert(false && "EventQueue::refill_due: size_ > 0 but no events anywhere");
      std::abort();
    }
    drain_overflow_into_wheel();
  }
}

std::vector<EventQueue::Scheduled> EventQueue::pending_snapshot() const {
  // Collect every buried slot — drain heap, both wheel levels, overflow —
  // then sort by the total order. O(n log n), capture path only.
  std::vector<Scheduled> slots;
  slots.reserve(size_);
  slots.insert(slots.end(), due_.begin(), due_.end());
  const auto take_lists = [&](const auto& heads, const auto& bits) {
    for (size_t idx = 0; idx < heads.size(); ++idx) {
      if ((bits[idx >> 6] >> (idx & 63) & 1) == 0) continue;
      for (uint32_t n = heads[idx]; n != kNil; n = nodes_.next(n)) slots.push_back(nodes_[n]);
    }
  };
  take_lists(l0_head_, l0_bits_);
  take_lists(l1_head_, l1_bits_);
  slots.insert(slots.end(), overflow_.begin(), overflow_.end());
  assert(slots.size() == size_);
  std::sort(slots.begin(), slots.end(), [](const Scheduled& a, const Scheduled& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  });
  return slots;
}

Time EventQueue::next_time() const {
  return size_ == 0 ? 0.0 : due_.front().t;
}

EventQueue::Scheduled EventQueue::pop() {
  assert(size_ > 0);
  --size_;
  std::pop_heap(due_.begin(), due_.end(), Later{});
  const Scheduled out = due_.back();
  due_.pop_back();
  if (due_.empty() && size_ > 0) refill_due();
  return out;
}

}  // namespace topo::sim
