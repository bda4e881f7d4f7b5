#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/event.h"
#include "util/list_pool.h"

namespace topo::sim {

/// Deterministic time-ordered event queue.
///
/// Determinism contract (asserted by the tests/test_sim.cpp property tests
/// against a reference binary heap): events pop in strictly increasing
/// (time, sequence) order, where the sequence number is assigned at push.
/// Equal-time events therefore run in insertion order (FIFO), which keeps
/// whole-network runs byte-for-byte reproducible for a given seed.
///
/// Timing-wheel layout: level 0 is a ring of kL0Buckets buckets of
/// kTickSeconds each (~2 s horizon — covers per-message latencies and the
/// 1 s maintenance ticks); level 1 is a ring of kL1Buckets buckets each
/// spanning a whole L0 rotation (~17 min horizon — covers announce
/// timeouts, block intervals, churn gaps); anything farther sits in a
/// binary min-heap and cascades in when the wheel reaches it. Buckets are
/// unsorted on insert. When the wheel reaches an L0 bucket, its events are
/// sorted once by (time, seq) into the drain run and pop from its front in
/// O(1). Events scheduled *into the current bucket while it drains*
/// (same-time follow-ups, clamped past events, sub-tick latencies) go to a
/// small side min-heap, and pop()/next_time() take whichever of the two
/// heads is earlier, so the global order stays exact — FIFO within a
/// bucket for equal times, seq tiebreak at bucket boundaries, heap order
/// beyond the horizon. A dense single-bucket burst therefore costs
/// O(log k) per op at worst, never worse than one global binary heap.
///
/// Storage: every slot is 48 bytes of plain data (time, seq, Event). The
/// events of both wheel levels live in one node pool (util::ListPool) with
/// an intrusive list per bucket; reaching a bucket copies its list into
/// the single drain run and returns the nodes to the pool, so steady-state
/// scheduling allocates nothing and no bucket keeps capacity of its own.
/// Within a bucket the list order is arbitrary: (t, seq) keys are unique,
/// so the sort yields the same run whatever order they arrive in.
/// pop() returns its entry by value, so a handler may schedule while it
/// runs.
class EventQueue {
 public:
  /// One queue slot, and what pop() returns: the scheduled time, the
  /// queue sequence number that tie-breaks equal times, and the event.
  struct Scheduled {
    Time t = 0.0;
    uint64_t seq = 0;
    Event ev;

    /// Runs the event: dispatches it to its sink.
    void fire() const { ev.sink->on_event(ev); }
  };
  static_assert(std::is_trivially_copyable_v<Scheduled> && sizeof(Scheduled) <= 48,
                "queue slots stay plain data, at most 48 bytes");

  /// Timing-wheel introspection tallies. A forked world rebuilds its queue
  /// by re-pushing the captured events, so these differ between a forked
  /// and a rebuilt replica: exports namespace them under `sim.queue.impl.*`
  /// and the golden determinism suite excludes them from fork-vs-rebuild
  /// comparisons. They are still asserted invariant across thread widths.
  struct Stats {
    uint64_t l1_cascades = 0;        ///< L1 buckets cascaded into L0
    uint64_t overflow_cascaded = 0;  ///< events pulled from the overflow heap into the wheel
    uint64_t overflow_rebuilds = 0;  ///< full wheel jumps to the overflow minimum
    uint64_t due_peak = 0;           ///< deepest drain backlog (run left + side heap)
    uint64_t overflow_peak = 0;      ///< deepest overflow heap (far-future backlog)
  };

  /// Width of one level-0 bucket: events whose times fall in the same
  /// tick drain together as one sorted run.
  static constexpr Time kTickSeconds = 1.0 / 512.0;  // ~2 ms; L0 spans ~2 s

  /// Schedules an event under the next sequence number.
  void push(Time t, Event ev);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const Stats& stats() const { return stats_; }

  /// Exact timestamp of the next event (0 when empty). O(1): whenever the
  /// queue is non-empty, the earlier of the run's and the side heap's
  /// heads is the global minimum.
  Time next_time() const;

  /// Pops the earliest event by (time, seq); undefined if empty.
  Scheduled pop();

  /// Non-destructive copy of every pending event in pop order — the
  /// world-snapshot capture path. Absolute seqs mean nothing outside this
  /// queue; re-pushing the copy in order into a fresh queue (plain push)
  /// reconstructs the same pop order.
  std::vector<Scheduled> pending_snapshot() const;

 private:
  static constexpr uint32_t kNil = util::ListPool<Scheduled>::kNil;

  // -- wheel geometry -------------------------------------------------------
  static constexpr int kL0Bits = 10;
  static constexpr size_t kL0Buckets = size_t{1} << kL0Bits;  // 1024
  static constexpr size_t kL1Buckets = 512;

  static int64_t slot_of(Time t) {
    const double s = t / kTickSeconds;
    // Events never carry negative times (Simulator clamps to now >= 0),
    // but tolerate them: everything at or before slot 0 shares a bucket.
    return s <= 0.0 ? 0 : static_cast<int64_t>(s);
  }

  void wheel_push(const Scheduled& slot);
  /// Pushes pool node `n` onto bucket `idx` of one wheel level (its list
  /// heads and occupancy bitmap); a head is valid only while its bit is set.
  template <size_t N>
  void link(std::array<uint32_t, N>& heads, std::array<uint64_t, N / 64>& bits, size_t idx,
            uint32_t n);

  /// True when the run and the side heap are both spent.
  bool drained() const { return run_head_ == run_.size() && side_.empty(); }
  /// True when the side heap's head pops before the run's.
  bool side_first() const;

  /// Re-establishes the invariant: if size_ > 0, the drain (run or side
  /// heap) is non-empty and its earlier head is the global minimum.
  /// Advances the wheel to the next occupied bucket, cascading L1 buckets
  /// and overflow-heap events as their horizons are reached, and sorts
  /// that bucket into the run.
  void refill_due();
  void reset_wheel_to(int64_t slot);
  void cascade_l1(size_t l1_index);
  void cascade_overflow_window(int64_t w_base);
  void drain_overflow_into_wheel();

  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  Stats stats_;

  // -- timing-wheel state ---------------------------------------------------
  // The drain: run_ holds the bucket currently draining, sorted by
  // (t, seq), with run_[run_head_] its earliest unpopped event; side_ is a
  // min-heap by (t, seq) of the events pushed at or before that bucket
  // after it was sorted.
  std::vector<Scheduled> run_;
  size_t run_head_ = 0;
  std::vector<Scheduled> side_;
  int64_t cur_slot_ = -1;  ///< L0 slot being drained
  int64_t l0_base_ = 0;    ///< first absolute L0 slot of the current window (kL0Buckets-aligned)
  util::ListPool<Scheduled> nodes_;  ///< events of both wheel levels
  std::array<uint32_t, kL0Buckets> l0_head_{};  ///< list heads; valid where the bit is set
  std::array<uint64_t, kL0Buckets / 64> l0_bits_{};
  std::array<uint32_t, kL1Buckets> l1_head_{};
  std::array<uint64_t, kL1Buckets / 64> l1_bits_{};
  std::vector<Scheduled> overflow_;  ///< min-heap by (t, seq), beyond the L1 horizon
};

}  // namespace topo::sim
