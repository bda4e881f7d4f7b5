#pragma once

#include <array>
#include <limits>
#include <utility>

#include "sim/event_queue.h"

namespace topo::sim {

/// Discrete-event simulation driver. All network and protocol activity is
/// expressed as events; wall-clock quantities reported by benches (e.g. the
/// Fig 5 speedup) are simulation seconds.
///
/// Every event is a tagged record (schedule_at/schedule_after) dispatched
/// through its EventSink, with no per-event allocation; a periodic activity
/// is an event whose handler schedules its successor.
class Simulator {
 public:
  Simulator() = default;

  Time now() const { return now_; }

  /// Schedules an event at an absolute time (clamped to now if in the
  /// past). Allocation-free.
  void schedule_at(Time t, Event ev);

  /// Schedules an event under a previously reserved queue sequence
  /// number (see reserve_seq). Same clamping as schedule_at.
  void schedule_at_seq(Time t, Event ev, uint64_t seq);

  /// Claims the next queue sequence number without scheduling anything —
  /// the staging half of batched delivery (EventQueue::reserve_seq).
  uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Ensures future plain schedules sort after seq `min_next - 1` (world
  /// restore over reserved-but-unqueued seqs; EventQueue::advance_seq).
  void advance_seq(uint64_t min_next) { queue_.advance_seq(min_next); }

  /// Schedules an event `delay` seconds from now (delay < 0 treated as 0).
  /// Allocation-free.
  void schedule_after(Time delay, Event ev);

  /// Runs until the queue drains.
  void run();

  /// Runs events with timestamp <= t, then advances the clock to t.
  void run_until(Time t);

  /// Runs until the queue drains or the event budget is exhausted; returns
  /// true if drained. The budget counts *deliveries*, not queue pops: a
  /// batch dispatch that drains k staged members debits k (reported via
  /// note_drained_delivery), so a watchdog cap bounds the same amount of
  /// work as it did under one-event-per-message delivery.
  bool run_capped(size_t max_events);

  size_t processed() const { return processed_; }
  size_t queued() const { return queue_.size(); }

  /// Exact (time, seq) key of the next queued event, (+inf, max) when the
  /// queue is empty (EventQueue::next_key). An in-flight event handler
  /// draining staged work compares its members against this to decide how
  /// far it may run without violating the global total order.
  std::pair<Time, uint64_t> next_event_key() const { return queue_.next_key(); }

  /// Moves the clock forward to `t` (never backward). Event handlers that
  /// deliver several staged messages in one dispatch (batched delivery)
  /// advance the clock to each member's scheduled time so downstream
  /// timestamps are identical to the one-event-per-message trajectory.
  void advance_to(Time t) { now_ = std::max(now_, t); }

  /// Called by a handler once per staged message it delivers inside a
  /// single dispatch (batched delivery drain loop). run_capped charges
  /// these against its event budget so batching cannot inflate how much
  /// work one counted event is allowed to do.
  void note_drained_delivery() { ++drained_; }

  /// Upper bound on how far an in-dispatch drain may advance the clock:
  /// the horizon of the innermost run_until(t), +inf under run()/
  /// run_capped(). Without this, a batch popped at t0 <= t could deliver
  /// members beyond t and break run_until's contract.
  Time drain_bound() const { return drain_bound_; }

  /// Deepest the event queue has ever been — the memory high-water mark a
  /// production deployment must provision for (observability snapshot
  /// publishes it as `sim.queue_high_water`).
  size_t queue_high_water() const { return queue_high_water_; }

  /// Events fired so far, broken down by EventKind (observability snapshot
  /// publishes them as `sim.dispatch.<kind>`). The event *mix* — not just
  /// the total — is what bench_compare.py gates on: a protocol change that
  /// trades deliveries for fetch timeouts shows up here before it shows up
  /// in throughput.
  const std::array<uint64_t, kNumEventKinds>& dispatch_counts() const {
    return dispatched_;
  }

  /// Timing-wheel internal tallies (see EventQueue::Stats).
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }

  /// Non-destructive copy of every pending event in pop order (world
  /// snapshot capture; see EventQueue::pending_snapshot).
  std::vector<EventQueue::Scheduled> pending_snapshot() const {
    return queue_.pending_snapshot();
  }

  /// World-fork restore: overwrites the execution counters after the
  /// caller has re-pushed the pending events via schedule_at. Queue
  /// *internal* stats (queue_stats) are reconstruction artifacts and are
  /// deliberately not restored; exports namespace them under
  /// `sim.queue.impl.*` and comparisons exclude that prefix.
  void restore_state(Time now, size_t processed, size_t queue_high_water,
                     const std::array<uint64_t, kNumEventKinds>& dispatched) {
    now_ = now;
    processed_ = processed;
    // The captured high-water is >= the pending count, so replaying pushes
    // can never have exceeded it; take max defensively anyway.
    queue_high_water_ = queue_high_water > queue_.size() ? queue_high_water : queue_.size();
    dispatched_ = dispatched;
  }

 private:
  /// Pops the next event, advances the clock to it, counts it and fires it.
  void step();

  EventQueue queue_;
  Time now_ = 0.0;
  Time drain_bound_ = std::numeric_limits<Time>::infinity();
  size_t processed_ = 0;
  size_t drained_ = 0;  ///< batch-drained deliveries; run_capped uses deltas only
  size_t queue_high_water_ = 0;
  std::array<uint64_t, kNumEventKinds> dispatched_{};
};

}  // namespace topo::sim
