#pragma once

#include <array>
#include <vector>

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

  /// Schedules an event `delay` seconds from now (delay < 0 treated as 0).
  /// Allocation-free.
  void schedule_after(Time delay, Event ev);

  /// Runs until the queue drains.
  void run();

  /// Runs events with timestamp <= t, then advances the clock to t.
  void run_until(Time t);

  /// Runs until the queue drains or `max_events` events have run; returns
  /// true if drained.
  bool run_capped(size_t max_events);

  size_t processed() const { return processed_; }
  size_t queued() const { return queue_.size(); }

  /// Deepest the event queue has ever been — the memory high-water mark a
  /// production deployment must provision for (observability snapshot
  /// publishes it as `sim.queue_high_water`).
  size_t queue_high_water() const { return queue_high_water_; }

  /// Events fired so far, broken down by EventKind (observability snapshot
  /// publishes them as `sim.dispatch.<kind>`). The event *mix* — not just
  /// the total — is what tests/expected/ pins: a protocol change that
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
  size_t processed_ = 0;
  size_t queue_high_water_ = 0;
  std::array<uint64_t, kNumEventKinds> dispatched_{};
};

}  // namespace topo::sim
