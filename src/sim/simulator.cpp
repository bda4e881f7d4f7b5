#include "sim/simulator.h"

#include <algorithm>

namespace topo::sim {

void Simulator::schedule_at(Time t, Event ev) { schedule_at_seq(t, ev, queue_.reserve_seq()); }

void Simulator::schedule_at_seq(Time t, Event ev, uint64_t seq) {
  queue_.push_at_seq(std::max(t, now_), ev, seq);
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
}

void Simulator::schedule_after(Time delay, Event ev) {
  schedule_at(now_ + std::max(delay, 0.0), ev);
}

void Simulator::step() {
  const EventQueue::Scheduled s = queue_.pop();
  now_ = std::max(now_, s.t);
  ++processed_;
  ++dispatched_[static_cast<size_t>(s.ev.kind)];
  s.fire();
}

void Simulator::run() {
  while (!queue_.empty()) step();
}

void Simulator::run_until(Time t) {
  // Batched-delivery handlers drain staged members up to drain_bound():
  // pin it to this horizon (restoring the enclosing bound on exit, should
  // an event handler drive the sim itself) so a batch popped at t0 <= t
  // never delivers members beyond t.
  const Time prev_bound = drain_bound_;
  drain_bound_ = t;
  while (!queue_.empty() && queue_.next_time() <= t) step();
  drain_bound_ = prev_bound;
  now_ = std::max(now_, t);
}

bool Simulator::run_capped(size_t max_events) {
  size_t n = 0;
  while (!queue_.empty()) {
    if (n >= max_events) return false;
    const size_t drained_before = drained_;
    step();
    // A kDeliverTxBatch dispatch drains up to its whole member list here
    // (drain_bound is +inf), so charge one budget unit per drained member
    // — exactly what the unbatched kDeliverTx-per-message trajectory would
    // have paid. Non-draining dispatches charge the usual single unit.
    const size_t drained = drained_ - drained_before;
    n += drained > 0 ? drained : 1;
  }
  return true;
}

}  // namespace topo::sim
