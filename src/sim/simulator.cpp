#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace topo::sim {

void Simulator::schedule_at(Time t, Event ev) {
  queue_.push(std::max(t, now_), std::move(ev));
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
}

void Simulator::schedule_at_seq(Time t, Event ev, uint64_t seq) {
  queue_.push_at_seq(std::max(t, now_), std::move(ev), seq);
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
}

void Simulator::schedule_after(Time delay, Event ev) {
  schedule_at(now_ + std::max(delay, 0.0), std::move(ev));
}

void Simulator::at(Time t, EventQueue::Action action) {
  queue_.push(std::max(t, now_), std::move(action));
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
}

void Simulator::after(Time delay, EventQueue::Action action) {
  at(now_ + std::max(delay, 0.0), std::move(action));
}

namespace {

/// One tick of Simulator::every. Each tick schedules a copy of itself, so
/// the pending event is the only owner of the action: a simulator torn
/// down mid-repeat frees it with the queue.
struct Repeat {
  Simulator* sim;
  Time interval;
  std::function<bool()> action;
  void operator()() {
    if (action()) sim->after(interval, *this);
  }
};

}  // namespace

void Simulator::every(Time start, Time interval, std::function<bool()> action) {
  at(start, Repeat{this, interval, std::move(action)});
}

void Simulator::run() {
  while (!queue_.empty()) {
    EventQueue::Scheduled s = queue_.pop();
    now_ = std::max(now_, s.t);
    ++processed_;
    ++dispatched_[static_cast<size_t>(s.ev.kind)];
    s.fire();
  }
}

void Simulator::run_until(Time t) {
  // Batched-delivery handlers drain staged members up to drain_bound():
  // pin it to this horizon (restoring the enclosing bound on exit — runs
  // can nest via closure events driving the sim) so a batch popped at
  // t0 <= t never delivers members beyond t.
  const Time prev_bound = drain_bound_;
  drain_bound_ = t;
  while (!queue_.empty() && queue_.next_time() <= t) {
    EventQueue::Scheduled s = queue_.pop();
    now_ = std::max(now_, s.t);
    ++processed_;
    ++dispatched_[static_cast<size_t>(s.ev.kind)];
    s.fire();
  }
  drain_bound_ = prev_bound;
  now_ = std::max(now_, t);
}

bool Simulator::run_capped(size_t max_events) {
  size_t n = 0;
  while (!queue_.empty()) {
    if (n >= max_events) return false;
    EventQueue::Scheduled s = queue_.pop();
    now_ = std::max(now_, s.t);
    ++processed_;
    ++dispatched_[static_cast<size_t>(s.ev.kind)];
    const size_t drained_before = drained_;
    s.fire();
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
