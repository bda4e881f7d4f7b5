#include "sim/simulator.h"

#include <algorithm>

namespace topo::sim {

void Simulator::schedule_at(Time t, Event ev) {
  queue_.push(std::max(t, now_), ev);
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
  while (!queue_.empty() && queue_.next_time() <= t) step();
  now_ = std::max(now_, t);
}

bool Simulator::run_capped(size_t max_events) {
  for (size_t n = 0; !queue_.empty(); ++n) {
    if (n >= max_events) return false;
    step();
  }
  return true;
}

}  // namespace topo::sim
