#include "ledger.h"

#include <algorithm>

namespace perfbench {

namespace {
/// Innermost open span of the calling thread (spans nest per thread).
thread_local void* t_open = nullptr;
}  // namespace

Ledger::Open::Open(Ledger& ledger, const char* name)
    : ledger_(ledger), parent_(static_cast<Open*>(t_open)) {
  rec_.name = name;
  rec_.start_ms = ledger_.now_ms();
  t_open = this;
}

Ledger::Open::~Open() {
  rec_.end_ms = ledger_.now_ms();
  t_open = parent_;
  if (parent_ != nullptr) parent_->rec_.child_ms += rec_.end_ms - rec_.start_ms;
  const std::lock_guard<std::mutex> lock(ledger_.mu_);
  ledger_.records_.push_back(rec_);
}

double Ledger::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
}

Ledger::Stats Ledger::by_name() const {
  Stats out;
  add_to(out);
  return out;
}

void Ledger::add_to(Stats& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    Stat& s = out[r.name];
    const double d = r.end_ms - r.start_ms;
    s.total_ms += d;
    s.self_ms += d - r.child_ms;
    s.max_ms = std::max(s.max_ms, d);
    ++s.count;
  }
}

}  // namespace perfbench
