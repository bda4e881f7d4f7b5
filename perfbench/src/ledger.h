#pragma once

// Host-time ledger for the traced benchmark run. Spans are recorded only by
// the benchmark's own code, around calls into the public functions of each
// layer of the program (src/<layer>/); nothing inside the program is
// instrumented. A span's name is "<layer>.<operation>", and a layer's self
// time is the time its spans cover minus the time covered by their child
// spans on the same thread.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Ledger {
 public:
  /// A disabled ledger runs the wrapped calls and records nothing.
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool enabled() const { return enabled_; }

  /// Runs `fn` inside a span called `name` and returns what it returns.
  /// Spans opened by `fn` on the same thread become its children. `name`
  /// must outlive the ledger (the record keeps the pointer): pass a literal.
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    const Open open(*this, name);
    return fn();
  }

  struct Stat {
    double total_ms = 0.0;  ///< summed span durations
    double self_ms = 0.0;   ///< summed durations minus same-thread children
    double max_ms = 0.0;
    uint64_t count = 0;

    double mean_ms() const { return count == 0 ? 0.0 : total_ms / static_cast<double>(count); }
  };
  using Stats = std::map<std::string, Stat>;

  /// Per-span-name statistics.
  Stats by_name() const;

  /// Folds this ledger's per-name statistics into `out` (ledgers of several
  /// threads sum into one table).
  void add_to(Stats& out) const;

 private:
  struct Record {
    const char* name = nullptr;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double child_ms = 0.0;
  };

  /// RAII span: opens on construction, closes (and charges its duration to
  /// the enclosing span of this thread) on destruction.
  class Open {
   public:
    Open(Ledger& ledger, const char* name);
    ~Open();
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;

   private:
    Ledger& ledger_;
    Record rec_;
    Open* parent_;
  };

  double now_ms() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

/// The statistics of span `name`; zeros when no such span was recorded.
inline Ledger::Stat stat_of(const Ledger::Stats& stats, const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? Ledger::Stat{} : it->second;
}

}  // namespace perfbench
