#pragma once

// Bounded ring of structured trace events. Pushing is O(1) and never
// allocates after construction; when the ring is full the oldest event is
// overwritten and counted as dropped, so instrumentation can stay on even
// in long runs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace topo::obs {

/// What happened to a transaction as it moved through the system.
enum class TraceKind : uint8_t {
  kTxInjected = 0,  ///< measurement node queued a send   (subject=tx id, actor=target peer)
  kTxReplaced,      ///< pool replacement, §2 event 1b    (subject=new tx id, actor=old tx id)
  kTxEvicted,       ///< pool eviction / truncation       (subject=evicted tx id, actor=0)
  kTxForwarded,     ///< node propagated a transaction    (subject=tx id, actor=forwarding peer)
  kTxMeasured,      ///< probe verdict recorded           (subject=txA id, actor=1 connected / 0 not)
};

const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  double time = 0.0;  ///< simulation seconds
  TraceKind kind = TraceKind::kTxInjected;
  uint64_t subject = 0;
  uint64_t actor = 0;

  bool operator==(const TraceEvent& o) const = default;
};

class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void push(const TraceEvent& e) {
    ring_[head_] = e;
    if (++head_ == ring_.size()) head_ = 0;
    ++total_;
  }
  void push(double time, TraceKind kind, uint64_t subject, uint64_t actor = 0) {
    push(TraceEvent{time, kind, subject, actor});
  }

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return total_ < ring_.size() ? static_cast<size_t>(total_) : ring_.size(); }
  uint64_t total_pushed() const { return total_; }
  uint64_t dropped() const { return total_ - size(); }

  /// Buffered events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Visits every buffered event oldest-first without copying the ring —
  /// the exporter-facing walk (events() materializes a vector; a full
  /// default-capacity ring is 4096 * 32 B per export otherwise).
  template <typename Fn>
  void visit(Fn&& fn) const {
    const size_t n = size();
    if (n == 0) return;
    const size_t start = total_ > ring_.size() ? head_ : 0;
    for (size_t i = 0; i < n; ++i) fn(ring_[(start + i) % ring_.size()]);
  }

  void clear();

  /// Reconstructs the ring from `events` (oldest first, as events()
  /// returns) and a lifetime push count, so that subsequent pushes land in
  /// exactly the slots they would have in the source ring — a restored
  /// world's trace exports stay byte-identical to the original's. Requires
  /// events.size() == min(total_pushed, capacity()).
  void restore(const std::vector<TraceEvent>& events, uint64_t total_pushed);

 private:
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;      // next write slot
  uint64_t total_ = 0;   // lifetime pushes
};

}  // namespace topo::obs
