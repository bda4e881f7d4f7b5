#include "obs/trace.h"

#include <algorithm>

namespace topo::obs {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kTxInjected: return "tx-injected";
    case TraceKind::kTxReplaced: return "tx-replaced";
    case TraceKind::kTxEvicted: return "tx-evicted";
    case TraceKind::kTxForwarded: return "tx-forwarded";
    case TraceKind::kTxMeasured: return "tx-measured";
  }
  return "?";
}

TraceRing::TraceRing(size_t capacity) : ring_(std::max<size_t>(1, capacity)) {}

std::vector<TraceEvent> TraceRing::events() const {
  const size_t n = size();
  std::vector<TraceEvent> out;
  out.reserve(n);
  // Oldest entry sits at head_ once the ring has wrapped, at 0 before.
  const size_t start = total_ > ring_.size() ? head_ : 0;
  for (size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

void TraceRing::clear() {
  head_ = 0;
  total_ = 0;
}

void TraceRing::restore(const std::vector<TraceEvent>& events, uint64_t total_pushed) {
  const size_t cap = ring_.size();
  total_ = total_pushed;
  if (total_ <= cap) {
    // Not yet wrapped: events occupy [0, n) and the next push goes to n.
    for (size_t i = 0; i < events.size() && i < cap; ++i) ring_[i] = events[i];
    head_ = static_cast<size_t>(total_) % cap;
  } else {
    // Wrapped: the oldest buffered event sits at head_ (== total_ mod cap),
    // mirroring where the source ring's write cursor stood.
    head_ = static_cast<size_t>(total_ % cap);
    for (size_t i = 0; i < events.size() && i < cap; ++i) {
      ring_[(head_ + i) % cap] = events[i];
    }
  }
}

}  // namespace topo::obs
