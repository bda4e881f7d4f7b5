// Unit tests for the discrete-event simulator and latency models.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/latency.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace topo::sim {
namespace {

/// Test-only sink for ad-hoc callbacks: event(fn) parks `fn` and returns
/// an event whose payload indexes it. A deque, so a running callback stays
/// put while it schedules more.
struct CallbackSink final : EventSink {
  std::deque<std::function<void()>> callbacks;
  Event event(std::function<void()> fn) {
    callbacks.push_back(std::move(fn));
    return Event::typed(EventKind::kMaintenance, this, 0, 0, callbacks.size() - 1);
  }
  void on_event(const Event& ev) override { callbacks[ev.payload](); }
};

TEST(EventQueue, OrdersByTimeThenInsertion) {
  CallbackSink cb;
  EventQueue q;
  std::vector<int> order;
  q.push(2.0, cb.event([&] { order.push_back(3); }));
  q.push(1.0, cb.event([&] { order.push_back(1); }));
  q.push(1.0, cb.event([&] { order.push_back(2); }));  // same time: insertion order
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

struct RecordingSink final : EventSink {
  std::vector<uint64_t> seen;
  void on_event(const Event& ev) override { seen.push_back(ev.payload); }
};

/// The oracle the timing wheel is checked against: one binary min-heap by
/// (time, seq), the simplest structure with the queue's total order.
class ReferenceHeap {
 public:
  void push(Time t, Event ev) {
    heap_.push_back(EventQueue::Scheduled{t, next_seq_++, ev});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  size_t size() const { return heap_.size(); }
  Time next_time() const { return heap_.empty() ? 0.0 : heap_.front().t; }
  EventQueue::Scheduled pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const EventQueue::Scheduled out = heap_.back();
    heap_.pop_back();
    return out;
  }
  std::vector<EventQueue::Scheduled> pending_snapshot() const {
    std::vector<EventQueue::Scheduled> out = heap_;
    std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) { return later(y, x); });
    return out;
  }

 private:
  static bool later(const EventQueue::Scheduled& x, const EventQueue::Scheduled& y) {
    return x.t != y.t ? x.t > y.t : x.seq > y.seq;
  }
  std::vector<EventQueue::Scheduled> heap_;
  uint64_t next_seq_ = 0;
};

/// The kind of the lockstep queues' chain events (any kind would do: the
/// sink decides what an event means).
constexpr EventKind kChainKind = EventKind::kRegossip;

/// The sink of one lockstep queue's chain events. A chain event logs its
/// tag (payload) when it fires and, while its depth (a) is above 0, first
/// pushes its successor (tag + 1, depth - 1) one step `dt` later into the
/// queue it fired from — an event that schedules events while it fires. It
/// reads its tag only after that push, so a pop() that handed out a view
/// of storage the push reuses would log a clobbered tag.
template <typename Q>
struct Spawner final : EventSink {
  struct Chain {
    Time t;   ///< time of the chain's latest link
    Time dt;  ///< step between links
  };
  explicit Spawner(Q* q) : queue(q) {}

  /// The first link of a new chain (b = chain index).
  Event start(Time t, Time dt, int depth, uint64_t tag) {
    chains.push_back(Chain{t, dt});
    return Event::typed(kChainKind, this, static_cast<uint32_t>(depth),
                        static_cast<uint32_t>(chains.size() - 1), tag);
  }
  void on_event(const Event& ev) override {
    if (ev.a > 0) {
      Chain& c = chains[ev.b];
      c.t += c.dt;
      queue->push(c.t, Event::typed(kChainKind, this, ev.a - 1, ev.b, ev.payload + 1));
    }
    fired.push_back(ev.payload);
  }

  Q* queue;
  std::vector<Chain> chains;
  std::vector<uint64_t> fired;  ///< chain tags, in firing order
};

/// The level-0 bucket of time `t`, as the wheel computes it.
int64_t tick_of(Time t) {
  const double s = t / EventQueue::kTickSeconds;
  return s <= 0.0 ? 0 : static_cast<int64_t>(s);
}

/// Applies every operation to the wheel and the reference heap alike and
/// asserts they agree: next_time() before each pop, each popped
/// (time, seq, event), and pending_snapshot() on demand. Every
/// event is tagged with a unique payload and compared; chain events are
/// also fired on both sides and must log the same tag.
///
/// It also models the wheel's drain: the bucket being drained (`draining`)
/// moves to the earliest pending bucket whenever no pending event is at or
/// before it, and the drain backlog is the number of pending events at or
/// before that bucket — the sorted run's rest plus the side heap. Its peak
/// must equal stats().due_peak.
struct Lockstep {
  RecordingSink sink;
  EventQueue wheel;
  ReferenceHeap ref;
  Spawner<EventQueue> wheel_chains{&wheel};
  Spawner<ReferenceHeap> ref_chains{&ref};
  uint64_t next_tag = 0;
  double now = 0.0;  ///< time of the latest pop
  std::vector<uint64_t> popped;  ///< seqs, in pop order
  std::map<int64_t, size_t> pending_ticks;  ///< pending events per bucket
  int64_t draining = -1;                    ///< bucket being drained
  uint64_t backlog_peak = 0;                ///< deepest modelled drain backlog

  Event tagged() { return Event::typed(EventKind::kMaintenance, &sink, 0, 0, next_tag++); }

  /// Moves the modelled drain on when nothing pending is at or before it,
  /// then records its backlog.
  void model_settle() {
    if (!pending_ticks.empty() && pending_ticks.begin()->first > draining) {
      draining = pending_ticks.begin()->first;
    }
    uint64_t backlog = 0;
    for (auto it = pending_ticks.begin(); it != pending_ticks.end() && it->first <= draining; ++it) {
      backlog += it->second;
    }
    backlog_peak = std::max(backlog_peak, backlog);
  }
  void model_push(Time t) {
    ++pending_ticks[tick_of(t)];
    model_settle();
  }
  void model_pop(Time t) {
    const auto it = pending_ticks.find(tick_of(t));
    if (--it->second == 0) pending_ticks.erase(it);
    model_settle();
  }

  void push(double t) {
    const Event ev = tagged();
    wheel.push(t, ev);
    ref.push(t, ev);
    model_push(t);
  }

  /// A chain event at `t` that, when fired, schedules a chain of `depth`
  /// more events `dt` apart.
  void push_chain(double t, double dt, int depth) {
    const uint64_t tag = next_tag;
    next_tag += static_cast<uint64_t>(depth) + 1;
    wheel.push(t, wheel_chains.start(t, dt, depth, tag));
    ref.push(t, ref_chains.start(t, dt, depth, tag));
    model_push(t);
  }

  /// A random chain: zero to three successors, each at the same time
  /// (into the draining bucket), a few ticks on, or past the L0 window.
  void random_chain(util::Rng& rng, double t) {
    const double r = rng.uniform();
    const double dt = r < 0.3 ? 0.0 : r < 0.8 ? rng.uniform() * 0.05 : 2.0 + rng.uniform() * 30.0;
    push_chain(t, dt, static_cast<int>(rng.index(4)));
  }

  void pop() {
    ASSERT_EQ(wheel.next_time(), ref.next_time());
    const EventQueue::Scheduled w = wheel.pop();
    const EventQueue::Scheduled r = ref.pop();
    ASSERT_EQ(w.t, r.t);
    ASSERT_EQ(w.seq, r.seq);
    ASSERT_EQ(w.ev.kind, r.ev.kind);
    ASSERT_EQ(w.ev.payload, r.ev.payload);
    popped.push_back(w.seq);
    now = std::max(now, w.t);
    model_pop(w.t);
    if (w.ev.kind != kChainKind) return;
    w.fire();
    r.fire();
    if (w.ev.a > 0) model_push(wheel_chains.chains[w.ev.b].t);
    ASSERT_EQ(wheel_chains.fired.size(), ref_chains.fired.size());
    ASSERT_EQ(wheel_chains.fired.back(), ref_chains.fired.back());
  }

  /// pending_snapshot() matches the reference, and replaying it into a
  /// fresh queue — the world-fork path, usually taken mid-drain here —
  /// pops the same events in the same order.
  void check_snapshot() const {
    const auto w = wheel.pending_snapshot();
    const auto r = ref.pending_snapshot();
    ASSERT_EQ(w.size(), r.size());
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(w[i].t, r[i].t);
      ASSERT_EQ(w[i].seq, r[i].seq);
      ASSERT_EQ(w[i].ev.kind, r[i].ev.kind);
      ASSERT_EQ(w[i].ev.payload, r[i].ev.payload);
    }
    EventQueue replay;
    for (const EventQueue::Scheduled& slot : w) replay.push(slot.t, slot.ev);
    for (const EventQueue::Scheduled& slot : w) {
      ASSERT_EQ(replay.next_time(), slot.t);
      const EventQueue::Scheduled got = replay.pop();
      ASSERT_EQ(got.t, slot.t);
      ASSERT_EQ(got.ev.kind, slot.ev.kind);
      ASSERT_EQ(got.ev.payload, slot.ev.payload);
    }
    ASSERT_TRUE(replay.empty());
  }

  /// Pops both queues dry.
  void drain() {
    ASSERT_NO_FATAL_FAILURE(check_snapshot());
    ASSERT_EQ(wheel.size(), ref.size());
    while (!wheel.empty()) ASSERT_NO_FATAL_FAILURE(pop());
    ASSERT_EQ(ref.size(), 0u);
    ASSERT_EQ(wheel_chains.fired, ref_chains.fired);
    ASSERT_EQ(wheel.stats().due_peak, backlog_peak);
  }
};

TEST(EventQueue, BothBackendsOrderIdentically) {
  // The wheel and the reference heap, across every wheel level.
  Lockstep q;
  q.push(2.0);
  q.push(1.0);
  q.push(1.0);       // same time: insertion order
  q.push(100000.0);  // beyond both wheel levels: the overflow heap
  q.push(30.0);      // L1 horizon
  ASSERT_NO_FATAL_FAILURE(q.drain());
  EXPECT_EQ(q.popped, (std::vector<uint64_t>{1, 2, 0, 4, 3}));
}

// The drain, directed: a bucket reached by the wheel becomes one sorted
// run, and pushes into it while it drains wait in the side heap. A push at
// the run head's time ties with it and pops after it (higher seq); a
// sub-tick latency slots between two run events; a past event, before the
// draining bucket, pops next. A snapshot taken mid-drain replays the same
// order, and due_peak is the run's rest plus the side heap at its deepest.
TEST(EventQueue, DrainMergesMidBucketPushesWithTheSortedRun) {
  const double t = 1.0;                           // a bucket boundary
  const double d = EventQueue::kTickSeconds / 8;  // t + k * d shares t's bucket for k < 8
  Lockstep q;
  q.push(0.5);        // seq 0: an earlier bucket, drained first
  q.push(t + 6 * d);  // seq 1
  q.push(t);          // seq 2
  q.push(t + 4 * d);  // seq 3
  q.push(t);          // seq 4
  ASSERT_NO_FATAL_FAILURE(q.pop());  // seq 0; t's bucket becomes the run [2, 4, 3, 1]
  ASSERT_NO_FATAL_FAILURE(q.pop());  // seq 2
  q.push(t);          // seq 5: ties with the run's head, seq 4
  q.push(t + 5 * d);  // seq 6: between seqs 3 and 1
  q.push(0.25);       // seq 7: before the draining bucket
  ASSERT_NO_FATAL_FAILURE(q.check_snapshot());
  EXPECT_EQ(q.wheel.stats().due_peak, 6u);
  ASSERT_NO_FATAL_FAILURE(q.drain());
  EXPECT_EQ(q.popped, (std::vector<uint64_t>{0, 2, 7, 4, 5, 3, 6, 1}));
}

// Directed regression: an event beyond the L1 horizon (overflow heap) must
// still pop before a later event that lands in L1 only because the wheel
// has advanced. Sequence (L0 window spans 2 s, L1 horizon ~1026 s):
// t=0.001 (L0), t=1024.5 (L1), t=1251 (overflow); pop once so refill
// jumps the wheel to the 1024.5 window; t=2000 now fits in L1. A refill
// that advances to the next occupied L1 bucket without considering the
// overflow minimum pops 2000 before 1251.
TEST(EventQueue, OverflowPopsBeforeLaterL1PushAfterWheelAdvance) {
  CallbackSink cb;
  EventQueue q;
  std::vector<int> order;
  q.push(0.001, cb.event([&] { order.push_back(1); }));
  q.push(1024.5, cb.event([&] { order.push_back(2); }));
  q.push(1251.0, cb.event([&] { order.push_back(3); }));
  q.pop().fire();
  q.push(2000.0, cb.event([&] { order.push_back(4); }));
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// Property test of the determinism contract: under randomized schedules —
// equal-time bursts, far-future outliers, interleaved pops, same-bucket
// re-pushes, event chains that schedule their successors while they
// fire — the wheel pops the exact (time, seq) order the reference binary
// heap does. Wide single-bucket bursts build long sorted runs, and pushes
// into the draining bucket (same-time follow-ups that tie with the run's
// head, events clamped to now, sub-tick latencies) interleave with them
// through the side heap; snapshots are taken and replayed mid-drain.
TEST(EventQueue, WheelMatchesReferenceHeapUnderRandomBursts) {
  util::Rng rng(99);
  Lockstep q;
  for (int round = 0; round < 6000; ++round) {
    const double r = rng.uniform();
    if (r < 0.015) {
      // One bucket, many distinct times: a long sorted run.
      const double base = (static_cast<double>(tick_of(q.now)) + 1.0 + rng.index(4)) *
                          EventQueue::kTickSeconds;
      const size_t n = 16 + rng.index(160);
      for (size_t i = 0; i < n; ++i) {
        q.push(base + rng.uniform() * EventQueue::kTickSeconds * 0.99);
      }
    } else if (r < 0.08 && !q.wheel.empty()) {
      // Into the draining bucket: clamped to now, or a sub-tick latency.
      q.push(rng.uniform() < 0.5 ? q.now : q.now + rng.uniform() * EventQueue::kTickSeconds);
    } else if (r < 0.12) {
      q.random_chain(rng, q.now + rng.uniform() * (rng.uniform() < 0.1 ? 3000.0 : 3.0));
    } else if (r < 0.45) {
      double dt = rng.uniform() * 3.0;  // within the L0/L1 horizon
      if (rng.uniform() < 0.10) dt = rng.uniform() * 3000.0;      // L1 / shallow overflow
      if (rng.uniform() < 0.05) dt = 7200.0 + rng.uniform() * 1e5;  // deep overflow
      q.push(q.now + dt);
    } else if (r < 0.62) {
      // Equal-time burst: FIFO within the burst must survive bucketing.
      const double burst_t = q.now + rng.uniform();
      const size_t n = 1 + rng.index(8);
      for (size_t i = 0; i < n; ++i) q.push(burst_t);
    } else if (r < 0.68 && !q.wheel.empty()) {
      // Same-time follow-up: push at exactly the next pop's timestamp,
      // which lands in the bucket currently draining.
      q.push(q.wheel.next_time());
    } else if (r < 0.70) {
      ASSERT_NO_FATAL_FAILURE(q.check_snapshot());
    } else if (!q.wheel.empty()) {
      const size_t k = 1 + rng.index(4);
      for (size_t i = 0; i < k && !q.wheel.empty(); ++i) ASSERT_NO_FATAL_FAILURE(q.pop());
    }
  }
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

// Property test focused on the L1/overflow boundary (~1026 s out): delays
// cluster around the horizon, so events keep migrating from the overflow
// heap into L1 reach as pops advance the wheel while fresh pushes land in
// L1 directly — the interleaving class the directed regression above pins
// down, explored at random, with event chains mixed in.
TEST(EventQueue, WheelMatchesReferenceHeapAroundOverflowHorizon) {
  util::Rng rng(7);
  Lockstep q;
  for (int round = 0; round < 3000; ++round) {
    const double r = rng.uniform();
    if (r < 0.05) {
      q.random_chain(rng, q.now + 800.0 + rng.uniform() * 600.0);
    } else if (r < 0.40) {
      q.push(q.now + 800.0 + rng.uniform() * 600.0);  // straddles the horizon
    } else if (r < 0.52) {
      q.push(q.now + rng.uniform() * 2.0);  // near-term L0 filler
    } else if (r < 0.54) {
      ASSERT_NO_FATAL_FAILURE(q.check_snapshot());
    } else if (!q.wheel.empty()) {
      const size_t k = 1 + rng.index(6);
      for (size_t i = 0; i < k && !q.wheel.empty(); ++i) ASSERT_NO_FATAL_FAILURE(q.pop());
    }
  }
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

TEST(Simulator, TypedEventsDispatchThroughSink) {
  RecordingSink sink;
  CallbackSink cb;
  Simulator sim;
  sim.schedule_at(1.0, Event::typed(EventKind::kFetchTimeout, &sink, 0, 0, 11));
  sim.schedule_after(2.0, Event::typed(EventKind::kFetchTimeout, &sink, 0, 0, 22));
  sim.schedule_at(1.5, cb.event([&] { sink.seen.push_back(99); }));  // sinks interleave freely
  sim.run();
  EXPECT_EQ(sink.seen, (std::vector<uint64_t>{11, 99, 22}));
  EXPECT_EQ(sim.processed(), 3u);
  EXPECT_EQ(sim.dispatch_counts()[static_cast<size_t>(EventKind::kFetchTimeout)], 2u);
  EXPECT_EQ(sim.dispatch_counts()[static_cast<size_t>(EventKind::kMaintenance)], 1u);
}

TEST(Simulator, RunExecutesAllAndAdvancesClock) {
  CallbackSink cb;
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(5.0, cb.event([&] { seen = sim.now(); }));
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.processed(), 1u);
}

TEST(Simulator, AfterSchedulesRelative) {
  CallbackSink cb;
  Simulator sim;
  sim.schedule_at(2.0, cb.event([&] {
    sim.schedule_after(3.0, cb.event([&] { EXPECT_DOUBLE_EQ(sim.now(), 5.0); }));
  }));
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, PastTimesClampToNow) {
  CallbackSink cb;
  Simulator sim;
  sim.run_until(10.0);
  bool ran = false;
  sim.schedule_at(1.0, cb.event([&] {
    ran = true;
    EXPECT_GE(sim.now(), 10.0);
  }));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  CallbackSink cb;
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, cb.event([&] { ++count; }));
  sim.schedule_at(2.0, cb.event([&] { ++count; }));
  sim.schedule_at(3.0, cb.event([&] { ++count; }));
  sim.run_until(2.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunCappedStopsEarly) {
  RecordingSink sink;
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(static_cast<double>(i), Event::typed(EventKind::kMaintenance, &sink));
  }
  EXPECT_FALSE(sim.run_capped(5));
  EXPECT_TRUE(sim.run_capped(100));
}

TEST(Simulator, NestedSchedulingKeepsOrder) {
  CallbackSink cb;
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, cb.event([&] {
    order.push_back(1);
    sim.schedule_at(1.0, cb.event([&] { order.push_back(2); }));  // same timestamp, runs after
  }));
  sim.schedule_at(2.0, cb.event([&] { order.push_back(3); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Latency, FixedIsConstant) {
  util::Rng rng(1);
  const auto model = LatencyModel::fixed(0.25);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(model.sample(rng), 0.25);
}

TEST(Latency, UniformWithinBounds) {
  util::Rng rng(2);
  const auto model = LatencyModel::uniform(0.01, 0.05);
  for (int i = 0; i < 1000; ++i) {
    const double v = model.sample(rng);
    ASSERT_GE(v, 0.01);
    ASSERT_LE(v, 0.05);
  }
}

TEST(Latency, LognormalMedianRoughlyMatches) {
  util::Rng rng(3);
  const auto model = LatencyModel::lognormal(0.05, 0.4);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(model.sample(rng));
  EXPECT_NEAR(util::median(xs), 0.05, 0.005);
}

TEST(Latency, FloorsAtPositiveValue) {
  util::Rng rng(4);
  const auto model = LatencyModel::fixed(0.0);
  EXPECT_GT(model.sample(rng), 0.0);
}

}  // namespace
}  // namespace topo::sim
