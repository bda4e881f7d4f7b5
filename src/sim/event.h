#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace topo::sim {

/// Simulation clock, in seconds.
using Time = double;

/// The concrete event kinds of the simulation hot path. Everything the
/// event loop executes millions of times per campaign — message delivery,
/// fetch timeouts, mining, pool maintenance, campaign traffic — is one of
/// these, dispatched through an EventSink without any per-event heap
/// allocation. kClosure is the cold-path escape hatch (discv4 lookups,
/// fault schedules, churn ticks, tests): an arbitrary callable, held by the
/// queue rather than by the event.
enum class EventKind : uint8_t {
  kClosure = 0,      ///< arbitrary callback (cold paths only)
  kDeliverTx,        ///< Network: deliver a full transaction (a=to, b=from, payload=tx-slab slot)
  kDeliverAnnounce,  ///< Network: deliver a hash announcement (a=to, b=from, payload=hash)
  kDeliverGetTx,     ///< Network: deliver a body request (a=to, b=from, payload=hash)
  kFetchTimeout,     ///< Node: announce-fetch window expired (payload=hash)
  kMineTick,         ///< Network: periodic mining tick (self-rescheduling)
  kBlockCommit,      ///< Network: deliver a block commit to peer a
  kMaintenance,      ///< Node: periodic pool maintenance tick (self-rescheduling)
  kRegossip,         ///< Node: periodic re-gossip tick (self-rescheduling)
  kCampaignStep,     ///< Scenario: one organic-traffic step (self-rescheduling)
  kDeliverTxBatch,   ///< Network: drain a staged per-link tx batch (a=to, b=from, payload=batch id)
};

inline constexpr size_t kNumEventKinds = 11;

/// Stable metric-suffix name of an event kind (`sim.dispatch.<name>`).
constexpr const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kClosure: return "closure";
    case EventKind::kDeliverTx: return "deliver_tx";
    case EventKind::kDeliverAnnounce: return "deliver_announce";
    case EventKind::kDeliverGetTx: return "deliver_get_tx";
    case EventKind::kFetchTimeout: return "fetch_timeout";
    case EventKind::kMineTick: return "mine_tick";
    case EventKind::kBlockCommit: return "block_commit";
    case EventKind::kMaintenance: return "maintenance";
    case EventKind::kRegossip: return "regossip";
    case EventKind::kCampaignStep: return "campaign_step";
    case EventKind::kDeliverTxBatch: return "deliver_tx_batch";
  }
  return "unknown";
}

struct Event;

/// Receiver of typed events. Implemented by p2p::Network, p2p::Node, and
/// core::Scenario; the sink pointer rides in the event, so the simulator
/// stays ignorant of the layers above it. The sink must outlive every
/// event scheduled on it (true throughout: nodes and the network own the
/// simulator's lifetime via core::Scenario).
class EventSink {
 public:
  virtual void on_event(const Event& ev) = 0;

 protected:
  ~EventSink() = default;
};

/// One scheduled event: a small tagged record, trivially copyable, so a
/// queue slot is plain data the heap sifts and the wheel relinks without
/// touching an allocator. Typed kinds carry their whole payload inline (two
/// peer ids + one 64-bit word — a hash, an arena slot, a batch id). A
/// kClosure event carries only a handle: its callable lives in the owning
/// EventQueue's closure table (payload = table slot), and EventQueue::pop
/// hands the callable back beside the event.
struct Event {
  EventKind kind = EventKind::kClosure;
  uint32_t a = 0;        ///< primary id (destination peer / node)
  uint32_t b = 0;        ///< secondary id (source peer)
  uint64_t payload = 0;  ///< hash, arena slot, batch id, or closure-table slot
  EventSink* sink = nullptr;  ///< typed kinds only

  static Event typed(EventKind k, EventSink* sink, uint32_t a = 0, uint32_t b = 0,
                     uint64_t payload = 0) {
    Event ev;
    ev.kind = k;
    ev.sink = sink;
    ev.a = a;
    ev.b = b;
    ev.payload = payload;
    return ev;
  }
};

static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 32,
              "Event is the plain-data half of a 48-byte queue slot");

}  // namespace topo::sim
