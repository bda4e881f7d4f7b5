#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace topo::sim {

/// Simulation clock, in seconds.
using Time = double;

/// Every kind of event the simulation schedules, each dispatched through
/// an EventSink without heap allocation. The hot path (delivery, fetch
/// timeouts, mining, maintenance, campaign traffic) runs millions per
/// campaign; the cold-path kinds at the end (link churn, faults, discv4)
/// run far fewer.
enum class EventKind : uint8_t {
  kDeliverTx,        ///< Network: deliver a full transaction (a=to, b=from, payload=tx-slab slot)
  kDeliverAnnounce,  ///< Network: deliver a hash announcement (a=to, b=from, payload=hash)
  kDeliverGetTx,     ///< Network: deliver a body request (a=to, b=from, payload=hash)
  kFetchTimeout,     ///< Node: announce-fetch window expired (payload=hash)
  kMineTick,         ///< Network: periodic mining tick (self-rescheduling)
  kBlockCommit,      ///< Network: deliver a block commit to peer a
  kMaintenance,      ///< Node: periodic pool maintenance tick (self-rescheduling)
  kRegossip,         ///< Node: periodic re-gossip tick (self-rescheduling)
  kCampaignStep,     ///< Scenario: one organic-traffic step (self-rescheduling)
  kLinkChurn,        ///< Network: drop one link, dial a replacement (self-rescheduling)
  kFaultStart,       ///< FaultInjector: a planned node fault (payload=index in the plan)
  kFaultEnd,         ///< FaultInjector: a fault window closes (a=peer, b=1 if it crashed)
  kFaultChurn,       ///< FaultInjector: one Poisson node-fault tick (self-rescheduling)
  kDiscRefresh,      ///< DiscV4Net: node a's lookup refresh (b=1: periodic, re-arms)
  kDiscPingTimeout,  ///< DiscV4Net: node a's PING to b timed out
  kDiscLookupTimeout,  ///< DiscV4Net: node a's lookup (payload=index) slot for b timed out
  kDiscDatagram,     ///< DiscV4Net: deliver a datagram (a=to, b=from, payload=type + body slot)
};

inline constexpr size_t kNumEventKinds = 17;

/// Stable metric-suffix name of an event kind (`sim.dispatch.<name>`).
constexpr const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kDeliverTx: return "deliver_tx";
    case EventKind::kDeliverAnnounce: return "deliver_announce";
    case EventKind::kDeliverGetTx: return "deliver_get_tx";
    case EventKind::kFetchTimeout: return "fetch_timeout";
    case EventKind::kMineTick: return "mine_tick";
    case EventKind::kBlockCommit: return "block_commit";
    case EventKind::kMaintenance: return "maintenance";
    case EventKind::kRegossip: return "regossip";
    case EventKind::kCampaignStep: return "campaign_step";
    case EventKind::kLinkChurn: return "link_churn";
    case EventKind::kFaultStart: return "fault_start";
    case EventKind::kFaultEnd: return "fault_end";
    case EventKind::kFaultChurn: return "fault_churn";
    case EventKind::kDiscRefresh: return "disc_refresh";
    case EventKind::kDiscPingTimeout: return "disc_ping_timeout";
    case EventKind::kDiscLookupTimeout: return "disc_lookup_timeout";
    case EventKind::kDiscDatagram: return "disc_datagram";
  }
  return "unknown";
}

struct Event;

/// Receiver of events. Implemented by p2p::Network, p2p::Node,
/// core::Scenario, fault::FaultInjector and disc::DiscV4Net; the sink
/// pointer rides in the event, so the simulator stays ignorant of the
/// layers above it. The sink must outlive every event scheduled on it that
/// fires (true throughout: nodes and the network share the simulator's
/// lifetime via core::Scenario, and a fault injector or discovery net is
/// destroyed only once nothing runs its simulator again).
class EventSink {
 public:
  virtual void on_event(const Event& ev) = 0;

 protected:
  ~EventSink() = default;
};

/// One scheduled event: a small tagged record, trivially copyable, so a
/// queue slot is plain data the heap sifts and the wheel relinks without
/// touching an allocator. Every kind carries its whole payload inline (two
/// ids + one 64-bit word — a hash, an arena slot, a table index); a sink
/// whose event needs more parks it in a slab of its own and passes the
/// slot.
struct Event {
  EventKind kind = EventKind::kDeliverTx;
  uint32_t a = 0;        ///< primary id (destination peer / node)
  uint32_t b = 0;        ///< secondary id (source peer)
  uint64_t payload = 0;  ///< hash, arena slot, or a sink's slab slot
  EventSink* sink = nullptr;

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
