#pragma once

// Event-driven discv4: the UDP discovery protocol of the platform overlay
// (paper Fig. 1 / §2), run over the discrete-event simulator with datagram
// loss and timeouts. This is the protocol counterpart of the round-based
// DiscoverySim used for bulk topology emergence:
//
//   PING / PONG          — endpoint proof + liveness (last-seen tracking);
//   FINDNODE / NEIGHBORS — iterative Kademlia lookups (alpha = 3);
//   bucket maintenance   — full buckets challenge their least-recently seen
//                          entry with a PING; only on timeout is the old
//                          entry replaced (the anti-eclipse policy);
//   refresh              — periodic self-lookup plus random-target lookups.

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "disc/node_id.h"
#include "sim/simulator.h"
#include "util/list_pool.h"
#include "util/rng.h"

namespace topo::disc {

class DiscV4Net;

/// Tunables for one discv4 node.
struct DiscV4Config {
  size_t bucket_size = 16;
  size_t num_buckets = 17;
  double ping_timeout = 0.5;     ///< seconds before a PING counts as dead
  double refresh_interval = 30;  ///< periodic lookup cadence
  size_t lookup_alpha = 3;
  size_t lookup_k = 16;          ///< entries returned per NEIGHBORS
};

/// One discovery endpoint.
class DiscV4Node {
 public:
  DiscV4Node(uint32_t index, NodeId256 id, DiscV4Config config, DiscV4Net* net,
             util::Rng rng);

  uint32_t index() const { return index_; }
  const NodeId256& id() const { return id_; }

  /// Seeds the table with a bootstrap contact and starts the refresh loop.
  void bootstrap(uint32_t seed_index, const NodeId256& seed_id);

  /// Runs one iterative lookup toward `target`; `done` receives the closest
  /// nodes found (may fire after several round trips).
  void lookup(const NodeId256& target,
              std::function<void(std::vector<uint32_t>)> done = nullptr);

  /// Table entries currently believed alive.
  std::vector<uint32_t> table_entries() const;
  size_t table_size() const { return entries_.size(); }

  /// Last PONG time per contact (the Monero-style last_seen signal the
  /// related work exploits).
  std::optional<double> last_seen(uint32_t index) const;

  // -- datagram and timer handlers (invoked by DiscV4Net) ------------------
  void on_ping(uint32_t from, const NodeId256& from_id);
  void on_pong(uint32_t from);
  void on_findnode(uint32_t from, const NodeId256& from_id, const NodeId256& target);
  void on_neighbors(uint32_t from, const std::vector<std::pair<uint32_t, NodeId256>>& nodes);
  void on_refresh(bool periodic);        ///< self + random lookup; periodic re-arms
  void on_ping_timeout(uint32_t index);  ///< no PONG in time: the contact is dead
  /// `asked_index` never answered lookup `lookup_idx`: release its slot.
  void on_lookup_timeout(size_t lookup_idx, uint32_t asked_index);

 private:
  struct Entry {
    uint32_t index;
    NodeId256 id;
    double last_pong = -1.0;
  };
  struct Lookup {
    NodeId256 target;
    std::vector<uint32_t> asked;
    std::unordered_set<uint32_t> responded;
    std::unordered_set<uint32_t> timed_out;
    std::vector<std::pair<uint32_t, NodeId256>> candidates;
    size_t in_flight = 0;
    std::function<void(std::vector<uint32_t>)> done;
  };

  size_t bucket_of(const NodeId256& id) const;
  void consider(uint32_t index, const NodeId256& id);
  void ping(uint32_t index);
  void lookup_step(size_t lookup_idx);
  void finish_lookup(size_t lookup_idx);
  std::vector<std::pair<uint32_t, NodeId256>> closest(const NodeId256& target, size_t k) const;

  uint32_t index_;
  NodeId256 id_;
  DiscV4Config config_;
  DiscV4Net* net_;
  util::Rng rng_;

  std::vector<std::vector<Entry>> buckets_;
  std::unordered_map<uint32_t, size_t> entries_;  // index -> bucket
  std::unordered_map<uint32_t, double> ping_deadline_;
  // Pending eviction challenges: old entry under test -> replacement.
  std::unordered_map<uint32_t, std::pair<uint32_t, NodeId256>> challenges_;
  std::vector<Lookup> lookups_;
};

/// The datagram fabric: owns the endpoints and delivers packets with
/// latency and optional loss. It is the sink of every discv4 event: the
/// datagram deliveries and each node's refresh ticks and timeouts.
class DiscV4Net : public sim::EventSink {
 public:
  DiscV4Net(sim::Simulator* sim, util::Rng rng, double latency = 0.03, double loss = 0.0);
  DiscV4Net(const DiscV4Net&) = delete;  ///< nodes and pending events hold its address
  DiscV4Net& operator=(const DiscV4Net&) = delete;

  uint32_t add_node(const DiscV4Config& config = {});
  DiscV4Node& node(uint32_t index) { return *nodes_[index]; }
  size_t size() const { return nodes_.size(); }
  sim::Simulator& simulator() { return *sim_; }

  /// Bootstraps every node against node 0 and runs `seconds` of protocol.
  void converge(double seconds);

  /// Marks a node dead: it stops answering datagrams (liveness churn).
  void set_dead(uint32_t index, bool dead);

  // -- datagram primitives --------------------------------------------------
  void send_ping(uint32_t from, uint32_t to);
  void send_pong(uint32_t from, uint32_t to);
  void send_findnode(uint32_t from, uint32_t to, const NodeId256& target);
  void send_neighbors(uint32_t from, uint32_t to,
                      std::vector<std::pair<uint32_t, NodeId256>> nodes);

  uint64_t datagrams() const { return datagrams_; }

  /// Event dispatch: datagrams, refresh ticks, ping and lookup timeouts.
  void on_event(const sim::Event& ev) override;

 private:
  enum class Datagram : uint8_t { kPing, kPong, kFindNode, kNeighbors };

  /// The part of a datagram that does not fit in its event: a FINDNODE
  /// target or a NEIGHBORS list (the sender's id follows from its index).
  struct Body {
    NodeId256 target;
    std::vector<std::pair<uint32_t, NodeId256>> nodes;
  };
  static bool has_body(Datagram type) {
    return type == Datagram::kFindNode || type == Datagram::kNeighbors;
  }

  /// Counts a datagram, draws its loss and then its delay, and schedules
  /// the survivors' delivery. A FINDNODE or NEIGHBORS body waits in the
  /// slab; the event's payload is the type, plus the body's slot << 8.
  void deliver(uint32_t from, uint32_t to, Datagram type, Body body = {});

  sim::Simulator* sim_;
  util::Rng rng_;
  double latency_;
  double loss_;
  std::vector<std::unique_ptr<DiscV4Node>> nodes_;
  std::vector<bool> dead_;
  uint64_t datagrams_ = 0;
  util::ListPool<Body> bodies_;  ///< in-flight datagram bodies (a slab; no lists)
};

}  // namespace topo::disc
