#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "eth/chain.h"
#include "graph/graph.h"
#include "mempool/mempool.h"
#include "obs/metrics.h"
#include "p2p/config.h"
#include "p2p/fault_hook.h"
#include "p2p/node.h"
#include "p2p/payload_arena.h"
#include "p2p/peer.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"

namespace topo::p2p {

/// Interned message-layer observability handles (all null when metrics are
/// disabled, which costs the hot send paths a single pointer test).
struct NetObs {
  obs::Counter* messages = nullptr;           ///< net.messages (all kinds)
  obs::Counter* messages_tx = nullptr;        ///< full-transaction pushes
  obs::Counter* messages_announce = nullptr;  ///< hash announcements
  obs::Counter* messages_get_tx = nullptr;    ///< body requests
  obs::Counter* bytes = nullptr;              ///< RLP wire bytes
};

/// The simulated Ethereum blockchain overlay: owns the participants, the
/// link set, and message delivery with per-message latency. Ground truth
/// (the adjacency) is what TopoShot's validator compares measurements
/// against.
///
/// Every message is one plain-data sim::Event at its own delivery time
/// (no per-message allocation); full-transaction payloads ride in a
/// chunked PayloadArena together with their content hash, so a send costs
/// one arena copy and zero heap traffic in steady state. The per-stream
/// FIFO clocks live in a flat util::FlatHashMap.
class Network : public sim::EventSink {
 public:
  Network(sim::Simulator* sim, eth::Chain* chain, util::Rng rng,
          sim::LatencyModel latency = sim::LatencyModel::lognormal(0.05, 0.4));

  /// Unhooks every registered peer's auto-detach back-reference before the
  /// owned nodes go down (see Peer::~Peer).
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates a regular node; returns its id.
  PeerId add_node(const NodeConfig& config);

  /// Bulk replica construction: one regular node per vertex of `topology`,
  /// all sharing `config`, with every graph edge connected — in graph
  /// order, so two networks populated from the same (topology, seed) are
  /// indistinguishable. This is how sharded campaigns (topo::exec) stamp
  /// out per-worker world replicas. Returns the node ids in vertex order.
  std::vector<PeerId> populate(const graph::Graph& topology, const NodeConfig& config);

  /// Registers an externally owned participant (e.g. a MeasurementNode).
  /// The Network does not take ownership. Lifetime is enforced, not merely
  /// documented: a registered peer that is destroyed first auto-detaches
  /// itself (Peer::~Peer), and a Network destroyed first unhooks every
  /// peer, so neither order leaves a dangling pointer behind.
  PeerId register_peer(Peer* peer);

  /// Severs all links of an externally registered peer and replaces it with
  /// an inert sink, so the peer object may be destroyed while messages are
  /// still in flight. Destroying a registered peer calls this implicitly.
  void detach_peer(PeerId id);

  /// Undirected link management. Returns false on duplicates/self-links —
  /// or when the devp2p Status handshake fails because the two peers run
  /// different blockchain overlays (networkIDs, paper Fig. 1).
  bool connect(PeerId a, PeerId b);

  /// networkID a peer announced at registration (0 = wildcard observer,
  /// e.g. the measurement node, which joins any overlay).
  uint64_t network_id_of(PeerId n) const { return network_id_of_[n]; }
  bool disconnect(PeerId a, PeerId b);
  bool linked(PeerId a, PeerId b) const;
  const std::vector<PeerId>& peers_of(PeerId n) const { return adj_[n]; }

  size_t size() const { return peers_.size(); }
  Node& node(PeerId n);              ///< aborts if n is not a regular Node
  const Node& node(PeerId n) const;
  Peer& peer(PeerId n) { return *peers_[n]; }

  /// Message primitives (latency applied; extra fixed `delay` optional).
  void send_tx(PeerId from, PeerId to, const eth::Transaction& tx, double extra_delay = 0.0);
  /// Same, for a fan-out that already holds the transaction's content hash
  /// (`tx.hash()`) and RLP wire size (`wire::transaction_wire_size(tx)`):
  /// Node::propagate computes both once and sends to every peer with them.
  void send_tx(PeerId from, PeerId to, const eth::Transaction& tx, eth::TxHash hash,
               uint64_t wire_size, double extra_delay = 0.0);
  void send_announce(PeerId from, PeerId to, eth::TxHash hash);
  void send_get_tx(PeerId from, PeerId to, eth::TxHash hash);

  /// Introspection for tests: directed streams with live FIFO-clock state
  /// (the leak regression) and the payload arena itself.
  size_t stream_count() const { return streams_.size(); }
  const PayloadArena& arena() const { return arena_; }
  PayloadArena& arena() { return arena_; }

  /// Inserts transactions directly into every regular node's pool (steady
  /// state background load; see DESIGN.md on seeding). Skips peers in
  /// `except`.
  void seed_mempools(const std::vector<eth::Transaction>& txs,
                     const std::unordered_set<PeerId>& except = {});

  /// Ground-truth topology over regular nodes only. Node i of the graph is
  /// the i-th *regular* node; use graph_index/peer_of_graph to map.
  graph::Graph snapshot_topology() const;
  /// Graph index of a regular node id (-1 for externally registered peers).
  int64_t graph_index(PeerId n) const;
  /// Peer id of graph node gi.
  PeerId peer_of_graph(size_t gi) const { return regular_[gi]; }
  const std::vector<PeerId>& regular_nodes() const { return regular_; }

  sim::Simulator& simulator() { return *sim_; }
  eth::Chain& chain() { return *chain_; }
  const eth::Chain& chain() const { return *chain_; }
  util::Rng& rng() { return rng_; }

  /// Replaces the network's RNG stream (world-fork reseed: a forked replica
  /// gets a fresh deterministic identity while keeping its warmed state).
  void set_rng(util::Rng rng) { rng_ = rng; }

  /// Frozen overlay state for world forking (core::Scenario::snapshot).
  /// Owned-node state rides along (one Node::Snapshot per regular node, in
  /// regular-node order — bulk pool pages behind copy-on-write handles);
  /// externally registered peers are captured as inert slots their owners
  /// re-bind after restore (rebind_external). In-flight transaction
  /// payloads (the arena) and the per-stream FIFO clocks are captured
  /// verbatim: arena slot handles keep their values, so the pending
  /// kDeliverTx events the scenario re-pushes resolve identically. Link
  /// churn rides along too (its flag, rate and tally), so a world forks
  /// mid-churn: the pending kLinkChurn tick the scenario re-pushes
  /// re-binds to the replica's network.
  struct Snapshot {
    /// One directed stream's FIFO clock (key = from << 32 | to).
    struct StreamClock {
      uint64_t key = 0;
      double last_delivery = 0.0;
    };

    util::Rng rng;
    std::vector<Node::Snapshot> nodes;  ///< aligned with `regular`
    std::vector<PeerId> regular;
    std::vector<std::vector<PeerId>> adj;
    std::vector<uint64_t> network_id_of;
    uint64_t messages = 0;
    uint64_t bytes = 0;
    bool mining_on = false;
    size_t next_miner = 0;
    std::vector<PeerId> miners;
    double mine_interval = 0.0;
    bool churn_on = false;
    double churn_rate = 0.0;
    uint64_t churn_events = 0;
    PayloadArena::Snapshot arena;
    std::vector<StreamClock> streams;  ///< sorted by key
  };
  Snapshot snapshot() const;

  /// Rebuilds the participant set from a snapshot. Must be called on a
  /// freshly constructed network (no nodes added). Regular nodes are
  /// reconstructed through their restore constructor — no start() ticks and
  /// no connect() gossip; the warmed world's pending events live in the
  /// captured simulator queue and are re-pushed by the scenario. External
  /// slots deliver into an inert sink until rebind_external.
  void restore(const Snapshot& snap);

  /// Re-binds an externally owned peer into the slot it held in the
  /// snapshotted world (pairs with restore()).
  void rebind_external(PeerId id, Peer* peer);

  /// Commits a block mined from node `miner`'s pending snapshot and fans
  /// out on_block_commit to every participant.
  const eth::Block& mine_block(PeerId miner);

  /// Schedules periodic mining every `interval` seconds (round-robin over
  /// `miners`), for the lifetime of the run.
  void start_mining(std::vector<PeerId> miners, double interval);
  void stop_mining() { mining_on_ = false; }

  /// Peer churn: at `events_per_sec` (Poisson), a random active link
  /// between regular nodes drops and a random non-adjacent pair dials a
  /// replacement. Reconnect gossip (pool announcements to the new peer) is
  /// exactly the txC re-propagation hazard of §5.2.1; link loss is what
  /// erodes long-running measurements.
  void start_link_churn(double events_per_sec);
  uint64_t churn_events() const { return churn_events_; }

  /// Wires message-volume and (shared, aggregate) mempool instrumentation
  /// into `reg`. Nodes that already exist are wired retroactively; nodes
  /// added later inherit the handles. The registry must outlive the
  /// network.
  void enable_metrics(obs::MetricsRegistry& reg);

  /// Installs (or removes, with nullptr) a message-path fault hook. The
  /// hook is consulted on every send; dropped messages are counted as sent
  /// (wire bytes were spent) but never delivered. The hook must outlive
  /// its installation; no hook means the pre-fault send paths, unchanged.
  void set_fault_hook(FaultHook* hook) { fault_ = hook; }
  FaultHook* fault_hook() const { return fault_; }

  /// Total messages delivered (diagnostics).
  uint64_t messages_delivered() const { return messages_; }

  /// Total wire bytes sent, sized by the RLP codec (devp2p framing):
  /// bandwidth accounting for the measurement-overhead analyses.
  uint64_t bytes_sent() const { return bytes_; }

  /// Event dispatch: deliveries, block commits, mining and churn ticks.
  void on_event(const sim::Event& ev) override;

 private:
  sim::Simulator* sim_;
  eth::Chain* chain_;
  util::Rng rng_;
  sim::LatencyModel latency_;

  std::vector<Peer*> peers_;                   // all participants (non-owning view)
  std::vector<std::unique_ptr<Node>> owned_;   // regular nodes we own
  std::vector<PeerId> regular_;                // ids of regular nodes, insert order
  std::vector<std::vector<PeerId>> adj_;
  std::vector<std::unordered_set<PeerId>> adj_set_;
  std::vector<uint64_t> network_id_of_;
  NetObs obs_;
  FaultHook* fault_ = nullptr;
  mempool::PoolObs pool_obs_;  ///< shared by every owned node's pool
  bool metrics_enabled_ = false;
  uint64_t messages_ = 0;
  uint64_t bytes_ = 0;
  bool mining_on_ = false;
  size_t next_miner_ = 0;
  std::vector<PeerId> miners_;  ///< round-robin order for kMineTick
  double mine_interval_ = 0.0;
  bool churn_on_ = false;
  double churn_rate_ = 0.0;  ///< link-churn events per second
  uint64_t churn_events_ = 0;

  /// One kLinkChurn step: drop a link, dial a replacement, re-arm.
  void churn_tick();

  static uint64_t stream_key(PeerId from, PeerId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  /// Enforces the FIFO clock of the directed (from, to) stream and
  /// returns the delivery time, now + delay + extra_delay or just after
  /// the stream's previous delivery: messages share a TCP connection in
  /// the real protocol, so a later send can never overtake an earlier one.
  /// Clocks are pruned on disconnect; a re-established link starts with a
  /// fresh clock instead of being pushed out by a long-dead link's stale
  /// one.
  double fifo_delivery_time(PeerId from, PeerId to, double delay, double extra_delay = 0.0);

  /// Copies the payload out of `slot`, releases the slot, and delivers it.
  void deliver_from_arena(PeerId to, PeerId from, uint32_t slot);

  PayloadArena arena_;  ///< in-flight full-tx payloads, one slot per kDeliverTx
  util::FlatHashMap<double> streams_;  ///< last delivery time, by stream_key
};

}  // namespace topo::p2p
