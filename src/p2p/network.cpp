#include "p2p/network.h"

#include <algorithm>
#include <cassert>

#include "eth/miner.h"
#include "p2p/node.h"
#include "wire/messages.h"

namespace topo::p2p {

Peer::~Peer() {
  if (registry_ != nullptr) registry_->detach_peer(id_);
}

Network::Network(sim::Simulator* sim, eth::Chain* chain, util::Rng rng, sim::LatencyModel latency)
    : sim_(sim), chain_(chain), rng_(rng), latency_(latency) {
  assert(sim_ != nullptr && chain_ != nullptr);
}

Network::~Network() {
  // Unhook every registered peer before members start dying: the owned
  // nodes' ~Peer must not detach into a half-destroyed network, and
  // externally owned peers that outlive us must not dangle into it later.
  for (Peer* p : peers_) {
    if (p != nullptr && p->registry_ == this) p->registry_ = nullptr;
  }
}

PeerId Network::add_node(const NodeConfig& config) {
  auto node = std::make_unique<Node>(config, this, chain_, rng_.split());
  Node* raw = node.get();
  owned_.push_back(std::move(node));
  const PeerId id = register_peer(raw);
  network_id_of_[id] = config.network_id;
  regular_.push_back(id);
  if (metrics_enabled_) raw->pool().set_obs(&pool_obs_);
  raw->start();
  return id;
}

std::vector<PeerId> Network::populate(const graph::Graph& topology, const NodeConfig& config) {
  std::vector<PeerId> ids;
  ids.reserve(topology.num_nodes());
  for (size_t i = 0; i < topology.num_nodes(); ++i) ids.push_back(add_node(config));
  for (const auto& [u, v] : topology.edges()) connect(ids[u], ids[v]);
  return ids;
}

void Network::enable_metrics(obs::MetricsRegistry& reg) {
  obs_.messages = &reg.counter("net.messages");
  obs_.messages_tx = &reg.counter("net.messages.tx");
  obs_.messages_announce = &reg.counter("net.messages.announce");
  obs_.messages_get_tx = &reg.counter("net.messages.get_tx");
  obs_.bytes = &reg.counter("net.bytes");
  pool_obs_ = mempool::PoolObs::wire(reg);
  metrics_enabled_ = true;
  for (auto& node : owned_) node->pool().set_obs(&pool_obs_);
}

PeerId Network::register_peer(Peer* peer) {
  const PeerId id = static_cast<PeerId>(peers_.size());
  peer->id_ = id;
  peer->registry_ = this;
  peers_.push_back(peer);
  adj_.emplace_back();
  adj_set_.emplace_back();
  network_id_of_.push_back(0);  // externally registered peers observe any overlay
  return id;
}

namespace {

/// Inert stand-in for detached peers.
class SinkPeer final : public Peer {
 public:
  void deliver_tx(const eth::Transaction&, eth::TxHash, PeerId) override {}
  void deliver_announce(eth::TxHash, PeerId) override {}
  void deliver_get_tx(eth::TxHash, PeerId) override {}
};

/// Shared inert sink occupying detached (and not-yet-rebound) peer slots.
Peer& detached_sink() {
  static SinkPeer sink;
  return sink;
}

}  // namespace

void Network::detach_peer(PeerId id) {
  if (peers_[id]->registry_ == this) peers_[id]->registry_ = nullptr;
  while (!adj_[id].empty()) disconnect(id, adj_[id].back());
  peers_[id] = &detached_sink();
}

bool Network::connect(PeerId a, PeerId b) {
  if (a == b || a >= peers_.size() || b >= peers_.size()) return false;
  if (adj_set_[a].count(b)) return false;
  // Simulated Status handshake (paper Fig. 1): different blockchain
  // overlays disconnect immediately. networkID 0 is the wildcard observer.
  const uint64_t net_a = network_id_of_[a];
  const uint64_t net_b = network_id_of_[b];
  if (net_a != 0 && net_b != 0 && net_a != net_b) return false;
  adj_set_[a].insert(b);
  adj_set_[b].insert(a);
  adj_[a].push_back(b);
  adj_[b].push_back(a);
  peers_[a]->on_peer_connected(b);
  peers_[b]->on_peer_connected(a);
  return true;
}

bool Network::disconnect(PeerId a, PeerId b) {
  if (a >= peers_.size() || b >= peers_.size() || !adj_set_[a].count(b)) return false;
  adj_set_[a].erase(b);
  adj_set_[b].erase(a);
  auto drop = [](std::vector<PeerId>& v, PeerId x) {
    v.erase(std::find(v.begin(), v.end(), x));
  };
  drop(adj_[a], b);
  drop(adj_[b], a);
  // The link's FIFO clocks die with it (churned campaigns must not grow
  // the stream map without bound, and a re-dialed link must not inherit a
  // stale clock); anything already in flight still delivers.
  for (const uint64_t key : {stream_key(a, b), stream_key(b, a)}) {
    if (streams_.find(key) != nullptr) streams_.erase(key);
  }
  return true;
}

bool Network::linked(PeerId a, PeerId b) const {
  if (a >= peers_.size() || b >= peers_.size()) return false;
  return adj_set_[a].count(b) > 0;
}

Node& Network::node(PeerId n) {
  Node* p = dynamic_cast<Node*>(peers_[n]);
  assert(p != nullptr && "peer id does not refer to a regular Node");
  return *p;
}

const Node& Network::node(PeerId n) const {
  const Node* p = dynamic_cast<const Node*>(peers_[n]);
  assert(p != nullptr && "peer id does not refer to a regular Node");
  return *p;
}

double Network::fifo_delivery_time(PeerId from, PeerId to, double delay, double extra_delay) {
  double& last = streams_[stream_key(from, to)];
  const double at = std::max(sim_->now() + delay + extra_delay, last + 1e-6);
  last = at;
  return at;
}

void Network::send_tx(PeerId from, PeerId to, const eth::Transaction& tx, double extra_delay) {
  send_tx(from, to, tx, tx.hash(), wire::transaction_wire_size(tx), extra_delay);
}

void Network::send_tx(PeerId from, PeerId to, const eth::Transaction& tx, eth::TxHash hash,
                      uint64_t size, double extra_delay) {
  ++messages_;
  bytes_ += size;
  if (obs_.messages != nullptr) {
    obs_.messages->inc();
    obs_.messages_tx->inc();
    obs_.bytes->inc(size);
  }
  double lat = latency_.sample(rng_);
  if (fault_ != nullptr) {
    // Dropped messages stay in the sent tallies (the wire bytes were
    // spent); they just never schedule a delivery or hold an arena slot.
    if (fault_->should_drop(MsgKind::kTx, from, to)) return;
    lat *= fault_->latency_multiplier(MsgKind::kTx, from, to);
  }
  const double at = fifo_delivery_time(from, to, lat, extra_delay);
  const uint32_t slot = arena_.acquire(tx, hash);
  sim_->schedule_at(at, sim::Event::typed(sim::EventKind::kDeliverTx, this, to, from, slot));
}

void Network::send_announce(PeerId from, PeerId to, eth::TxHash hash) {
  ++messages_;
  bytes_ += wire::announcement_wire_size();
  if (obs_.messages != nullptr) {
    obs_.messages->inc();
    obs_.messages_announce->inc();
    obs_.bytes->inc(wire::announcement_wire_size());
  }
  double lat = latency_.sample(rng_);
  if (fault_ != nullptr) {
    if (fault_->should_drop(MsgKind::kAnnounce, from, to)) return;
    lat *= fault_->latency_multiplier(MsgKind::kAnnounce, from, to);
  }
  const double at = fifo_delivery_time(from, to, lat);
  sim_->schedule_at(at, sim::Event::typed(sim::EventKind::kDeliverAnnounce, this, to, from, hash));
}

void Network::send_get_tx(PeerId from, PeerId to, eth::TxHash hash) {
  ++messages_;
  bytes_ += wire::announcement_wire_size();
  if (obs_.messages != nullptr) {
    obs_.messages->inc();
    obs_.messages_get_tx->inc();
    obs_.bytes->inc(wire::announcement_wire_size());
  }
  double lat = latency_.sample(rng_);
  if (fault_ != nullptr) {
    if (fault_->should_drop(MsgKind::kGetTx, from, to)) return;
    lat *= fault_->latency_multiplier(MsgKind::kGetTx, from, to);
  }
  const double at = fifo_delivery_time(from, to, lat);
  sim_->schedule_at(at, sim::Event::typed(sim::EventKind::kDeliverGetTx, this, to, from, hash));
}

void Network::seed_mempools(const std::vector<eth::Transaction>& txs,
                            const std::unordered_set<PeerId>& except) {
  const double now = sim_->now();
  for (PeerId id : regular_) {
    if (except.count(id)) continue;
    auto& pool = node(id).pool();
    for (const auto& tx : txs) pool.add(tx, now);
  }
}

graph::Graph Network::snapshot_topology() const {
  graph::Graph g(regular_.size());
  std::vector<int64_t> remap(peers_.size(), -1);
  for (size_t i = 0; i < regular_.size(); ++i) remap[regular_[i]] = static_cast<int64_t>(i);
  for (size_t i = 0; i < regular_.size(); ++i) {
    for (PeerId nbr : adj_[regular_[i]]) {
      const int64_t j = remap[nbr];
      if (j >= 0 && static_cast<int64_t>(i) < j)
        g.add_edge(static_cast<graph::NodeId>(i), static_cast<graph::NodeId>(j));
    }
  }
  return g;
}

int64_t Network::graph_index(PeerId n) const {
  for (size_t i = 0; i < regular_.size(); ++i) {
    if (regular_[i] == n) return static_cast<int64_t>(i);
  }
  return -1;
}

const eth::Block& Network::mine_block(PeerId miner) {
  eth::Block b;
  b.timestamp = sim_->now();
  b.miner_node = miner;
  const auto candidates = node(miner).pool().pending_snapshot();
  b.txs = eth::pack_block(candidates, *chain_, chain_->gas_limit(), chain_->base_fee());
  const eth::Block& committed = chain_->commit(std::move(b));
  // Block propagation is fast relative to the 13 s interval; deliver the
  // commit to every participant after one link latency.
  for (PeerId i = 0; i < peers_.size(); ++i) {
    sim_->schedule_after(latency_.sample(rng_),
                         sim::Event::typed(sim::EventKind::kBlockCommit, this, i));
  }
  return committed;
}

void Network::start_link_churn(double events_per_sec) {
  if (events_per_sec <= 0.0 || regular_.size() < 4) return;
  churn_on_ = true;
  churn_rate_ = events_per_sec;
  sim_->schedule_after(rng_.exponential(1.0 / churn_rate_),
                       sim::Event::typed(sim::EventKind::kLinkChurn, this));
}

void Network::churn_tick() {
  if (!churn_on_) return;
  // Drop one random link between regular nodes.
  std::unordered_set<PeerId> regular_set(regular_.begin(), regular_.end());
  for (int attempt = 0; attempt < 16; ++attempt) {
    const PeerId u = regular_[rng_.index(regular_.size())];
    if (adj_[u].empty()) continue;
    const PeerId v = adj_[u][rng_.index(adj_[u].size())];
    if (!regular_set.count(v)) continue;  // never churn measurement links
    disconnect(u, v);
    ++churn_events_;
    break;
  }
  // Dial one random replacement link (reconnect gossip fires).
  for (int attempt = 0; attempt < 16; ++attempt) {
    const PeerId a = regular_[rng_.index(regular_.size())];
    const PeerId b = regular_[rng_.index(regular_.size())];
    if (a == b || linked(a, b)) continue;
    connect(a, b);
    break;
  }
  sim_->schedule_after(rng_.exponential(1.0 / churn_rate_),
                       sim::Event::typed(sim::EventKind::kLinkChurn, this));
}

Network::Snapshot Network::snapshot() const {
  Snapshot s;
  s.rng = rng_;
  s.nodes.reserve(regular_.size());
  for (PeerId id : regular_) s.nodes.push_back(node(id).snapshot());
  s.regular = regular_;
  s.adj = adj_;
  s.network_id_of = network_id_of_;
  s.messages = messages_;
  s.bytes = bytes_;
  s.mining_on = mining_on_;
  s.next_miner = next_miner_;
  s.miners = miners_;
  s.mine_interval = mine_interval_;
  s.churn_on = churn_on_;
  s.churn_rate = churn_rate_;
  s.churn_events = churn_events_;
  s.arena = arena_.snapshot();
  s.streams.reserve(streams_.size());
  streams_.for_each([&s](uint64_t key, double last_delivery) {
    s.streams.push_back(Snapshot::StreamClock{key, last_delivery});
  });
  std::sort(s.streams.begin(), s.streams.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  return s;
}

void Network::restore(const Snapshot& snap) {
  assert(peers_.empty() && "restore() requires a freshly constructed network");
  rng_ = snap.rng;
  const size_t total = snap.adj.size();
  // Every slot starts as the inert sink; regular nodes fill theirs below,
  // external owners re-bind theirs via rebind_external.
  peers_.assign(total, &detached_sink());
  adj_ = snap.adj;
  adj_set_.assign(total, {});
  for (size_t i = 0; i < total; ++i) {
    adj_set_[i] = std::unordered_set<PeerId>(adj_[i].begin(), adj_[i].end());
  }
  network_id_of_ = snap.network_id_of;
  regular_ = snap.regular;
  owned_.reserve(regular_.size());
  for (size_t i = 0; i < regular_.size(); ++i) {
    // Restore constructor: no start() ticks, no connect() gossip — the
    // warmed world's pending events are re-pushed by the scenario layer.
    auto node = std::make_unique<Node>(snap.nodes[i], this, chain_);
    node->id_ = regular_[i];
    node->registry_ = this;
    if (metrics_enabled_) node->pool().set_obs(&pool_obs_);
    peers_[regular_[i]] = node.get();
    owned_.push_back(std::move(node));
  }
  messages_ = snap.messages;
  bytes_ = snap.bytes;
  mining_on_ = snap.mining_on;
  next_miner_ = snap.next_miner;
  miners_ = snap.miners;
  mine_interval_ = snap.mine_interval;
  churn_on_ = snap.churn_on;
  churn_rate_ = snap.churn_rate;
  churn_events_ = snap.churn_events;
  arena_.restore(snap.arena);
  for (const auto& sc : snap.streams) streams_.insert(sc.key, sc.last_delivery);
}

void Network::rebind_external(PeerId id, Peer* peer) {
  assert(id < peers_.size() && "rebind_external: no such slot");
  peer->id_ = id;
  peer->registry_ = this;
  peers_[id] = peer;
}

void Network::start_mining(std::vector<PeerId> miners, double interval) {
  if (miners.empty()) return;
  mining_on_ = true;
  next_miner_ = 0;
  miners_ = std::move(miners);
  mine_interval_ = interval;
  sim_->schedule_after(interval, sim::Event::typed(sim::EventKind::kMineTick, this));
}

void Network::deliver_from_arena(PeerId to, PeerId from, uint32_t slot) {
  // Copy out and release the slot before delivering: propagation inside
  // deliver_tx may send again and reuse the slot.
  const PayloadArena::Payload p = arena_.take(slot);
  peers_[to]->deliver_tx(p.tx, p.hash, from);
}

void Network::on_event(const sim::Event& ev) {
  switch (ev.kind) {
    case sim::EventKind::kDeliverTx:
      deliver_from_arena(ev.a, ev.b, static_cast<uint32_t>(ev.payload));
      break;
    case sim::EventKind::kDeliverAnnounce:
      peers_[ev.a]->deliver_announce(ev.payload, ev.b);
      break;
    case sim::EventKind::kDeliverGetTx:
      peers_[ev.a]->deliver_get_tx(ev.payload, ev.b);
      break;
    case sim::EventKind::kBlockCommit:
      peers_[ev.a]->on_block_commit();
      break;
    case sim::EventKind::kMineTick:
      if (!mining_on_) break;
      mine_block(miners_[next_miner_++ % miners_.size()]);
      sim_->schedule_after(mine_interval_, sim::Event::typed(sim::EventKind::kMineTick, this));
      break;
    case sim::EventKind::kLinkChurn:
      churn_tick();
      break;
    default:
      assert(false && "unexpected event kind routed to Network");
      break;
  }
}

}  // namespace topo::p2p
