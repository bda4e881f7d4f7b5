#include "p2p/node.h"

#include <algorithm>
#include <cmath>

#include "p2p/network.h"
#include "wire/messages.h"

namespace topo::p2p {

Node::Node(NodeConfig config, Network* net, const eth::StateView* state, util::Rng rng)
    : config_(std::move(config)),
      net_(net),
      pool_(config_.policy(), state),
      blocks_seen_(net->chain().height()),
      rng_(rng) {}

Node::Snapshot Node::snapshot() const {
  return Snapshot{config_,          rng_,         unresponsive_,
                  pool_.snapshot(), blocks_seen_, announce_block_until_,
                  announce_sources_};
}

Node::Node(const Snapshot& snap, Network* net, const eth::StateView* state)
    : config_(snap.config),
      net_(net),
      pool_(config_.policy(), state),
      blocks_seen_(snap.blocks_seen),
      rng_(snap.rng),
      unresponsive_(snap.unresponsive),
      announce_block_until_(snap.announce_block_until),
      announce_sources_(snap.announce_sources) {
  pool_.restore(snap.pool);
}

void Node::start() {
  auto& sim = net_->simulator();
  // Maintenance loop (Geth's deferred reorg work). Jittered start so nodes
  // do not run in lockstep.
  const double jitter = rng_.uniform() * config_.maintenance_interval;
  sim.schedule_after(jitter, sim::Event::typed(sim::EventKind::kMaintenance, this));
  if (config_.regossip_interval > 0.0) {
    const double gj = rng_.uniform() * config_.regossip_interval;
    sim.schedule_after(gj, sim::Event::typed(sim::EventKind::kRegossip, this));
  }
}

void Node::on_event(const sim::Event& ev) {
  switch (ev.kind) {
    case sim::EventKind::kFetchTimeout:
      request_body(ev.payload);
      break;
    case sim::EventKind::kMaintenance:
      pool_.maintain(net_->simulator().now());
      net_->simulator().schedule_after(config_.maintenance_interval, ev);
      break;
    case sim::EventKind::kRegossip:
      if (!unresponsive_) {
        const auto& peers = net_->peers_of(id());
        if (!peers.empty() && pool_.pending_count() != 0) {
          // Re-gossip one random pending transaction to one random peer —
          // the txC re-propagation race source (§5.2.1). random_pending
          // draws the same index a pending_snapshot() pick would, without
          // the O(pool) copy every tick.
          const eth::Transaction* tx = pool_.random_pending(rng_);
          if (tx != nullptr) net_->send_tx(id(), peers[rng_.index(peers.size())], *tx);
        }
      }
      net_->simulator().schedule_after(config_.regossip_interval, ev);
      break;
    default:
      break;
  }
}

std::string Node::client_version() const {
  return mempool::client_version_string(config_.client);
}

mempool::AdmitResult Node::submit(const eth::Transaction& tx) {
  const eth::TxHash hash = tx.hash();
  const auto result = pool_.add(tx, hash, net_->simulator().now());
  if (!unresponsive_ && config_.forwards_transactions) {
    if (result.admitted_pending()) propagate(tx, hash, id());
    for (const auto& p : result.promoted) propagate(p, p.hash(), id());
    if (result.code == mempool::AdmitCode::kAddedFuture && config_.forwards_future)
      propagate(tx, hash, id());
  }
  return result;
}

void Node::admit_and_propagate(const eth::Transaction& tx, eth::TxHash hash, PeerId from) {
  const auto result = pool_.add(tx, hash, net_->simulator().now());
  if (unresponsive_ || !config_.forwards_transactions) return;
  if (result.admitted_pending()) propagate(tx, hash, from);
  for (const auto& p : result.promoted) propagate(p, p.hash(), from);
  if (result.code == mempool::AdmitCode::kAddedFuture && config_.forwards_future)
    propagate(tx, hash, from);
}

void Node::deliver_tx(const eth::Transaction& tx, eth::TxHash hash, PeerId from) {
  if (unresponsive_) return;
  // Body arrival settles any outstanding fetch, however it got here (a
  // direct push races the announce protocol and must still release the
  // fetcher entry). Flood-admission fast path: with no fetches outstanding
  // — the overwhelmingly common state in push-mode floods — skip both map
  // probes entirely.
  if (!announce_block_until_.empty() || !announce_sources_.empty()) prune_fetcher(hash);
  admit_and_propagate(tx, hash, from);
}

void Node::prune_fetcher(eth::TxHash hash) {
  announce_block_until_.erase(hash);
  announce_sources_.erase(hash);
}

void Node::restart() {
  pool_.clear();
  announce_block_until_.clear();
  announce_sources_.clear();
}

void Node::deliver_announce(eth::TxHash hash, PeerId from) {
  if (unresponsive_) return;
  if (pool_.contains(hash)) return;
  const double now = net_->simulator().now();
  auto it = announce_block_until_.find(hash);
  if (it != announce_block_until_.end() && it->second > now) {
    // Blocked window: remember the alternate announcer for fail-over.
    announce_sources_[hash].push_back(from);
    return;
  }
  announce_block_until_[hash] = now + config_.announce_timeout;
  announce_sources_[hash].clear();
  net_->send_get_tx(id(), from, hash);
  // Fetcher fail-over: if the body has not arrived when the window closes,
  // ask the next peer that announced it. request_body also prunes the
  // fetcher state when the fetch is settled or the sources are exhausted.
  net_->simulator().schedule_after(
      config_.announce_timeout,
      sim::Event::typed(sim::EventKind::kFetchTimeout, this, 0, 0, hash));
}

void Node::request_body(eth::TxHash hash) {
  if (unresponsive_ || pool_.contains(hash)) {
    // Nothing further to fetch (or we are down and dropping everything):
    // drop the window/source bookkeeping instead of leaking it.
    prune_fetcher(hash);
    return;
  }
  auto it = announce_sources_.find(hash);
  if (it == announce_sources_.end() || it->second.empty()) {
    // Every announcer has been tried and the body never came — give up and
    // release the fetcher state (window expiry pruning).
    prune_fetcher(hash);
    return;
  }
  const PeerId next = it->second.front();
  it->second.erase(it->second.begin());
  const double now = net_->simulator().now();
  announce_block_until_[hash] = now + config_.announce_timeout;
  net_->send_get_tx(id(), next, hash);
  net_->simulator().schedule_after(
      config_.announce_timeout,
      sim::Event::typed(sim::EventKind::kFetchTimeout, this, 0, 0, hash));
}

void Node::deliver_get_tx(eth::TxHash hash, PeerId from) {
  if (unresponsive_) return;
  const eth::Transaction* tx = pool_.find_hash(hash);
  if (tx != nullptr) net_->send_tx(id(), from, *tx);
}

void Node::on_peer_connected(PeerId peer) {
  if (unresponsive_ || !config_.forwards_transactions) return;
  // Real clients gossip their pool to a fresh peer. Announce (or push) a
  // bounded sample to keep simulated connect storms cheap.
  const auto snapshot = pool_.pending_snapshot();
  const size_t limit = std::min<size_t>(snapshot.size(), 256);
  for (size_t i = 0; i < limit; ++i) {
    if (config_.use_announcements) {
      net_->send_announce(id(), peer, snapshot[i].hash());
    } else {
      net_->send_tx(id(), peer, snapshot[i]);
    }
  }
}

void Node::on_block_commit() {
  const eth::Chain& chain = net_->chain();
  pool_.set_base_fee(chain.base_fee());
  chain.senders_since(blocks_seen_, block_senders_);
  const auto update = pool_.on_block(block_senders_);
  blocks_seen_ = chain.height();
  if (unresponsive_ || !config_.forwards_transactions) return;
  for (const auto& p : update.promoted) propagate(p, p.hash(), id());
}

void Node::propagate(const eth::Transaction& tx, eth::TxHash hash, PeerId exclude) {
  const auto& peers = net_->peers_of(id());
  if (peers.empty()) return;
  if (config_.announce_only) {
    // Bitcoin-style: hashes only; bodies travel by request.
    for (PeerId p : peers) {
      if (p != exclude) net_->send_announce(id(), p, hash);
    }
    return;
  }
  const uint64_t size = wire::transaction_wire_size(tx);
  if (!config_.use_announcements) {
    for (PeerId p : peers) {
      if (p != exclude) net_->send_tx(id(), p, tx, hash, size);
    }
    return;
  }
  // Geth >= 1.9.11: direct push to sqrt(#peers) randomly chosen peers,
  // hash announcement to the rest.
  std::vector<PeerId> order(peers.begin(), peers.end());
  rng_.shuffle(order);
  const size_t push_count = std::max<size_t>(
      1, static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(order.size())))));
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == exclude) continue;
    if (i < push_count) {
      net_->send_tx(id(), order[i], tx, hash, size);
    } else {
      net_->send_announce(id(), order[i], hash);
    }
  }
}

}  // namespace topo::p2p
