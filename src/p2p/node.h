#pragma once

#include <unordered_map>

#include "mempool/mempool.h"
#include "p2p/config.h"
#include "p2p/peer.h"
#include "sim/event.h"
#include "util/rng.h"

namespace topo::p2p {

class Network;

/// A simulated full Ethereum node: mempool + transaction propagation.
///
/// Propagation semantics (paper §2):
///  - admitting a *pending* transaction propagates it to all active
///    neighbors, by direct push, or — with announcements enabled — by
///    pushing to sqrt(peers) and announcing the hash to the rest;
///  - future transactions are admitted but never propagated (unless the
///    node carries the forwards_future misconfiguration);
///  - a peer that requested an announced hash ignores further announcements
///    of it for announce_timeout seconds, but a direct push always bypasses
///    the block (the Ethereum/Bitcoin distinction of §4.1);
///  - futures promoted by a block commit are propagated like fresh pendings.
class Node final : public Peer, public sim::EventSink {
 public:
  Node(NodeConfig config, Network* net, const eth::StateView* state, util::Rng rng);

  /// Frozen per-node state for world forking. The mempool rides behind
  /// copy-on-write handles (Mempool::Snapshot), so capturing a warmed node
  /// is O(1) in pool size.
  struct Snapshot {
    NodeConfig config;
    util::Rng rng;
    bool unresponsive = false;
    mempool::Mempool::Snapshot pool;
    uint64_t blocks_seen = 0;
    std::unordered_map<eth::TxHash, double> announce_block_until;
    std::unordered_map<eth::TxHash, std::vector<PeerId>> announce_sources;
  };
  Snapshot snapshot() const;

  /// Restore constructor (Network::restore). Does NOT call start(): the
  /// warmed world's maintenance/re-gossip ticks live in the captured event
  /// queue and are re-pushed by the scenario layer.
  Node(const Snapshot& snap, Network* net, const eth::StateView* state);

  /// Starts the maintenance loop (and re-gossip loop if configured). Called
  /// once by the Network after registration.
  void start();

  void deliver_tx(const eth::Transaction& tx, eth::TxHash hash, PeerId from) override;
  void deliver_announce(eth::TxHash hash, PeerId from) override;
  void deliver_get_tx(eth::TxHash hash, PeerId from) override;
  void on_peer_connected(PeerId peer) override;
  void on_block_commit() override;

  /// Typed-event dispatch: fetch timeouts, maintenance and re-gossip ticks.
  void on_event(const sim::Event& ev) override;

  /// Local submission (a user RPC sending a transaction to this node).
  mempool::AdmitResult submit(const eth::Transaction& tx);

  mempool::Mempool& pool() { return pool_; }
  const mempool::Mempool& pool() const { return pool_; }
  const NodeConfig& config() const { return config_; }

  /// Mutable behaviour flags — used by validation studies to flip a live
  /// node into a misconfigured one (future-forwarding, non-forwarding).
  /// Mempool policy changes do not retroactively apply to the pool.
  NodeConfig& mutable_config() { return config_; }

  /// Simulated web3_clientVersion RPC (mainnet service discovery, §6.3).
  std::string client_version() const;

  /// Unresponsive nodes drop everything (pre-processing filter target).
  void set_unresponsive(bool v) { unresponsive_ = v; }
  bool unresponsive() const { return unresponsive_; }

  /// Crash/restart: the node comes back with an empty mempool and no
  /// announce-fetcher state, as a real client would after a process
  /// restart. Link state is kept (the overlay re-dials fast relative to
  /// measurement windows).
  void restart();

  /// Live announce-fetcher entries (block windows + recorded fail-over
  /// sources). Bounded by the in-flight fetch set; regression guard for
  /// the unbounded-growth leak.
  size_t announce_fetcher_entries() const {
    return announce_block_until_.size() + announce_sources_.size();
  }

 private:
  /// Fans `tx` (content hash `hash`) out to every neighbour but
  /// `exclude`; the wire size is computed once for the whole fan-out.
  void propagate(const eth::Transaction& tx, eth::TxHash hash, PeerId exclude);
  /// Offers `tx` to the pool and propagates whatever the admission makes
  /// pending (the tx itself, promoted followers), as a received message.
  void admit_and_propagate(const eth::Transaction& tx, eth::TxHash hash, PeerId from);

  NodeConfig config_;
  Network* net_;
  mempool::Mempool pool_;
  /// Chain height the pool last reacted to. A commit notification arrives
  /// one link latency after the commit, so by then later blocks may have
  /// committed too; the pool must visit the senders of all of them.
  uint64_t blocks_seen_ = 0;
  std::vector<eth::Address> block_senders_;  ///< reused by on_block_commit
  util::Rng rng_;
  bool unresponsive_ = false;

  /// Requests `hash` from the next known announcer and schedules a retry
  /// (Geth's tx fetcher: an unanswered GetPooledTransactions falls over to
  /// another announcing peer after the timeout).
  void request_body(eth::TxHash hash);

  /// Forgets all fetcher state for `hash` (body arrived, or every announcer
  /// has been exhausted). Without this both maps grow without bound.
  void prune_fetcher(eth::TxHash hash);

  // hash -> sim time until which further announcements are ignored
  std::unordered_map<eth::TxHash, double> announce_block_until_;
  // hash -> peers that announced it and have not been asked yet
  std::unordered_map<eth::TxHash, std::vector<PeerId>> announce_sources_;
};

}  // namespace topo::p2p
