#pragma once

#include <optional>
#include <vector>

#include "eth/account.h"
#include "mempool/mempool.h"
#include "obs/metrics.h"
#include "p2p/peer.h"
#include "util/flat_hash_map.h"

namespace topo::p2p {

class Network;

/// The instrumented measurement node M (paper §5): a supernode that
///  - connects to every target node,
///  - records which peer forwarded each transaction (the Step-4 check
///    "receives txA *from Node B*"),
///  - can send any transaction — including deliberately future ones — to a
///    specific peer, bypassing the local validity checks a stock client
///    would apply (the paper statically instruments Geth for this),
///  - keeps a passive local mempool view of network traffic, used to
///    estimate the txC gas price Y as the median pending price (§5.2.1),
///  - paces its outgoing transactions at a configurable throughput, which
///    is what stretches the eviction->txB race window as group sizes grow.
///
/// M never propagates: received transactions are only logged and mirrored
/// into the passive view.
class MeasurementNode final : public Peer {
 public:
  /// `send_spacing` seconds between consecutive outgoing transactions.
  /// `view_policy` controls M's passive pool view; by default it mirrors a
  /// stock Geth pool so the median-price estimator (§5.2.1) tracks the
  /// *live* fee market the way a real node's mempool does.
  MeasurementNode(Network* net, const eth::StateView* state, double send_spacing = 0.0002,
                  std::optional<mempool::MempoolPolicy> view_policy = std::nullopt);

  // -- Peer interface ------------------------------------------------------
  void deliver_tx(const eth::Transaction& tx, eth::TxHash hash, PeerId from) override;
  void deliver_announce(eth::TxHash hash, PeerId from) override;
  void deliver_get_tx(eth::TxHash hash, PeerId from) override;
  void on_block_commit() override;

  // -- Sending -------------------------------------------------------------
  /// Queues one transaction to `peer`; sends are serialized at the node's
  /// throughput. Returns the scheduled departure time.
  double send_to(PeerId peer, const eth::Transaction& tx);

  /// Queues a batch (e.g. the Z future transactions) to `peer`.
  double send_batch_to(PeerId peer, const std::vector<eth::Transaction>& txs);

  /// Time the last queued send departs.
  double send_backlog_until() const { return next_free_send_; }

  // -- Receive log ---------------------------------------------------------
  /// True if `hash` has been received from `peer` (at any time).
  bool received_from(eth::TxHash hash, PeerId peer) const;

  /// True if received from `peer` at time >= since.
  bool received_from_since(eth::TxHash hash, PeerId peer, double since) const;

  /// True if received from `peer` at time >= since AND from no other peer
  /// in that window. Since every node that admits a transaction pushes it
  /// to its peers (M among them), a reception from anyone else proves the
  /// isolation property was violated and the measurement must be discarded
  /// (strict isolation check; keeps precision at 100% by construction).
  bool received_only_from(eth::TxHash hash, PeerId peer, double since) const;

  /// All (peer, time) receptions of a hash.
  std::vector<std::pair<PeerId, double>> receptions(eth::TxHash hash) const;

  void clear_log();

  // -- Passive pool view ---------------------------------------------------
  const mempool::Mempool& view() const { return view_; }
  mempool::Mempool& view() { return view_; }

  /// Connects M to every regular node currently in the network.
  void connect_to_all();

  uint64_t txs_sent() const { return txs_sent_; }

  /// The receive log: every reception in one record array, and per hash
  /// the run of its records, linked in arrival order.
  struct ReceiveLog {
    struct Record {
      PeerId from = 0;
      uint32_t next = UINT32_MAX;  ///< the hash's next reception
      double at = 0.0;
    };
    struct Run {
      uint32_t first = 0;
      uint32_t last = 0;
    };
    std::vector<Record> records;
    util::FlatHashMap<Run> runs;  ///< hash -> its receptions

    void append(eth::TxHash hash, PeerId from, double at);
    /// Calls `fn(record)` for each reception of `hash`, oldest first, until
    /// `fn` returns false.
    template <typename Fn>
    void visit(eth::TxHash hash, Fn&& fn) const {
      const Run* run = runs.find(hash);
      if (run == nullptr) return;
      for (uint32_t i = run->first; i != UINT32_MAX; i = records[i].next) {
        if (!fn(records[i])) return;
      }
    }
  };

  // -- World forking ---------------------------------------------------------
  /// Frozen measurement-node state (core::Scenario::snapshot). The passive
  /// view rides behind copy-on-write handles; metrics wiring is NOT part of
  /// the snapshot — the forked scenario calls set_metrics on its own
  /// registry.
  struct Snapshot {
    mempool::Mempool::Snapshot view;
    uint64_t blocks_seen = 0;
    double next_free_send = 0.0;
    uint64_t txs_sent = 0;
    ReceiveLog log;
  };
  Snapshot snapshot() const {
    return Snapshot{view_.snapshot(), blocks_seen_, next_free_send_, txs_sent_, log_};
  }
  void restore(const Snapshot& snap) {
    view_.restore(snap.view);
    blocks_seen_ = snap.blocks_seen;
    next_free_send_ = snap.next_free_send;
    txs_sent_ = snap.txs_sent;
    log_ = snap.log;
  }

  /// Wires injection accounting (`probe.txs_injected`) into `reg`, which
  /// must outlive the node. M's passive view is
  /// deliberately *not* wired: its pool mirrors traffic other nodes already
  /// account for and would double-count every mempool metric.
  void set_metrics(obs::MetricsRegistry& reg);

 private:
  Network* net_;
  mempool::Mempool view_;
  uint64_t blocks_seen_;  ///< chain height the view last reacted to (see Node)
  double send_spacing_;
  double next_free_send_ = 0.0;
  uint64_t txs_sent_ = 0;
  obs::Counter* injected_counter_ = nullptr;
  ReceiveLog log_;
  std::vector<eth::Address> block_senders_;  ///< reused by on_block_commit
};

}  // namespace topo::p2p
