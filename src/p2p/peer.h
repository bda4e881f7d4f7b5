#pragma once

#include <cstdint>

#include "eth/transaction.h"

namespace topo::p2p {

class Network;

/// Dense id of a participant in the simulated network.
using PeerId = uint32_t;

/// Message-delivery interface every network participant implements. The
/// Network invokes these after the simulated link latency has elapsed.
class Peer {
 public:
  /// Auto-detaches from the Network the peer is registered with (if any):
  /// destroying a registered peer severs its links and leaves an inert sink
  /// in its slot, so messages still in flight deliver harmlessly instead of
  /// through a dangling pointer. Defined in network.cpp.
  virtual ~Peer();

  /// A full transaction pushed by `from` (devp2p Transactions message).
  /// `hash` is `tx.hash()`, computed once by the sender's fan-out and
  /// carried with the payload, so a receiver never recomputes it.
  virtual void deliver_tx(const eth::Transaction& tx, eth::TxHash hash, PeerId from) = 0;

  /// A hash announcement (NewPooledTransactionHashes).
  virtual void deliver_announce(eth::TxHash hash, PeerId from) = 0;

  /// A body request for an announced hash (GetPooledTransactions).
  virtual void deliver_get_tx(eth::TxHash hash, PeerId from) = 0;

  /// A new link to `peer` has been established.
  virtual void on_peer_connected(PeerId peer) { (void)peer; }

  /// The shared chain committed a block (state view already updated).
  virtual void on_block_commit() {}

  PeerId id() const { return id_; }

 private:
  friend class Network;
  PeerId id_ = 0;
  /// The network this peer is registered with; set by register_peer, nulled
  /// by detach_peer and by ~Network (whichever comes first).
  Network* registry_ = nullptr;
};

}  // namespace topo::p2p
