#pragma once

#include <functional>
#include <vector>

#include "eth/account.h"
#include "eth/block.h"
#include "util/cow.h"
#include "util/flat_hash_map.h"

namespace topo::eth {

/// The (single, shared) blockchain of a simulated network. Consensus is
/// abstracted away: committed blocks are immediately visible to every node,
/// which is sufficient because TopoShot's correctness argument only involves
/// mempool state and transaction propagation, not fork dynamics.
///
/// Bulk ledger state (blocks, the confirmed account-nonce table, the
/// inclusion set) lives behind a copy-on-write handle, so world snapshots
/// capture a warmed chain in O(1) and a forked replica shares it until its
/// first commit. Observers are deliberately *not* part of the snapshot:
/// they are wiring into one world's objects and each world re-subscribes
/// its own.
class Chain final : public StateView {
 public:
  /// `base_fee` = 0 disables EIP-1559 (legacy fee market).
  explicit Chain(uint64_t block_gas_limit = 8'000'000, Wei base_fee = 0);

  /// Confirmed next-nonce for an account.
  Nonce next_nonce(Address a) const override;

  /// Appends a block: assigns number/base-fee bookkeeping and advances the
  /// confirmed nonces of every included sender. Returns the stored block.
  const Block& commit(Block b);

  /// Base fee the *next* block will charge.
  Wei base_fee() const { return base_fee_; }

  uint64_t gas_limit() const { return gas_limit_; }
  uint64_t height() const { return st_->blocks.size(); }
  const std::vector<Block>& blocks() const { return st_->blocks; }

  /// All blocks with timestamp in the half-open window [t1, t2).
  ///
  /// Half-open on purpose: adjacent measurement windows (0, T), (T, 2T)
  /// must count a block stamped exactly at the seam T exactly once — in
  /// the later window, matching how the cost accounting slices a campaign
  /// into per-round budgets (see core::CostTracker). Callers wanting "up
  /// to and including now" pass an upper bound strictly beyond it (the
  /// cumulative gauges use +infinity).
  std::vector<const Block*> blocks_in(double t1, double t2) const;

  /// Replaces `out` with the senders of every transaction in blocks
  /// [from, height()), in block order (repeats kept). commit() is the only
  /// writer of confirmed nonces, so these are the only accounts whose
  /// next_nonce moved since the chain was `from` blocks high. Callers keep
  /// `out` as a scratch buffer across blocks.
  void senders_since(uint64_t from, std::vector<Address>& out) const;

  /// True if a transaction with this hash has been included in any block.
  bool includes(TxHash h) const { return st_->included.find(h) != nullptr; }

  /// Observer invoked after each commit (nodes subscribe to prune mempools).
  void subscribe(std::function<void(const Block&)> fn) { observers_.push_back(std::move(fn)); }

 private:
  /// Ledger content behind the copy-on-write handle.
  struct State {
    std::vector<Block> blocks;
    util::FlatHashMap<Nonce> next_nonce;
    util::FlatHashMap<uint64_t> included;  // hash -> block number
  };

 public:
  /// O(1) capture of the ledger (world-fork path). The scalar fee/gas
  /// config rides along so a forked chain continues pricing identically.
  struct Snapshot {
    util::Cow<State> state;
    uint64_t gas_limit = 0;
    Wei base_fee = 0;
  };
  Snapshot snapshot() const { return Snapshot{st_, gas_limit_, base_fee_}; }
  void restore(const Snapshot& snap) {
    st_ = snap.state;
    gas_limit_ = snap.gas_limit;
    base_fee_ = snap.base_fee;
  }

 private:
  uint64_t gas_limit_;
  Wei base_fee_;
  util::Cow<State> st_;
  std::vector<std::function<void(const Block&)>> observers_;
};

}  // namespace topo::eth
