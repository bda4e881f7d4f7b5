#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "eth/account.h"
#include "eth/transaction.h"
#include "mempool/flat_index.h"
#include "mempool/policy.h"
#include "obs/metrics.h"
#include "util/cow.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"

namespace topo::mempool {

/// Interned observability handles shared by every pool of one world (the
/// registry aggregates across nodes; per-node metrics would explode
/// cardinality at network scale). All pointers may be null; a pool without
/// obs wiring pays only one branch per operation.
struct PoolObs {
  obs::Counter* admits_pending = nullptr;
  obs::Counter* admits_future = nullptr;
  obs::Counter* replacements = nullptr;
  obs::Counter* rejects = nullptr;
  obs::Counter* evictions = nullptr;            ///< all removals below, summed
  obs::Counter* evictions_price = nullptr;      ///< displaced by a pricier incomer
  obs::Counter* evictions_truncated = nullptr;  ///< future-subpool truncation
  obs::Counter* evictions_expired = nullptr;    ///< lifetime `e` exceeded
  obs::Counter* evictions_basefee = nullptr;    ///< EIP-1559 underpriced drop
  obs::Counter* drops_mined = nullptr;          ///< consumed by a block
  obs::Histogram* occupancy = nullptr;          ///< size/capacity at maintenance
  obs::Counter* index_compactions = nullptr;    ///< flat-index tombstone rebuilds
  obs::Gauge* index_tombstone_peak = nullptr;   ///< deepest tombstone heap (high-water only)
  obs::TraceRing* trace = nullptr;

  /// Interns the `mempool.*` handles in `reg` (idempotent).
  static PoolObs wire(obs::MetricsRegistry& reg);
};

/// Outcome of offering a transaction to the pool.
enum class AdmitCode {
  kAddedPending,                   ///< admitted, executable, will be propagated
  kAddedFuture,                    ///< admitted with a nonce gap, not propagated
  kReplaced,                       ///< replaced a same-sender same-nonce entry
  kRejectedDuplicate,              ///< hash already known
  kRejectedStaleNonce,             ///< nonce already confirmed on chain
  kRejectedUnderpricedReplacement, ///< bump below R
  kRejectedPoolFull,               ///< full and incoming price <= cheapest entry
  kRejectedEvictionForbidden,      ///< full, future incomer, pending count < P
  kRejectedFutureLimit,            ///< sender already has U futures
  kRejectedUnderBaseFee,           ///< EIP-1559 max fee below current base fee
};

const char* admit_code_name(AdmitCode code);

/// Result of Mempool::add. `evicted`/`replaced` let the owning node account
/// for what left the pool; `promoted` lists futures that this admission made
/// executable (the node must propagate those too, as real clients do).
struct AdmitResult {
  AdmitCode code = AdmitCode::kRejectedDuplicate;
  std::vector<eth::Transaction> evicted;
  std::optional<eth::Transaction> replaced;
  std::vector<eth::Transaction> promoted;

  /// True if the transaction now sits in the pool as pending (and should be
  /// propagated).
  bool admitted_pending() const {
    return code == AdmitCode::kAddedPending || code == AdmitCode::kReplaced;
  }
  bool admitted() const { return admitted_pending() || code == AdmitCode::kAddedFuture; }
};

/// Changes made by maintenance or a block commit.
struct PoolUpdate {
  std::vector<eth::Transaction> dropped;   ///< truncated / expired / mined / stale
  std::vector<eth::Transaction> promoted;  ///< future -> pending transitions
};

/// The parameterized unconfirmed-transaction buffer of paper §2/§5.1.
///
/// Semantics implemented:
///  - pending/future classification against a StateView (consecutive nonce
///    run from the confirmed next nonce);
///  - replacement: same (sender, nonce), price bump >= R;
///  - eviction: a full pool admits a higher-priced transaction by evicting
///    the policy's victim, gated by P (future incomers) and U (future count
///    per sender);
///  - deferred maintenance: future-subpool truncation to `future_cap`,
///    expiry after `e` seconds, EIP-1559 underpriced drops;
///  - block commits prune mined/stale entries and promote unblocked futures.
///
/// Every operation touches only the accounts it can change: an admission
/// or removal reclassifies its own account incrementally from the changed
/// nonce, and a block commit visits only the accounts whose chain nonce
/// moved. See docs/ARCHITECTURE.md ("Mempool flat indexes") for the
/// classification invariant this rests on.
///
/// Storage layout: all bulk state (account queues, price indexes, the
/// transaction index, occupancy counters) lives in one `State` blob behind a
/// copy-on-write handle (util::Cow). `snapshot()` captures the pool in O(1);
/// a restored pool shares the blob with its base until the first mutation,
/// which clones it once. Account queues are struct-of-arrays: parallel
/// `slot_addr`/`slot_queue` vectors with a LIFO free list, so account
/// iteration (snapshots, maintenance sweeps, random picks) runs in slot
/// order — deterministic across standard libraries and identical between a
/// forked world and a rebuilt one, unlike hash-map order.
///
/// The pool never owns the StateView; callers guarantee it outlives the pool.
class Mempool {
 public:
  Mempool(MempoolPolicy policy, const eth::StateView* state);

  /// Offers a transaction at simulation time `now`.
  AdmitResult add(const eth::Transaction& tx, double now) { return add(tx, tx.hash(), now); }

  /// Same, for callers that already hold the content hash (`hash` must
  /// equal `tx.hash()`): the pool then never recomputes it.
  AdmitResult add(const eth::Transaction& tx, eth::TxHash hash, double now);

  /// Attaches shared observability handles (null detaches). The pointee
  /// must outlive the pool; typically owned by the p2p::Network. Obs
  /// handles live outside the copy-on-write state on purpose: a forked
  /// world re-wires its own registry without touching shared pages.
  void set_obs(const PoolObs* o) { obs_ = o; }

  /// Deferred maintenance (Geth's reorg loop): truncates the future subpool,
  /// drops expired entries, and (EIP-1559) drops entries priced under the
  /// base fee.
  PoolUpdate maintain(double now);

  /// Reacts to committed blocks: drops entries whose nonce the chain has
  /// consumed and promotes newly executable futures. `senders` must name
  /// every account whose chain nonce moved since the previous call — the
  /// senders of every block committed since then, not just the newest one
  /// (repeats and accounts the pool does not hold are fine); no other
  /// account is visited. The StateView must already reflect the blocks.
  PoolUpdate on_block(const std::vector<eth::Address>& senders);

  /// Updates the base fee used for EIP-1559 admission (no-op otherwise).
  void set_base_fee(eth::Wei base_fee) { base_fee_ = base_fee; }
  eth::Wei base_fee() const { return base_fee_; }

  bool contains(eth::TxHash h) const { return st_->txs.find(h) != nullptr; }
  const eth::Transaction* find(eth::Address sender, eth::Nonce nonce) const;
  const eth::Transaction* find_hash(eth::TxHash h) const;

  size_t size() const { return st_->size; }
  size_t pending_count() const { return st_->pending_count; }
  size_t future_count() const { return st_->size - st_->pending_count; }
  size_t futures_of(eth::Address sender) const;
  bool full() const { return st_->size >= policy_.capacity; }

  /// Cheapest pool price currently buffered (0 when empty). Physically
  /// const (slot-order scan), so it is safe on a state shared with forks.
  eth::Wei lowest_price() const;

  /// Median pool price of pending entries — the paper's Y estimator (§5.2.1).
  eth::Wei median_pending_price() const;

  /// Snapshot of pending transactions (miner candidates).
  std::vector<eth::Transaction> pending_snapshot() const;

  /// One uniformly random pending transaction, or nullptr when none are
  /// buffered. Draws a single index and walks to it in pending_snapshot()
  /// order, so `random_pending(rng)` selects exactly the transaction
  /// `pending_snapshot()[rng.index(pending_count())]` would — without
  /// copying the whole pool (the per-tick re-gossip path used to pay
  /// O(pool) copies for one pick). The pointer is invalidated by the next
  /// mutating call.
  const eth::Transaction* random_pending(util::Rng& rng) const;

  /// Drops every buffered transaction (a node crash/restart: real clients
  /// come back with an empty pool). Base-fee state is chain-derived and
  /// survives.
  void clear();

  /// Snapshot of future (queued) transactions.
  std::vector<eth::Transaction> future_snapshot() const;

  /// Snapshot of everything buffered.
  std::vector<eth::Transaction> all_snapshot() const;

  const MempoolPolicy& policy() const { return policy_; }

  /// Recomputes the bookkeeping from the account queues alone — pending
  /// count, per-account future counts, every entry's class against its
  /// account's classification nonce, and the live sizes of the transaction
  /// index and both price indexes — and aborts (in every build type) on
  /// the first disagreement. O(pool); for tests and debugging.
  void check_invariants() const;

 private:
  struct Entry {
    eth::Transaction tx;
    eth::TxHash hash = 0;  ///< tx.hash(), computed once per offer
    double added_at = 0.0;
    bool pending = false;
  };

  struct AccountQueue {
    /// Flat queue, ascending by tx.nonce. Accounts buffer a handful of
    /// entries at a time, so a sorted vector beats a node-based map on
    /// every nonce walk.
    std::vector<Entry> txs;
    size_t futures = 0;
    /// Chain nonce the pending flags were last computed against: the flags
    /// mark exactly the consecutive nonce run starting here. Once the
    /// chain's nonce for this sender differs (a block committed whose
    /// notification has not reached this pool yet), the flags are stale
    /// and only a full walk may reclassify the account.
    eth::Nonce classified_at = 0;

    std::vector<Entry>::iterator lower_bound(eth::Nonce n) {
      return std::lower_bound(txs.begin(), txs.end(), n,
                              [](const Entry& e, eth::Nonce v) { return e.tx.nonce < v; });
    }
    std::vector<Entry>::const_iterator lower_bound(eth::Nonce n) const {
      return std::lower_bound(txs.begin(), txs.end(), n,
                              [](const Entry& e, eth::Nonce v) { return e.tx.nonce < v; });
    }
    std::vector<Entry>::iterator find(eth::Nonce n) {
      auto it = lower_bound(n);
      return (it != txs.end() && it->tx.nonce == n) ? it : txs.end();
    }
    std::vector<Entry>::const_iterator find(eth::Nonce n) const {
      auto it = lower_bound(n);
      return (it != txs.end() && it->tx.nonce == n) ? it : txs.end();
    }
  };

  /// Where a buffered transaction lives: its account slot and nonce.
  struct TxLoc {
    uint32_t slot = 0;
    eth::Nonce nonce = 0;
  };

  /// Everything the pool buffers, in one copy-on-write blob. Mutating
  /// methods reach it through st_.mutate() exactly once, after every
  /// read-only early-out has passed, so pools that a forked world never
  /// writes to keep sharing the base world's pages.
  struct State {
    // Struct-of-arrays account storage. slot_addr[i] == kNoAddress marks a
    // free slot (recycled LIFO via free_slots); slot_of maps an address to
    // its slot for O(1) lookup. Iteration happens in slot order only.
    std::vector<eth::Address> slot_addr;
    std::vector<AccountQueue> slot_queue;
    std::vector<uint32_t> free_slots;
    util::FlatHashMap<uint32_t> slot_of;

    // Cheapest-first for eviction (see flat_index.h); keys carry the hash.
    FlatPriceIndex price_index;
    // Subset of price_index holding only future entries (truncation order).
    FlatPriceIndex future_index;
    // The one transaction index: content hash -> location. Serves the
    // duplicate probe, find_hash, and victims read from the price indexes.
    util::FlatHashMap<TxLoc> txs;
    size_t size = 0;
    size_t pending_count = 0;
    // Cheap guards so maintain() skips full scans (and, post-fork, the
    // copy-on-write clone) when nothing can have expired / the base fee
    // has not moved.
    double min_added_at = 0.0;
    bool min_added_valid = false;
    eth::Wei last_pruned_base_fee = 0;
  };

 public:
  /// O(1) capture of the pool's buffered content. The snapshot shares the
  /// state blob; either side clones lazily on its next write.
  struct Snapshot {
    util::Cow<State> state;
    eth::Wei base_fee = 0;
  };
  Snapshot snapshot() const { return Snapshot{st_, base_fee_}; }
  void restore(const Snapshot& snap) {
    st_ = snap.state;
    base_fee_ = snap.base_fee;
  }

 private:
  /// add() minus the accounting: the instrumented wrapper stays off the
  /// profile when obs_ is null.
  AdmitResult add_impl(const eth::Transaction& tx, eth::TxHash hash, double now);
  void record_admit(const eth::Transaction& tx, const AdmitResult& result, double now);

  static const AccountQueue* account(const State& s, eth::Address sender);
  /// Finds or allocates the slot for `sender`; a new account starts
  /// classified at `chain_next` (an empty queue is valid against any nonce).
  static uint32_t ensure_slot(State& s, eth::Address sender, eth::Nonce chain_next);
  /// Returns a slot to the free list (its queue must be empty).
  static void release_slot(State& s, uint32_t slot);

  static PriceKey key_of(const Entry& e) { return {e.tx.pool_price(), e.tx.id, e.hash}; }
  void promote(State& s, AccountQueue& q, Entry& e);
  void demote(State& s, AccountQueue& q, Entry& e);

  /// Full walk: recomputes every pending flag of a live account against the
  /// sender's current chain nonce, appending promotions to `promoted` when
  /// non-null.
  void reclassify(State& s, uint32_t slot, std::vector<eth::Transaction>* promoted);

  /// Classification after removing the entry at `nonce` from `slot`:
  /// demotes the pending run's tail behind a removed pending entry, or
  /// falls back to the full walk when the chain nonce has moved.
  void reclassify_after_remove(State& s, uint32_t slot, eth::Nonce nonce, bool was_pending);

  /// Removes one entry (must exist); does not reclassify. May release the
  /// slot.
  Entry remove_entry(State& s, uint32_t slot, eth::Nonce nonce);

  /// remove_entry + reclassify_after_remove.
  eth::Transaction drop(State& s, TxLoc loc);

  /// Chooses the eviction victim per policy; nullopt if no entry is cheaper
  /// than `incoming_price` (or, under futures-only eviction, no future is).
  std::optional<TxLoc> pick_victim(State& s, eth::Wei incoming_price, bool incoming_is_pending);

  /// Records an insertion time for the O(1) expiry guard.
  static void track_added_at(State& s, double now);

  // Flat-index tallies, passed per call (the indexes live inside the
  // copy-on-write state and hold no obs pointers of their own).
  obs::Counter* index_compactions() const {
    return obs_ != nullptr ? obs_->index_compactions : nullptr;
  }
  obs::Gauge* index_tombstone_peak() const {
    return obs_ != nullptr ? obs_->index_tombstone_peak : nullptr;
  }

  MempoolPolicy policy_;
  const eth::StateView* state_;
  const PoolObs* obs_ = nullptr;
  eth::Wei base_fee_ = 0;

  util::Cow<State> st_;
};

}  // namespace topo::mempool
