#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
/// for what left the pool (an admission displaces at most one victim);
/// `promoted` lists futures that this admission made executable (the node
/// must propagate those too, as real clients do). `promoted` views a buffer
/// the pool reuses: it is valid until the pool's next mutating call.
struct AdmitResult {
  AdmitCode code = AdmitCode::kRejectedDuplicate;
  std::optional<eth::Transaction> evicted;
  std::optional<eth::Transaction> replaced;
  std::span<const eth::Transaction> promoted;

  /// True if the transaction now sits in the pool as pending (and should be
  /// propagated).
  bool admitted_pending() const {
    return code == AdmitCode::kAddedPending || code == AdmitCode::kReplaced;
  }
  bool admitted() const { return admitted_pending() || code == AdmitCode::kAddedFuture; }
};

/// Changes made by maintenance or a block commit. Both views point into
/// buffers the pool reuses: they are valid until its next mutating call.
struct PoolUpdate {
  std::span<const eth::Transaction> dropped;   ///< truncated / expired / mined / stale
  std::span<const eth::Transaction> promoted;  ///< future -> pending transitions
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
/// Storage layout: all bulk state lives in one `State` blob behind a
/// copy-on-write handle (util::Cow). `snapshot()` captures the pool in O(1);
/// a restored pool shares the blob with its base until the first mutation,
/// which clones it once. Entries sit in one pool-owned slab with an
/// intrusive free list; an account's queue is a nonce-ordered run of slab
/// indices linked through the entries, the transaction index maps a
/// content hash to a slab index, and the price indexes are indexed heaps
/// of slab indices. A clone therefore copies a few flat arrays, and a
/// steady admit/evict cycle reuses freed slab entries without allocating.
/// Accounts live in a slot table with a LIFO free list, so account
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

  /// Cheapest pool price currently buffered (0 when empty). Reads the
  /// price index, which is physically const, so it is safe on a state
  /// shared with forks.
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
  /// account's classification nonce, the slab free list, each queue run's
  /// links, the transaction index, and both price indexes' membership,
  /// keys and positions — and aborts (in every build type) on the first
  /// disagreement. O(pool); for tests and debugging.
  void check_invariants() const;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One slab entry. A free entry has `slot == kNil` and threads the free
  /// list through `next`.
  struct Entry {
    eth::Transaction tx;
    eth::TxHash hash = 0;  ///< tx.hash(), computed once per offer
    double added_at = 0.0;
    uint32_t slot = kNil;  ///< owning account slot
    uint32_t prev = kNil;  ///< lower-nonce neighbour in the account's run
    uint32_t next = kNil;  ///< higher-nonce neighbour (free list link when free)
    bool pending = false;
  };

  /// One account slot: the ends of its nonce-ordered run of slab entries.
  /// `addr == kNoAddress` marks a free slot (its run is empty).
  struct Account {
    eth::Address addr = eth::kNoAddress;
    uint32_t head = kNil;  ///< lowest nonce
    uint32_t tail = kNil;  ///< highest nonce
    uint32_t futures = 0;
    /// Chain nonce the pending flags were last computed against: the flags
    /// mark exactly the consecutive nonce run starting here. Once the
    /// chain's nonce for this sender differs (a block committed whose
    /// notification has not reached this pool yet), the flags are stale
    /// and only a full walk may reclassify the account.
    eth::Nonce classified_at = 0;
  };

  /// Everything the pool buffers, in one copy-on-write blob. Mutating
  /// methods reach it through st_.mutate() exactly once, after every
  /// read-only early-out has passed, so pools that a forked world never
  /// writes to keep sharing the base world's pages.
  struct State {
    std::vector<Entry> entries;   ///< the slab
    uint32_t free_entry = kNil;   ///< head of the slab's free list
    // Account slots, recycled LIFO via free_slots; slot_of maps an address
    // to its slot for O(1) lookup. Iteration happens in slot order only.
    std::vector<Account> slots;
    std::vector<uint32_t> free_slots;
    util::FlatHashMap<uint32_t> slot_of;

    // Cheapest-first for eviction (see flat_index.h).
    FlatPriceIndex price_index;
    // Subset of price_index holding only future entries (truncation order).
    FlatPriceIndex future_index;
    // The one transaction index: content hash -> slab index. Serves the
    // duplicate probe and find_hash.
    util::FlatHashMap<uint32_t> txs;
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
  void record_admit(const AdmitResult& result);

  static const Account* account(const State& s, eth::Address sender);
  /// Finds or allocates the slot for `sender`; a new account starts
  /// classified at `chain_next` (an empty queue is valid against any nonce).
  static uint32_t ensure_slot(State& s, eth::Address sender, eth::Nonce chain_next);
  /// Returns a slot to the free list (its run must be empty).
  static void release_slot(State& s, uint32_t slot);

  /// First entry of `a`'s run with nonce >= `n`, or kNil.
  static uint32_t lower_bound(const State& s, const Account& a, eth::Nonce n);

  /// Calls `fn(entry)` for every buffered entry in slot order, each
  /// account's run in nonce order.
  template <typename Fn>
  static void for_each_entry(const State& s, Fn&& fn) {
    for (const Account& a : s.slots) {
      for (uint32_t i = a.head; i != kNil; i = s.entries[i].next) fn(s.entries[i]);
    }
  }

  static PriceKey key_of(const Entry& e) { return {e.tx.pool_price(), e.tx.id, e.hash}; }
  static void promote(State& s, uint32_t e);
  static void demote(State& s, uint32_t e);

  /// Full walk: recomputes every pending flag of a live account against the
  /// sender's current chain nonce, appending promotions to `promoted` when
  /// non-null.
  void reclassify(State& s, uint32_t slot, std::vector<eth::Transaction>* promoted);

  /// Classification after removing an entry from `slot`, whose run now
  /// continues at `follower`: demotes the pending run's tail behind a
  /// removed pending entry, or falls back to the full walk when the chain
  /// nonce has moved.
  void reclassify_after_remove(State& s, uint32_t slot, uint32_t follower, bool was_pending);

  /// Unlinks slab entry `e` from its account and every index and frees it;
  /// does not reclassify. May release the slot. Returns the entry that
  /// followed it in the run (kNil if none).
  static uint32_t remove_entry(State& s, uint32_t e);

  /// remove_entry + reclassify_after_remove.
  void drop(State& s, uint32_t e);

  /// Chooses the eviction victim per policy; kNil if no entry is cheaper
  /// than `incoming_price` (or, under futures-only eviction, no future is).
  uint32_t pick_victim(const State& s, eth::Wei incoming_price, bool incoming_is_pending) const;

  /// Records an insertion time for the O(1) expiry guard.
  static void track_added_at(State& s, double now);

  MempoolPolicy policy_;
  const eth::StateView* state_;
  const PoolObs* obs_ = nullptr;
  eth::Wei base_fee_ = 0;

  util::Cow<State> st_;

  // Reused per-call buffers (outside the shared state: each world's pool
  // owns its own). AdmitResult/PoolUpdate views point into the first two.
  std::vector<eth::Transaction> promoted_;
  std::vector<eth::Transaction> dropped_;
  std::vector<uint32_t> scratch_;
};

}  // namespace topo::mempool
