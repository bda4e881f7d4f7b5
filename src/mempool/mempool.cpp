#include "mempool/mempool.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace topo::mempool {

const char* admit_code_name(AdmitCode code) {
  switch (code) {
    case AdmitCode::kAddedPending: return "added-pending";
    case AdmitCode::kAddedFuture: return "added-future";
    case AdmitCode::kReplaced: return "replaced";
    case AdmitCode::kRejectedDuplicate: return "rejected-duplicate";
    case AdmitCode::kRejectedStaleNonce: return "rejected-stale-nonce";
    case AdmitCode::kRejectedUnderpricedReplacement: return "rejected-underpriced-replacement";
    case AdmitCode::kRejectedPoolFull: return "rejected-pool-full";
    case AdmitCode::kRejectedEvictionForbidden: return "rejected-eviction-forbidden";
    case AdmitCode::kRejectedFutureLimit: return "rejected-future-limit";
    case AdmitCode::kRejectedUnderBaseFee: return "rejected-under-base-fee";
  }
  return "?";
}

PoolObs PoolObs::wire(obs::MetricsRegistry& reg) {
  PoolObs o;
  o.admits_pending = &reg.counter("mempool.admits.pending");
  o.admits_future = &reg.counter("mempool.admits.future");
  o.replacements = &reg.counter("mempool.replacements");
  o.rejects = &reg.counter("mempool.rejects");
  o.evictions = &reg.counter("mempool.evictions");
  o.evictions_price = &reg.counter("mempool.evictions.price");
  o.evictions_truncated = &reg.counter("mempool.evictions.truncated");
  o.evictions_expired = &reg.counter("mempool.evictions.expired");
  o.evictions_basefee = &reg.counter("mempool.evictions.basefee");
  o.drops_mined = &reg.counter("mempool.drops.mined");
  o.occupancy = &reg.histogram("mempool.occupancy", obs::fraction_bounds());
  return o;
}

Mempool::Mempool(MempoolPolicy policy, const eth::StateView* state)
    : policy_(policy), state_(state) {
  assert(state_ != nullptr);
}

const Mempool::Account* Mempool::account(const State& s, eth::Address sender) {
  const uint32_t* slot = s.slot_of.find(sender);
  return slot == nullptr ? nullptr : &s.slots[*slot];
}

uint32_t Mempool::ensure_slot(State& s, eth::Address sender, eth::Nonce chain_next) {
  if (const uint32_t* found = s.slot_of.find(sender)) return *found;
  uint32_t slot;
  if (!s.free_slots.empty()) {
    slot = s.free_slots.back();
    s.free_slots.pop_back();
  } else {
    slot = static_cast<uint32_t>(s.slots.size());
    s.slots.emplace_back();
  }
  s.slot_of.insert(sender, slot);
  s.slots[slot].addr = sender;
  s.slots[slot].classified_at = chain_next;
  return slot;
}

void Mempool::release_slot(State& s, uint32_t slot) {
  assert(s.slots[slot].head == kNil);
  s.slot_of.erase(s.slots[slot].addr);
  s.slots[slot] = Account{};
  s.free_slots.push_back(slot);
}

uint32_t Mempool::lower_bound(const State& s, const Account& a, eth::Nonce n) {
  // Runs are short and offers mostly extend them, so check the tail first.
  if (a.tail == kNil || s.entries[a.tail].tx.nonce < n) return kNil;
  uint32_t i = a.head;
  while (s.entries[i].tx.nonce < n) i = s.entries[i].next;
  return i;
}

void Mempool::promote(State& s, uint32_t e) {
  Entry& entry = s.entries[e];
  Account& a = s.slots[entry.slot];
  assert(!entry.pending && a.futures > 0);
  entry.pending = true;
  ++s.pending_count;
  --a.futures;
  s.future_index.erase(e);
}

void Mempool::demote(State& s, uint32_t e) {
  Entry& entry = s.entries[e];
  assert(entry.pending && s.pending_count > 0);
  entry.pending = false;
  --s.pending_count;
  ++s.slots[entry.slot].futures;
  s.future_index.insert(key_of(entry), e);
}

void Mempool::reclassify(State& s, uint32_t slot, std::vector<eth::Transaction>* promoted) {
  Account& a = s.slots[slot];
  eth::Nonce expected = state_->next_nonce(a.addr);
  a.classified_at = expected;
  for (uint32_t i = a.head; i != kNil; i = s.entries[i].next) {
    const Entry& e = s.entries[i];
    const bool now_pending = (e.tx.nonce == expected);
    if (now_pending) ++expected;
    if (now_pending && !e.pending) {
      promote(s, i);
      if (promoted) promoted->push_back(e.tx);
    } else if (!now_pending && e.pending) {
      demote(s, i);
    }
  }
}

void Mempool::reclassify_after_remove(State& s, uint32_t slot, uint32_t follower,
                                      bool was_pending) {
  const Account& a = s.slots[slot];
  if (a.addr == eth::kNoAddress) return;  // the removal emptied the account
  if (a.classified_at != state_->next_nonce(a.addr)) {
    reclassify(s, slot, nullptr);
    return;
  }
  // The pending entries are the consecutive run from classified_at. A
  // removed future leaves it intact; a removed pending entry cuts it, and
  // everything of the run behind the gap becomes future, in nonce order.
  if (!was_pending) return;
  for (uint32_t i = follower; i != kNil && s.entries[i].pending; i = s.entries[i].next) {
    demote(s, i);
  }
}

uint32_t Mempool::remove_entry(State& s, uint32_t e) {
  Entry& entry = s.entries[e];
  const uint32_t slot = entry.slot;
  Account& a = s.slots[slot];
  if (entry.pending) {
    --s.pending_count;
  } else {
    assert(a.futures > 0 && "account future count drifted");
    --a.futures;
    s.future_index.erase(e);
  }
  s.price_index.erase(e);
  s.txs.erase(entry.hash);
  const uint32_t follower = entry.next;
  (entry.prev == kNil ? a.head : s.entries[entry.prev].next) = entry.next;
  (entry.next == kNil ? a.tail : s.entries[entry.next].prev) = entry.prev;
  entry.slot = kNil;
  entry.prev = kNil;
  entry.next = s.free_entry;
  s.free_entry = e;
  if (a.head == kNil) release_slot(s, slot);
  --s.size;
  return follower;
}

void Mempool::drop(State& s, uint32_t e) {
  const uint32_t slot = s.entries[e].slot;
  const bool was_pending = s.entries[e].pending;
  const uint32_t follower = remove_entry(s, e);
  reclassify_after_remove(s, slot, follower, was_pending);
}

uint32_t Mempool::pick_victim(const State& s, eth::Wei incoming_price,
                              bool incoming_is_pending) const {
  // Futures-only eviction: a future incomer may never displace a pending
  // transaction (the DETER countermeasure; defeats TopoShot's flood).
  const FlatPriceIndex& index =
      (policy_.victim == EvictionVictim::kFuturesFirst && !incoming_is_pending)
          ? s.future_index
          : s.price_index;
  if (index.empty() || index.min().price >= incoming_price) return kNil;
  return index.min_entry();
}

AdmitResult Mempool::add(const eth::Transaction& tx, eth::TxHash hash, double now) {
  assert(hash == tx.hash());
  AdmitResult result = add_impl(tx, hash, now);
  if (obs_ != nullptr) record_admit(result);
  return result;
}

void Mempool::record_admit(const AdmitResult& result) {
  switch (result.code) {
    case AdmitCode::kAddedPending: obs_->admits_pending->inc(); break;
    case AdmitCode::kAddedFuture: obs_->admits_future->inc(); break;
    case AdmitCode::kReplaced: obs_->replacements->inc(); break;
    default: obs_->rejects->inc(); break;
  }
  if (result.evicted) {
    obs_->evictions->inc();
    obs_->evictions_price->inc();
  }
}

AdmitResult Mempool::add_impl(const eth::Transaction& tx, eth::TxHash hash, double now) {
  AdmitResult result;

  // Read-only early-outs run against the shared state: a forked pool that
  // only ever rejects never clones its base.
  const State& cs = *st_;
  if (cs.txs.find(hash) != nullptr) {
    result.code = AdmitCode::kRejectedDuplicate;
    return result;
  }
  if (policy_.eip1559 && tx.fee1559 && tx.fee1559->max_fee < base_fee_) {
    result.code = AdmitCode::kRejectedUnderBaseFee;
    return result;
  }
  const eth::Nonce chain_next = state_->next_nonce(tx.sender);
  if (tx.nonce < chain_next) {
    result.code = AdmitCode::kRejectedStaleNonce;
    return result;
  }

  const Account* ca = account(cs, tx.sender);
  if (ca != nullptr) {
    const uint32_t at = lower_bound(cs, *ca, tx.nonce);
    if (at != kNil && cs.entries[at].tx.nonce == tx.nonce) {
      // Replacement path: same sender and nonce (§2 event 1b).
      if (!policy_.accepts_replacement(cs.entries[at].tx.pool_price(), tx.pool_price())) {
        result.code = AdmitCode::kRejectedUnderpricedReplacement;
        return result;
      }
      State& s = st_.mutate();
      Entry& old = s.entries[at];
      result.replaced = old.tx;
      s.price_index.erase(at);
      if (!old.pending) s.future_index.erase(at);
      s.txs.erase(old.hash);
      old.tx = tx;
      old.hash = hash;
      old.added_at = now;
      s.price_index.insert(key_of(old), at);
      if (!old.pending) s.future_index.insert(key_of(old), at);
      s.txs.insert(hash, at);
      track_added_at(s, now);
      result.code = AdmitCode::kReplaced;
      return result;
    }
  }

  // Fresh entry: decide pending vs future by the consecutive-nonce rule.
  bool is_pending = (tx.nonce == chain_next);
  if (!is_pending && ca != nullptr) {
    // Pending if every nonce in [chain_next, tx.nonce) is already buffered.
    eth::Nonce expected = chain_next;
    for (uint32_t i = lower_bound(cs, *ca, chain_next);
         i != kNil && cs.entries[i].tx.nonce == expected && expected < tx.nonce;
         i = cs.entries[i].next) {
      ++expected;
    }
    is_pending = (expected == tx.nonce);
  }

  if (!is_pending) {
    const size_t have = ca != nullptr ? ca->futures : 0;
    if (have >= policy_.max_futures_per_account) {
      result.code = AdmitCode::kRejectedFutureLimit;
      return result;
    }
  }
  uint32_t victim = kNil;
  if (cs.size >= policy_.capacity) {
    if (!is_pending && cs.pending_count < policy_.min_pending_for_eviction) {
      // Eviction gate (§2 event 1a): a future incomer additionally requires
      // at least P pending transactions in the pool.
      result.code = AdmitCode::kRejectedEvictionForbidden;
      return result;
    }
    victim = pick_victim(cs, tx.pool_price(), is_pending);
    if (victim == kNil && is_pending && !cs.future_index.empty()) {
      // Executable transactions outrank queued ones: when the pool is full
      // and nothing is cheaper, a pending incomer still displaces the
      // cheapest *future* (Geth's pending/queue split — the queue is
      // second-class and would be truncated by the next reorg anyway).
      victim = cs.future_index.min_entry();
    }
    if (victim == kNil) {
      result.code = AdmitCode::kRejectedPoolFull;
      return result;
    }
  }

  // Every remaining outcome mutates.
  State& s = st_.mutate();
  promoted_.clear();
  // is_pending was judged on the incomer's account as it stood; evicting
  // one of that account's own entries invalidates it.
  bool full_walk = false;
  if (victim != kNil) {
    result.evicted = s.entries[victim].tx;
    if (result.evicted->sender == tx.sender) {
      remove_entry(s, victim);
      full_walk = true;
    } else {
      // Removing a mid-queue pending entry demotes its followers.
      drop(s, victim);
    }
  }

  const uint32_t slot = ensure_slot(s, tx.sender, chain_next);
  const uint32_t before = lower_bound(s, s.slots[slot], tx.nonce);
  uint32_t e;
  if (s.free_entry != kNil) {
    e = s.free_entry;
    s.free_entry = s.entries[e].next;
  } else {
    e = static_cast<uint32_t>(s.entries.size());
    s.entries.emplace_back();
  }
  Account& a = s.slots[slot];
  Entry& entry = s.entries[e];
  entry.tx = tx;
  entry.hash = hash;
  entry.added_at = now;
  entry.slot = slot;
  entry.pending = false;  // admitted as future; promoted below if it extends the run
  entry.next = before;
  entry.prev = before == kNil ? a.tail : s.entries[before].prev;
  (entry.prev == kNil ? a.head : s.entries[entry.prev].next) = e;
  (before == kNil ? a.tail : s.entries[before].prev) = e;
  ++a.futures;
  s.price_index.insert(key_of(entry), e);
  s.future_index.insert(key_of(entry), e);
  s.txs.insert(hash, e);
  ++s.size;
  track_added_at(s, now);

  bool self_pending = false;
  if (full_walk || a.classified_at != chain_next) {
    // Stale flags (the chain moved since this account was classified) or
    // a same-account eviction: recompute the whole account. The incoming
    // tx itself is not a "promotion"; separate it out.
    reclassify(s, slot, &promoted_);
    self_pending = s.entries[e].pending;
    std::erase_if(promoted_, [&](const eth::Transaction& p) { return p.nonce == tx.nonce; });
  } else if (is_pending) {
    // The incomer extends the pending run; the futures queued right
    // behind it, up to the next gap, join the run too.
    promote(s, e);
    self_pending = true;
    eth::Nonce expected = tx.nonce + 1;
    for (uint32_t i = s.entries[e].next; i != kNil && s.entries[i].tx.nonce == expected;
         i = s.entries[i].next, ++expected) {
      promote(s, i);
      promoted_.push_back(s.entries[i].tx);
    }
  }
  result.promoted = promoted_;
  result.code = self_pending ? AdmitCode::kAddedPending : AdmitCode::kAddedFuture;
  return result;
}

void Mempool::track_added_at(State& s, double now) {
  if (!s.min_added_valid || now < s.min_added_at) {
    s.min_added_at = now;
    s.min_added_valid = true;
  }
}

PoolUpdate Mempool::maintain(double now) {
  dropped_.clear();
  promoted_.clear();
  const State& cs = *st_;
  if (obs_ != nullptr && obs_->occupancy != nullptr && policy_.capacity > 0) {
    obs_->occupancy->observe(static_cast<double>(cs.size) /
                             static_cast<double>(policy_.capacity));
  }

  // Each phase checks its guard against the shared state first; the idle
  // maintenance tick of an untouched forked pool stays read-only (no
  // copy-on-write clone).

  // Drops the entries collected in scratch_ (slot order, nonce order).
  const auto drop_scratch = [this](State& s) {
    for (uint32_t e : scratch_) {
      dropped_.push_back(s.entries[e].tx);
      drop(s, e);
    }
  };

  // 1. Expiry (Geth drops unconfirmed transactions after e hours). The
  // min_added_at guard makes the common no-expiry call O(1).
  if (policy_.expiry_seconds > 0.0 && cs.min_added_valid &&
      cs.min_added_at + policy_.expiry_seconds <= now) {
    State& s = st_.mutate();
    scratch_.clear();
    double oldest_remaining = now;
    for (const Account& a : s.slots) {
      for (uint32_t i = a.head; i != kNil; i = s.entries[i].next) {
        const Entry& e = s.entries[i];
        if (e.added_at + policy_.expiry_seconds <= now) {
          scratch_.push_back(i);
        } else {
          oldest_remaining = std::min(oldest_remaining, e.added_at);
        }
      }
    }
    drop_scratch(s);
    if (obs_ != nullptr && !scratch_.empty()) {
      obs_->evictions->inc(scratch_.size());
      obs_->evictions_expired->inc(scratch_.size());
    }
    s.min_added_at = oldest_remaining;
    s.min_added_valid = s.size > 0;
  }

  // 2. EIP-1559: entries whose max fee fell below the base fee are dropped.
  // Only rescanned when the base fee actually moved.
  if (policy_.eip1559 && base_fee_ > 0 && base_fee_ != cs.last_pruned_base_fee) {
    State& s = st_.mutate();
    scratch_.clear();
    for (const Account& a : s.slots) {
      for (uint32_t i = a.head; i != kNil; i = s.entries[i].next) {
        const eth::Transaction& tx = s.entries[i].tx;
        if (tx.fee1559 && tx.fee1559->max_fee < base_fee_) scratch_.push_back(i);
      }
    }
    drop_scratch(s);
    if (obs_ != nullptr && !scratch_.empty()) {
      obs_->evictions->inc(scratch_.size());
      obs_->evictions_basefee->inc(scratch_.size());
    }
    s.last_pruned_base_fee = base_fee_;
  }

  // 3. Future-subpool truncation to future_cap, cheapest first.
  size_t truncated = 0;
  if (st_->size - st_->pending_count > policy_.future_cap && !st_->future_index.empty()) {
    State& s = st_.mutate();
    while (s.size - s.pending_count > policy_.future_cap && !s.future_index.empty()) {
      const uint32_t e = s.future_index.min_entry();
      dropped_.push_back(s.entries[e].tx);
      drop(s, e);
      ++truncated;
    }
  }
  if (obs_ != nullptr && truncated > 0) {
    obs_->evictions->inc(truncated);
    obs_->evictions_truncated->inc(truncated);
  }

  return PoolUpdate{dropped_, promoted_};
}

PoolUpdate Mempool::on_block(const std::vector<eth::Address>& senders) {
  dropped_.clear();
  promoted_.clear();

  // Only the named senders' chain nonces moved, so only their accounts can
  // hold stale entries or stale classes. Visit them in slot order — the
  // order promotions propagate in and released slots join the free list.
  const State& cs = *st_;
  scratch_.clear();
  for (eth::Address sender : senders) {
    if (const uint32_t* slot = cs.slot_of.find(sender)) scratch_.push_back(*slot);
  }
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()), scratch_.end());

  // Read-only pre-check: pools the blocks leave untouched skip the
  // copy-on-write clone entirely.
  const auto dirty = [&](uint32_t slot) {
    const Account& a = cs.slots[slot];
    eth::Nonce expected = state_->next_nonce(a.addr);
    for (uint32_t i = a.head; i != kNil; i = cs.entries[i].next) {
      const Entry& e = cs.entries[i];
      if (e.tx.nonce < expected) return true;  // stale entry to drop
      const bool now_pending = (e.tx.nonce == expected);
      if (now_pending) ++expected;
      if (now_pending != e.pending) return true;  // promotion/demotion
    }
    return false;
  };
  if (std::none_of(scratch_.begin(), scratch_.end(), dirty)) return PoolUpdate{};

  // Drop entries the chain has consumed (mined or made stale), then re-run
  // the account's classification to promote unblocked futures.
  State& s = st_.mutate();
  for (uint32_t slot : scratch_) {
    const eth::Nonce next = state_->next_nonce(s.slots[slot].addr);
    while (s.slots[slot].head != kNil && s.entries[s.slots[slot].head].tx.nonce < next) {
      const uint32_t head = s.slots[slot].head;
      dropped_.push_back(s.entries[head].tx);
      remove_entry(s, head);
    }
    if (s.slots[slot].head != kNil) reclassify(s, slot, &promoted_);
  }
  if (obs_ != nullptr && !dropped_.empty()) obs_->drops_mined->inc(dropped_.size());
  return PoolUpdate{dropped_, promoted_};
}

const eth::Transaction* Mempool::find(eth::Address sender, eth::Nonce nonce) const {
  const State& s = *st_;
  const Account* a = account(s, sender);
  if (a == nullptr) return nullptr;
  const uint32_t i = lower_bound(s, *a, nonce);
  return (i != kNil && s.entries[i].tx.nonce == nonce) ? &s.entries[i].tx : nullptr;
}

const eth::Transaction* Mempool::find_hash(eth::TxHash h) const {
  const State& s = *st_;
  const uint32_t* e = s.txs.find(h);
  return e == nullptr ? nullptr : &s.entries[*e].tx;
}

size_t Mempool::futures_of(eth::Address sender) const {
  const Account* a = account(*st_, sender);
  return a == nullptr ? 0 : a->futures;
}

eth::Wei Mempool::lowest_price() const {
  const State& s = *st_;
  return s.price_index.empty() ? 0 : s.price_index.min().price;
}

eth::Wei Mempool::median_pending_price() const {
  const State& s = *st_;
  std::vector<eth::Wei> prices;
  prices.reserve(s.pending_count);
  for_each_entry(s, [&](const Entry& e) {
    if (e.pending) prices.push_back(e.tx.pool_price());
  });
  if (prices.empty()) return 0;
  std::sort(prices.begin(), prices.end());
  return prices[prices.size() / 2];
}

std::vector<eth::Transaction> Mempool::pending_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.pending_count);
  for_each_entry(s, [&](const Entry& e) {
    if (e.pending) out.push_back(e.tx);
  });
  return out;
}

const eth::Transaction* Mempool::random_pending(util::Rng& rng) const {
  const State& s = *st_;
  if (s.pending_count == 0) return nullptr;
  size_t k = rng.index(s.pending_count);
  // Same iteration order as pending_snapshot(), so the k-th pending entry
  // here is the entry snapshot[k] would hold.
  for (const Account& a : s.slots) {
    for (uint32_t i = a.head; i != kNil; i = s.entries[i].next) {
      if (!s.entries[i].pending) continue;
      if (k == 0) return &s.entries[i].tx;
      --k;
    }
  }
  return nullptr;  // unreachable while pending_count is consistent
}

void Mempool::clear() {
  // A fresh handle instead of clearing in place: drops the shared base
  // world's pages instantly and releases every allocation.
  st_ = util::Cow<State>();
}

std::vector<eth::Transaction> Mempool::future_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.size - s.pending_count);
  for_each_entry(s, [&](const Entry& e) {
    if (!e.pending) out.push_back(e.tx);
  });
  return out;
}

std::vector<eth::Transaction> Mempool::all_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.size);
  for_each_entry(s, [&](const Entry& e) { out.push_back(e.tx); });
  return out;
}

void Mempool::check_invariants() const {
  const auto require = [](bool ok, const char* what) {
    if (ok) return;
    std::fprintf(stderr, "Mempool invariant violated: %s\n", what);
    std::abort();
  };
  const State& s = *st_;
  size_t size = 0;
  size_t pending = 0;
  size_t live_slots = 0;
  for (uint32_t slot = 0; slot < s.slots.size(); ++slot) {
    const Account& a = s.slots[slot];
    if (a.addr == eth::kNoAddress) {
      require(a.head == kNil && a.tail == kNil, "a free slot holds entries");
      continue;
    }
    ++live_slots;
    const uint32_t* mapped = s.slot_of.find(a.addr);
    require(mapped != nullptr && *mapped == slot, "slot_of disagrees with the slot table");
    require(a.head != kNil, "a live slot has an empty run");
    eth::Nonce expected = a.classified_at;
    size_t futures = 0;
    uint32_t prev = kNil;
    for (uint32_t i = a.head; i != kNil; prev = i, i = s.entries[i].next) {
      require(i < s.entries.size(), "a run links outside the slab");
      require(size < s.entries.size(), "a run has a cycle");
      const Entry& e = s.entries[i];
      require(e.slot == slot, "an entry's slot differs from the run holding it");
      require(e.prev == prev, "a run's back link is broken");
      require(e.tx.sender == a.addr, "an entry is filed under another sender");
      require(prev == kNil || s.entries[prev].tx.nonce < e.tx.nonce,
              "a run is not nonce-ascending");
      require(e.hash == e.tx.hash(), "a stored hash differs from the content hash");
      const uint32_t* indexed = s.txs.find(e.hash);
      require(indexed != nullptr && *indexed == i, "the transaction index disagrees with the runs");
      require(s.price_index.contains(i) && s.price_index.key_of(i) == key_of(e),
              "the price index misfiles an entry");
      require(s.future_index.contains(i) == !e.pending &&
                  (e.pending || s.future_index.key_of(i) == key_of(e)),
              "the future index misfiles an entry");
      const bool in_run = (e.tx.nonce == expected);
      if (in_run) ++expected;
      require(e.pending == in_run, "a pending flag differs from the classified nonce run");
      if (e.pending) ++pending;
      else ++futures;
      ++size;
    }
    require(a.tail == prev, "a run's tail is not its last entry");
    require(a.futures == futures, "an account's future count drifted");
  }
  size_t free_entries = 0;
  for (uint32_t i = s.free_entry; i != kNil; i = s.entries[i].next) {
    require(i < s.entries.size(), "the free list links outside the slab");
    require(free_entries < s.entries.size(), "the free list has a cycle");
    require(s.entries[i].slot == kNil, "a free-listed entry belongs to an account");
    ++free_entries;
  }
  require(free_entries + size == s.entries.size(), "the slab free list drifted");
  require(size == s.size, "the pool size drifted");
  require(pending == s.pending_count, "the pending count drifted");
  require(s.txs.size() == size, "the transaction index size drifted");
  require(s.price_index.size() == size, "the price index size drifted");
  require(s.future_index.size() == size - pending, "the future index size drifted");
  require(s.price_index.consistent() && s.future_index.consistent(),
          "a price index's heap order or positions drifted");
  require(s.slot_of.size() == live_slots, "the slot table size drifted");
  require(s.free_slots.size() + live_slots == s.slots.size(), "the free list drifted");
}

}  // namespace topo::mempool
