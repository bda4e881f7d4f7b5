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
  o.index_compactions = &reg.counter("mempool.index.compactions");
  o.index_tombstone_peak = &reg.gauge("mempool.index.tombstone_peak");
  o.trace = &reg.trace();
  return o;
}

Mempool::Mempool(MempoolPolicy policy, const eth::StateView* state)
    : policy_(policy), state_(state) {
  assert(state_ != nullptr);
}

const Mempool::AccountQueue* Mempool::account(const State& s, eth::Address sender) {
  const uint32_t* slot = s.slot_of.find(sender);
  return slot == nullptr ? nullptr : &s.slot_queue[*slot];
}

uint32_t Mempool::ensure_slot(State& s, eth::Address sender, eth::Nonce chain_next) {
  if (const uint32_t* found = s.slot_of.find(sender)) return *found;
  uint32_t slot;
  if (!s.free_slots.empty()) {
    slot = s.free_slots.back();
    s.free_slots.pop_back();
    s.slot_addr[slot] = sender;
  } else {
    slot = static_cast<uint32_t>(s.slot_addr.size());
    s.slot_addr.push_back(sender);
    s.slot_queue.emplace_back();
  }
  s.slot_of.insert(sender, slot);
  s.slot_queue[slot].classified_at = chain_next;
  return slot;
}

void Mempool::release_slot(State& s, uint32_t slot) {
  assert(s.slot_queue[slot].txs.empty());
  s.slot_of.erase(s.slot_addr[slot]);
  s.slot_addr[slot] = eth::kNoAddress;
  s.slot_queue[slot] = AccountQueue{};  // release the queue's allocation
  s.free_slots.push_back(slot);
}

void Mempool::promote(State& s, AccountQueue& q, Entry& e) {
  assert(!e.pending && q.futures > 0);
  e.pending = true;
  ++s.pending_count;
  --q.futures;
  s.future_index.erase(key_of(e), index_compactions(), index_tombstone_peak());
}

void Mempool::demote(State& s, AccountQueue& q, Entry& e) {
  assert(e.pending && s.pending_count > 0);
  e.pending = false;
  --s.pending_count;
  ++q.futures;
  s.future_index.insert(key_of(e));
}

void Mempool::reclassify(State& s, uint32_t slot, std::vector<eth::Transaction>* promoted) {
  AccountQueue& q = s.slot_queue[slot];
  eth::Nonce expected = state_->next_nonce(s.slot_addr[slot]);
  q.classified_at = expected;
  for (Entry& e : q.txs) {
    const bool now_pending = (e.tx.nonce == expected);
    if (now_pending) ++expected;
    if (now_pending && !e.pending) {
      promote(s, q, e);
      if (promoted) promoted->push_back(e.tx);
    } else if (!now_pending && e.pending) {
      demote(s, q, e);
    }
  }
}

void Mempool::reclassify_after_remove(State& s, uint32_t slot, eth::Nonce nonce,
                                      bool was_pending) {
  if (s.slot_addr[slot] == eth::kNoAddress) return;  // the removal emptied the account
  AccountQueue& q = s.slot_queue[slot];
  if (q.classified_at != state_->next_nonce(s.slot_addr[slot])) {
    reclassify(s, slot, nullptr);
    return;
  }
  // The pending entries are the consecutive run from classified_at. A
  // removed future leaves it intact; a removed pending entry cuts it, and
  // everything of the run behind the gap becomes future, in nonce order.
  if (!was_pending) return;
  for (auto it = q.lower_bound(nonce); it != q.txs.end() && it->pending; ++it) demote(s, q, *it);
}

Mempool::Entry Mempool::remove_entry(State& s, uint32_t slot, eth::Nonce nonce) {
  AccountQueue& q = s.slot_queue[slot];
  auto eit = q.find(nonce);
  assert(eit != q.txs.end());
  Entry entry = std::move(*eit);
  if (entry.pending) {
    --s.pending_count;
  } else {
    assert(q.futures > 0 && "account future count drifted");
    --q.futures;
    s.future_index.erase(key_of(entry), index_compactions(), index_tombstone_peak());
  }
  s.price_index.erase(key_of(entry), index_compactions(), index_tombstone_peak());
  s.txs.erase(entry.hash);
  q.txs.erase(eit);
  if (q.txs.empty()) release_slot(s, slot);
  --s.size;
  return entry;
}

eth::Transaction Mempool::drop(State& s, TxLoc loc) {
  Entry entry = remove_entry(s, loc.slot, loc.nonce);
  reclassify_after_remove(s, loc.slot, loc.nonce, entry.pending);
  return std::move(entry.tx);
}

std::optional<Mempool::TxLoc> Mempool::pick_victim(State& s, eth::Wei incoming_price,
                                                   bool incoming_is_pending) {
  // Futures-only eviction: a future incomer may never displace a pending
  // transaction (the DETER countermeasure; defeats TopoShot's flood).
  FlatPriceIndex& index =
      (policy_.victim == EvictionVictim::kFuturesFirst && !incoming_is_pending)
          ? s.future_index
          : s.price_index;
  if (index.empty()) return std::nullopt;
  const PriceKey key = index.min();
  if (key.price >= incoming_price) return std::nullopt;
  return *s.txs.find(key.hash);
}

AdmitResult Mempool::add(const eth::Transaction& tx, eth::TxHash hash, double now) {
  assert(hash == tx.hash());
  AdmitResult result = add_impl(tx, hash, now);
  if (obs_ != nullptr) record_admit(tx, result, now);
  return result;
}

void Mempool::record_admit(const eth::Transaction& tx, const AdmitResult& result, double now) {
  switch (result.code) {
    case AdmitCode::kAddedPending: obs_->admits_pending->inc(); break;
    case AdmitCode::kAddedFuture: obs_->admits_future->inc(); break;
    case AdmitCode::kReplaced: obs_->replacements->inc(); break;
    default: obs_->rejects->inc(); break;
  }
  if (result.replaced && obs_->trace != nullptr) {
    obs_->trace->push(now, obs::TraceKind::kTxReplaced, tx.id, result.replaced->id);
  }
  if (!result.evicted.empty()) {
    obs_->evictions->inc(result.evicted.size());
    obs_->evictions_price->inc(result.evicted.size());
    if (obs_->trace != nullptr) {
      for (const auto& e : result.evicted)
        obs_->trace->push(now, obs::TraceKind::kTxEvicted, e.id);
    }
  }
}

AdmitResult Mempool::add_impl(const eth::Transaction& tx, eth::TxHash hash, double now) {
  AdmitResult result;

  // Read-only early-outs run against the shared state: a forked pool that
  // only ever rejects duplicates/stale nonces never clones its base.
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

  const AccountQueue* cq = account(cs, tx.sender);
  if (cq != nullptr) {
    auto eit = cq->find(tx.nonce);
    if (eit != cq->txs.end()) {
      // Replacement path: same sender and nonce (§2 event 1b).
      if (!policy_.accepts_replacement(eit->tx.pool_price(), tx.pool_price())) {
        result.code = AdmitCode::kRejectedUnderpricedReplacement;
        return result;
      }
      State& s = st_.mutate();
      const uint32_t slot = *s.slot_of.find(tx.sender);
      Entry& old = *s.slot_queue[slot].find(tx.nonce);
      result.replaced = old.tx;
      s.price_index.erase(key_of(old), index_compactions(), index_tombstone_peak());
      if (!old.pending) {
        s.future_index.erase(key_of(old), index_compactions(), index_tombstone_peak());
      }
      s.txs.erase(old.hash);
      old.tx = tx;
      old.hash = hash;
      old.added_at = now;
      s.price_index.insert(key_of(old));
      if (!old.pending) s.future_index.insert(key_of(old));
      s.txs.insert(hash, TxLoc{slot, tx.nonce});
      track_added_at(s, now);
      result.code = AdmitCode::kReplaced;
      return result;
    }
  }

  // Fresh entry: decide pending vs future by the consecutive-nonce rule.
  bool is_pending = (tx.nonce == chain_next);
  if (!is_pending && cq != nullptr) {
    // Pending if every nonce in [chain_next, tx.nonce) is already buffered.
    eth::Nonce expected = chain_next;
    for (auto it = cq->lower_bound(chain_next);
         it != cq->txs.end() && it->tx.nonce == expected && expected < tx.nonce; ++it) {
      ++expected;
    }
    is_pending = (expected == tx.nonce);
  }

  if (!is_pending) {
    const size_t have = cq != nullptr ? cq->futures : 0;
    if (have >= policy_.max_futures_per_account) {
      result.code = AdmitCode::kRejectedFutureLimit;
      return result;
    }
  }
  if (cs.size >= policy_.capacity && !is_pending &&
      cs.pending_count < policy_.min_pending_for_eviction) {
    // Eviction gate (§2 event 1a): a future incomer additionally requires
    // at least P pending transactions in the pool.
    result.code = AdmitCode::kRejectedEvictionForbidden;
    return result;
  }

  // Every remaining outcome mutates (victim selection reads the price
  // heaps, which settle lazy deletions — a physical write).
  State& s = st_.mutate();
  // is_pending was judged on the incomer's account as it stood; evicting
  // one of that account's own entries invalidates it.
  bool full_walk = false;
  if (s.size >= policy_.capacity) {
    auto victim = pick_victim(s, tx.pool_price(), is_pending);
    if (!victim && is_pending && !s.future_index.empty()) {
      // Executable transactions outrank queued ones: when the pool is full
      // and nothing is cheaper, a pending incomer still displaces the
      // cheapest *future* (Geth's pending/queue split — the queue is
      // second-class and would be truncated by the next reorg anyway).
      victim = *s.txs.find(s.future_index.min().hash);
    }
    if (!victim) {
      result.code = AdmitCode::kRejectedPoolFull;
      return result;
    }
    if (s.slot_addr[victim->slot] == tx.sender) {
      result.evicted.push_back(remove_entry(s, victim->slot, victim->nonce).tx);
      full_walk = true;
    } else {
      // Removing a mid-queue pending entry demotes its followers.
      result.evicted.push_back(drop(s, *victim));
    }
  }

  const uint32_t slot = ensure_slot(s, tx.sender, chain_next);
  AccountQueue& q = s.slot_queue[slot];
  auto pos = q.txs.insert(q.lower_bound(tx.nonce), Entry{tx, hash, now, false});
  ++q.futures;  // admitted as future; promoted below if it extends the run
  s.price_index.insert(key_of(*pos));
  s.future_index.insert(key_of(*pos));
  s.txs.insert(hash, TxLoc{slot, tx.nonce});
  ++s.size;
  track_added_at(s, now);

  bool self_pending = false;
  if (full_walk || q.classified_at != chain_next) {
    // Stale flags (the chain moved since this account was classified) or
    // a same-account eviction: recompute the whole account. The incoming
    // tx itself is not a "promotion"; separate it out.
    reclassify(s, slot, &result.promoted);
    self_pending = q.find(tx.nonce)->pending;
    std::erase_if(result.promoted,
                  [&](const eth::Transaction& p) { return p.nonce == tx.nonce; });
  } else if (is_pending) {
    // The incomer extends the pending run; the futures queued right
    // behind it, up to the next gap, join the run too.
    promote(s, q, *pos);
    self_pending = true;
    eth::Nonce expected = tx.nonce + 1;
    for (auto it = pos + 1; it != q.txs.end() && it->tx.nonce == expected; ++it, ++expected) {
      promote(s, q, *it);
      result.promoted.push_back(it->tx);
    }
  }
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
  PoolUpdate update;
  const State& cs = *st_;
  if (obs_ != nullptr && obs_->occupancy != nullptr && policy_.capacity > 0) {
    obs_->occupancy->observe(static_cast<double>(cs.size) /
                             static_cast<double>(policy_.capacity));
  }

  // Each phase checks its guard against the shared state first; the idle
  // maintenance tick of an untouched forked pool stays read-only (no
  // copy-on-write clone).

  // 1. Expiry (Geth drops unconfirmed transactions after e hours). The
  // min_added_at guard makes the common no-expiry call O(1).
  if (policy_.expiry_seconds > 0.0 && cs.min_added_valid &&
      cs.min_added_at + policy_.expiry_seconds <= now) {
    State& s = st_.mutate();
    std::vector<TxLoc> expired;
    double oldest_remaining = now;
    for (uint32_t slot = 0; slot < s.slot_addr.size(); ++slot) {
      if (s.slot_addr[slot] == eth::kNoAddress) continue;
      for (const Entry& e : s.slot_queue[slot].txs) {
        if (e.added_at + policy_.expiry_seconds <= now) {
          expired.push_back({slot, e.tx.nonce});
        } else {
          oldest_remaining = std::min(oldest_remaining, e.added_at);
        }
      }
    }
    for (const TxLoc& loc : expired) update.dropped.push_back(drop(s, loc));
    if (obs_ != nullptr && !expired.empty()) {
      obs_->evictions->inc(expired.size());
      obs_->evictions_expired->inc(expired.size());
    }
    s.min_added_at = oldest_remaining;
    s.min_added_valid = s.size > 0;
  }

  // 2. EIP-1559: entries whose max fee fell below the base fee are dropped.
  // Only rescanned when the base fee actually moved.
  if (policy_.eip1559 && base_fee_ > 0 && base_fee_ != cs.last_pruned_base_fee) {
    State& s = st_.mutate();
    std::vector<TxLoc> under;
    for (uint32_t slot = 0; slot < s.slot_addr.size(); ++slot) {
      if (s.slot_addr[slot] == eth::kNoAddress) continue;
      for (const Entry& e : s.slot_queue[slot].txs) {
        if (e.tx.fee1559 && e.tx.fee1559->max_fee < base_fee_) under.push_back({slot, e.tx.nonce});
      }
    }
    for (const TxLoc& loc : under) update.dropped.push_back(drop(s, loc));
    if (obs_ != nullptr && !under.empty()) {
      obs_->evictions->inc(under.size());
      obs_->evictions_basefee->inc(under.size());
    }
    s.last_pruned_base_fee = base_fee_;
  }

  // 3. Future-subpool truncation to future_cap, cheapest first.
  size_t truncated = 0;
  if (st_->size - st_->pending_count > policy_.future_cap && !st_->future_index.empty()) {
    State& s = st_.mutate();
    while (s.size - s.pending_count > policy_.future_cap && !s.future_index.empty()) {
      update.dropped.push_back(drop(s, *s.txs.find(s.future_index.min().hash)));
      ++truncated;
    }
  }
  if (obs_ != nullptr && truncated > 0) {
    obs_->evictions->inc(truncated);
    obs_->evictions_truncated->inc(truncated);
    if (obs_->trace != nullptr) {
      for (auto it = update.dropped.end() - static_cast<ptrdiff_t>(truncated);
           it != update.dropped.end(); ++it) {
        obs_->trace->push(now, obs::TraceKind::kTxEvicted, it->id);
      }
    }
  }

  return update;
}

PoolUpdate Mempool::on_block(const std::vector<eth::Address>& senders) {
  PoolUpdate update;

  // Only the named senders' chain nonces moved, so only their accounts can
  // hold stale entries or stale classes. Visit them in slot order — the
  // order promotions propagate in and released slots join the free list.
  const State& cs = *st_;
  std::vector<uint32_t> slots;
  for (eth::Address sender : senders) {
    if (const uint32_t* slot = cs.slot_of.find(sender)) slots.push_back(*slot);
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());

  // Read-only pre-check: pools the blocks leave untouched skip the
  // copy-on-write clone entirely.
  const auto dirty = [&](uint32_t slot) {
    eth::Nonce expected = state_->next_nonce(cs.slot_addr[slot]);
    for (const Entry& e : cs.slot_queue[slot].txs) {
      if (e.tx.nonce < expected) return true;  // stale entry to drop
      const bool now_pending = (e.tx.nonce == expected);
      if (now_pending) ++expected;
      if (now_pending != e.pending) return true;  // promotion/demotion
    }
    return false;
  };
  if (std::none_of(slots.begin(), slots.end(), dirty)) return update;

  // Drop entries the chain has consumed (mined or made stale), then re-run
  // the account's classification to promote unblocked futures.
  State& s = st_.mutate();
  for (uint32_t slot : slots) {
    const eth::Nonce next = state_->next_nonce(s.slot_addr[slot]);
    while (s.slot_addr[slot] != eth::kNoAddress && s.slot_queue[slot].txs.front().tx.nonce < next) {
      update.dropped.push_back(
          remove_entry(s, slot, s.slot_queue[slot].txs.front().tx.nonce).tx);
    }
    if (s.slot_addr[slot] != eth::kNoAddress) reclassify(s, slot, &update.promoted);
  }
  if (obs_ != nullptr && !update.dropped.empty()) obs_->drops_mined->inc(update.dropped.size());
  return update;
}

const eth::Transaction* Mempool::find(eth::Address sender, eth::Nonce nonce) const {
  const AccountQueue* q = account(*st_, sender);
  if (q == nullptr) return nullptr;
  auto eit = q->find(nonce);
  return eit == q->txs.end() ? nullptr : &eit->tx;
}

const eth::Transaction* Mempool::find_hash(eth::TxHash h) const {
  const State& s = *st_;
  const TxLoc* loc = s.txs.find(h);
  if (loc == nullptr) return nullptr;
  return &s.slot_queue[loc->slot].find(loc->nonce)->tx;
}

size_t Mempool::futures_of(eth::Address sender) const {
  const AccountQueue* q = account(*st_, sender);
  return q == nullptr ? 0 : q->futures;
}

eth::Wei Mempool::lowest_price() const {
  // Slot-order scan instead of price_index.min(): reading the heap settles
  // lazy deletions, which would physically write through the shared
  // copy-on-write handle.
  const State& s = *st_;
  if (s.size == 0) return 0;
  eth::Wei best = 0;
  bool found = false;
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const Entry& e : s.slot_queue[slot].txs) {
      const eth::Wei p = e.tx.pool_price();
      if (!found || p < best) {
        best = p;
        found = true;
      }
    }
  }
  return best;
}

eth::Wei Mempool::median_pending_price() const {
  const State& s = *st_;
  std::vector<eth::Wei> prices;
  prices.reserve(s.pending_count);
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const Entry& e : s.slot_queue[slot].txs) {
      if (e.pending) prices.push_back(e.tx.pool_price());
    }
  }
  if (prices.empty()) return 0;
  std::sort(prices.begin(), prices.end());
  return prices[prices.size() / 2];
}

std::vector<eth::Transaction> Mempool::pending_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.pending_count);
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const Entry& e : s.slot_queue[slot].txs) {
      if (e.pending) out.push_back(e.tx);
    }
  }
  return out;
}

const eth::Transaction* Mempool::random_pending(util::Rng& rng) const {
  const State& s = *st_;
  if (s.pending_count == 0) return nullptr;
  size_t k = rng.index(s.pending_count);
  // Same iteration order as pending_snapshot(), so the k-th pending entry
  // here is the entry snapshot[k] would hold.
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const Entry& e : s.slot_queue[slot].txs) {
      if (!e.pending) continue;
      if (k == 0) return &e.tx;
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
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const Entry& e : s.slot_queue[slot].txs) {
      if (!e.pending) out.push_back(e.tx);
    }
  }
  return out;
}

std::vector<eth::Transaction> Mempool::all_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.size);
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const Entry& e : s.slot_queue[slot].txs) out.push_back(e.tx);
  }
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
  for (uint32_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    const eth::Address sender = s.slot_addr[slot];
    const AccountQueue& q = s.slot_queue[slot];
    if (sender == eth::kNoAddress) {
      require(q.txs.empty(), "a free slot holds entries");
      continue;
    }
    ++live_slots;
    const uint32_t* mapped = s.slot_of.find(sender);
    require(mapped != nullptr && *mapped == slot, "slot_of disagrees with slot_addr");
    require(!q.txs.empty(), "a live slot has an empty queue");
    eth::Nonce expected = q.classified_at;
    size_t futures = 0;
    for (size_t i = 0; i < q.txs.size(); ++i) {
      const Entry& e = q.txs[i];
      require(e.tx.sender == sender, "an entry is filed under another sender");
      require(i == 0 || q.txs[i - 1].tx.nonce < e.tx.nonce, "a queue is not nonce-ascending");
      require(e.hash == e.tx.hash(), "a stored hash differs from the content hash");
      const TxLoc* loc = s.txs.find(e.hash);
      require(loc != nullptr && loc->slot == slot && loc->nonce == e.tx.nonce,
              "the transaction index disagrees with the queues");
      const bool in_run = (e.tx.nonce == expected);
      if (in_run) ++expected;
      require(e.pending == in_run, "a pending flag differs from the classified nonce run");
      if (e.pending) ++pending;
      else ++futures;
    }
    require(q.futures == futures, "an account's future count drifted");
    size += q.txs.size();
  }
  require(size == s.size, "the pool size drifted");
  require(pending == s.pending_count, "the pending count drifted");
  require(s.txs.size() == size, "the transaction index size drifted");
  require(s.price_index.size() == size, "the price index size drifted");
  require(s.future_index.size() == size - pending, "the future index size drifted");
  require(s.slot_of.size() == live_slots, "the slot table size drifted");
  require(s.free_slots.size() + live_slots == s.slot_addr.size(), "the free list drifted");
}

}  // namespace topo::mempool
