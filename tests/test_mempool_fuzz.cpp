// Differential fuzz of the mempool against a deliberately naive reference
// model: thousands of random operations per client policy, comparing the
// externally observable state after every step. The reference recomputes
// everything from scratch (no indices, no incremental bookkeeping), so any
// divergence pinpoints a bookkeeping bug in the optimized pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "eth/account.h"
#include "mempool/client_profile.h"
#include "mempool/mempool.h"
#include "util/rng.h"

namespace topo::mempool {
namespace {

/// Naive reference mempool implementing the same Table 2 semantics with
/// O(n) scans everywhere.
class ReferencePool {
 public:
  ReferencePool(MempoolPolicy policy, const eth::StateView* state)
      : policy_(policy), state_(state) {}
  /// A copy of `other`'s content judged against `state` (a forked world's
  /// own chain).
  ReferencePool(const ReferencePool& other, const eth::StateView* state)
      : policy_(other.policy_), state_(state), txs_(other.txs_) {}

  AdmitCode add(const eth::Transaction& tx) {
    if (find_hash(tx.hash())) return AdmitCode::kRejectedDuplicate;
    if (tx.nonce < state_->next_nonce(tx.sender)) return AdmitCode::kRejectedStaleNonce;

    // Replacement?
    for (auto& existing : txs_) {
      if (existing.sender == tx.sender && existing.nonce == tx.nonce) {
        if (!policy_.accepts_replacement(existing.pool_price(), tx.pool_price())) {
          return AdmitCode::kRejectedUnderpricedReplacement;
        }
        existing = tx;
        return AdmitCode::kReplaced;
      }
    }

    const bool pending = would_be_pending(tx);
    if (!pending) {
      size_t futures_of_sender = 0;
      for (const auto& t : txs_) {
        if (t.sender == tx.sender && !is_pending(t)) ++futures_of_sender;
      }
      if (futures_of_sender >= policy_.max_futures_per_account) {
        return AdmitCode::kRejectedFutureLimit;
      }
    }
    if (txs_.size() >= policy_.capacity) {
      if (!pending && pending_count() < policy_.min_pending_for_eviction) {
        return AdmitCode::kRejectedEvictionForbidden;
      }
      // Victim: globally cheapest entry cheaper than the incomer (the
      // fuzz covers the paper-model policy only); a pending incomer may
      // also displace the cheapest future.
      auto victim = txs_.end();
      for (auto it = txs_.begin(); it != txs_.end(); ++it) {
        if (it->pool_price() >= tx.pool_price()) continue;
        if (victim == txs_.end() || it->pool_price() < victim->pool_price() ||
            (it->pool_price() == victim->pool_price() && it->id < victim->id)) {
          victim = it;
        }
      }
      if (victim == txs_.end() && pending) {
        for (auto it = txs_.begin(); it != txs_.end(); ++it) {
          if (is_pending(*it)) continue;
          if (victim == txs_.end() || it->pool_price() < victim->pool_price() ||
              (it->pool_price() == victim->pool_price() && it->id < victim->id)) {
            victim = it;
          }
        }
      }
      if (victim == txs_.end()) return AdmitCode::kRejectedPoolFull;
      txs_.erase(victim);
    }
    txs_.push_back(tx);
    // Eviction may have removed one of the incomer's own predecessors, so
    // the reported class is the post-insert truth.
    return is_pending(tx) ? AdmitCode::kAddedPending : AdmitCode::kAddedFuture;
  }

  void truncate_futures() {
    while (future_count() > policy_.future_cap) {
      auto victim = txs_.end();
      for (auto it = txs_.begin(); it != txs_.end(); ++it) {
        if (is_pending(*it)) continue;
        if (victim == txs_.end() || it->pool_price() < victim->pool_price() ||
            (it->pool_price() == victim->pool_price() && it->id < victim->id)) {
          victim = it;
        }
      }
      if (victim == txs_.end()) return;
      txs_.erase(victim);
    }
  }

  void on_block() {
    for (auto it = txs_.begin(); it != txs_.end();) {
      if (it->nonce < state_->next_nonce(it->sender)) it = txs_.erase(it);
      else ++it;
    }
  }

  bool is_pending(const eth::Transaction& tx) const {
    // Consecutive-nonce run from the chain nonce.
    for (eth::Nonce n = state_->next_nonce(tx.sender); n <= tx.nonce; ++n) {
      bool found = false;
      for (const auto& t : txs_) {
        if (t.sender == tx.sender && t.nonce == n) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  bool would_be_pending(const eth::Transaction& tx) const {
    for (eth::Nonce n = state_->next_nonce(tx.sender); n < tx.nonce; ++n) {
      bool found = false;
      for (const auto& t : txs_) {
        if (t.sender == tx.sender && t.nonce == n) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  bool find_hash(eth::TxHash h) const {
    return std::any_of(txs_.begin(), txs_.end(),
                       [&](const auto& t) { return t.hash() == h; });
  }
  size_t size() const { return txs_.size(); }
  size_t pending_count() const {
    size_t c = 0;
    for (const auto& t : txs_) c += is_pending(t);
    return c;
  }
  size_t future_count() const { return size() - pending_count(); }

  /// Multiset of (sender, nonce, price) for state comparison.
  std::multiset<std::tuple<eth::Address, eth::Nonce, eth::Wei>> state_set() const {
    std::multiset<std::tuple<eth::Address, eth::Nonce, eth::Wei>> out;
    for (const auto& t : txs_) out.insert({t.sender, t.nonce, t.pool_price()});
    return out;
  }

 private:
  MempoolPolicy policy_;
  const eth::StateView* state_;
  std::vector<eth::Transaction> txs_;
};

std::multiset<std::tuple<eth::Address, eth::Nonce, eth::Wei>> state_set(const Mempool& pool) {
  std::multiset<std::tuple<eth::Address, eth::Nonce, eth::Wei>> out;
  for (const auto& t : pool.all_snapshot()) out.insert({t.sender, t.nonce, t.pool_price()});
  return out;
}

class MempoolFuzz : public ::testing::TestWithParam<uint64_t> {};

MempoolPolicy fuzz_policy(util::Rng& rng) {
  MempoolPolicy policy;
  policy.capacity = 24;
  policy.future_cap = 8;
  policy.replace_bump_bp = 1000;
  policy.max_futures_per_account = 5;
  policy.min_pending_for_eviction = rng.chance(0.5) ? 0 : 6;
  policy.expiry_seconds = 0.0;  // expiry ordering is tested separately
  return policy;
}

/// One world's pool, its chain and the reference model judged against it.
struct FuzzWorld {
  explicit FuzzWorld(const MempoolPolicy& policy) : pool(policy, &state), ref(policy, &state) {}
  /// A fork of `base`: its chain copied, the pool restored from a snapshot
  /// (sharing the base's state until either side writes).
  FuzzWorld(const FuzzWorld& base)
      : state(base.state), pool(base.pool.policy(), &state), ref(base.ref, &state) {
    pool.restore(base.pool.snapshot());
  }

  void offer(eth::TxFactory& factory, util::Rng& rng, int step) {
    const eth::Address sender = 1 + rng.index(8);
    const eth::Nonce nonce = rng.index(7);
    const eth::Wei price = 10 * (1 + rng.index(40));
    eth::Transaction tx = factory.make(sender, nonce, price);
    ASSERT_EQ(pool.add(tx, 0.0).code, ref.add(tx)) << "step " << step << " tx " << tx.to_string();
  }
  void maintain() {
    pool.maintain(0.0);
    ref.truncate_futures();
  }
  /// Advances a random account's chain nonce (a mined block); the pool
  /// hears only of that sender, as a node hears of a block's senders.
  void mine(util::Rng& rng) {
    const eth::Address sender = 1 + rng.index(8);
    state.set_next_nonce(sender, state.next_nonce(sender) + 1 + rng.index(2));
    pool.on_block({sender});
    ref.on_block();
  }
  void expect_matches(int step) const {
    pool.check_invariants();
    ASSERT_EQ(pool.size(), ref.size()) << "step " << step;
    ASSERT_EQ(pool.pending_count(), ref.pending_count()) << "step " << step;
    ASSERT_EQ(state_set(pool), ref.state_set()) << "step " << step;
  }

  eth::MapState state;
  Mempool pool;
  ReferencePool ref;
};

TEST_P(MempoolFuzz, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  FuzzWorld w(fuzz_policy(rng));
  eth::TxFactory factory;
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.85) {
      w.offer(factory, rng, step);
    } else if (roll < 0.95) {
      w.maintain();
    } else {
      w.mine(rng);
    }
    w.expect_matches(step);
    if (HasFatalFailure()) return;
  }
}

// World forks interleaved with mutation: a fork shares its base's pool
// state until either side writes, so after every step both sides must
// still match their own reference — a write that leaked through the
// shared state would show on the other side.
TEST_P(MempoolFuzz, ForksMatchReferenceModel) {
  util::Rng rng(GetParam());
  const MempoolPolicy policy = fuzz_policy(rng);
  eth::TxFactory factory;
  std::vector<std::unique_ptr<FuzzWorld>> worlds;
  worlds.push_back(std::make_unique<FuzzWorld>(policy));

  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.04 || worlds.size() == 1) {
      // Fork a random world; keep at most three alive.
      const FuzzWorld& base = *worlds[rng.index(worlds.size())];
      auto fork = std::make_unique<FuzzWorld>(base);
      if (worlds.size() == 3) worlds[rng.index(3)] = std::move(fork);
      else worlds.push_back(std::move(fork));
    } else {
      FuzzWorld& w = *worlds[rng.index(worlds.size())];
      if (roll < 0.85) {
        w.offer(factory, rng, step);
      } else if (roll < 0.95) {
        w.maintain();
      } else {
        w.mine(rng);
      }
    }
    for (const auto& w : worlds) w->expect_matches(step);
    if (HasFatalFailure()) return;
  }
}

// The campaign's shape: a full pool of pending transactions, a flood of
// pricier futures from fresh accounts evicting them, then a block mining
// some senders and a maintenance pass truncating the futures — repeated
// until the slab's free list has recycled every entry many times over.
TEST_P(MempoolFuzz, FloodCyclesMatchReferenceModel) {
  util::Rng rng(GetParam());
  const MempoolPolicy policy = fuzz_policy(rng);
  eth::TxFactory factory;
  FuzzWorld w(policy);
  eth::Address next_account = 100;
  int step = 0;
  const auto offer = [&](eth::Address sender, eth::Nonce nonce, eth::Wei price) {
    const eth::Transaction tx = factory.make(sender, nonce, price);
    ASSERT_EQ(w.pool.add(tx, 0.0).code, w.ref.add(tx)) << "step " << step << " tx " << tx.to_string();
    w.expect_matches(step++);
  };

  for (int cycle = 0; cycle < 40; ++cycle) {
    // Top the pool up with pending transactions (some accounts queue two).
    std::vector<eth::Address> senders;
    while (w.pool.size() < policy.capacity) {
      const eth::Address a = next_account++;
      const eth::Nonce base = w.state.next_nonce(a);
      senders.push_back(a);
      offer(a, base, 10 * (1 + rng.index(20)));
      if (rng.chance(0.3)) offer(a, base + 1, 10 * (1 + rng.index(20)));
      if (HasFatalFailure()) return;
    }
    // The flood: futures from fresh accounts, mostly pricier than the pool.
    const size_t flood = policy.capacity + rng.index(policy.capacity);
    for (size_t i = 0; i < flood; ++i) {
      offer(next_account++, 1, 10 * (5 + rng.index(40)));
      if (HasFatalFailure()) return;
    }
    // Re-offers of buffered content (the flood's echo) are duplicates.
    for (const auto& tx : w.pool.all_snapshot()) {
      ASSERT_EQ(w.pool.add(tx, 0.0).code, AdmitCode::kRejectedDuplicate);
    }
    // A block mines a few of this cycle's senders, one of them twice over.
    std::vector<eth::Address> mined;
    for (eth::Address a : senders) {
      if (!rng.chance(0.4)) continue;
      w.state.set_next_nonce(a, w.state.next_nonce(a) + 1 + rng.index(2));
      mined.push_back(a);
    }
    w.pool.on_block(mined);
    w.ref.on_block();
    w.expect_matches(step++);
    w.maintain();
    w.expect_matches(step++);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MempoolFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace topo::mempool
