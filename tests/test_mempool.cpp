// Unit and property tests for the parameterized mempool (paper Table 2
// semantics): classification, replacement, eviction, maintenance, EIP-1559.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "eth/account.h"
#include "eth/transaction.h"
#include "mempool/client_profile.h"
#include "mempool/mempool.h"
#include "util/rng.h"

namespace topo::mempool {
namespace {

using eth::Address;
using eth::Nonce;
using eth::Transaction;
using eth::TxFactory;
using eth::Wei;

MempoolPolicy small_policy() {
  MempoolPolicy p;
  p.capacity = 8;
  p.future_cap = 4;
  p.replace_bump_bp = 1000;
  p.max_futures_per_account = 4;
  p.min_pending_for_eviction = 0;
  p.expiry_seconds = 100.0;
  return p;
}

class MempoolTest : public ::testing::Test {
 protected:
  eth::MapState state;
  TxFactory f;

  Mempool make(MempoolPolicy p = small_policy()) { return Mempool(p, &state); }
};

TEST_F(MempoolTest, PendingVsFutureClassification) {
  auto pool = make();
  EXPECT_EQ(pool.add(f.make(1, 0, 100), 0.0).code, AdmitCode::kAddedPending);
  EXPECT_EQ(pool.add(f.make(1, 1, 100), 0.0).code, AdmitCode::kAddedPending);
  EXPECT_EQ(pool.add(f.make(1, 3, 100), 0.0).code, AdmitCode::kAddedFuture);
  EXPECT_EQ(pool.pending_count(), 2u);
  EXPECT_EQ(pool.future_count(), 1u);
}

TEST_F(MempoolTest, GapFillPromotesFutures) {
  auto pool = make();
  pool.add(f.make(1, 0, 100), 0.0);
  pool.add(f.make(1, 2, 100), 0.0);
  pool.add(f.make(1, 3, 100), 0.0);
  EXPECT_EQ(pool.future_count(), 2u);
  const auto result = pool.add(f.make(1, 1, 100), 0.0);
  EXPECT_EQ(result.code, AdmitCode::kAddedPending);
  EXPECT_EQ(result.promoted.size(), 2u) << "nonces 2 and 3 should promote";
  EXPECT_EQ(pool.pending_count(), 4u);
  EXPECT_EQ(pool.future_count(), 0u);
}

TEST_F(MempoolTest, StaleNonceRejected) {
  state.set_next_nonce(1, 5);
  auto pool = make();
  EXPECT_EQ(pool.add(f.make(1, 4, 100), 0.0).code, AdmitCode::kRejectedStaleNonce);
  EXPECT_EQ(pool.add(f.make(1, 5, 100), 0.0).code, AdmitCode::kAddedPending);
}

TEST_F(MempoolTest, DuplicateHashRejected) {
  auto pool = make();
  const auto tx = f.make(1, 0, 100);
  EXPECT_TRUE(pool.add(tx, 0.0).admitted());
  EXPECT_EQ(pool.add(tx, 0.0).code, AdmitCode::kRejectedDuplicate);
}

TEST_F(MempoolTest, ReplacementRequiresBump) {
  auto pool = make();
  pool.add(f.make(1, 0, 1000), 0.0);
  // 9.99% bump: rejected.
  EXPECT_EQ(pool.add(f.make(1, 0, 1099), 0.0).code,
            AdmitCode::kRejectedUnderpricedReplacement);
  // Exactly 10%: accepted.
  const auto result = pool.add(f.make(1, 0, 1100), 0.0);
  EXPECT_EQ(result.code, AdmitCode::kReplaced);
  ASSERT_TRUE(result.replaced.has_value());
  EXPECT_EQ(result.replaced->gas_price, 1000u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.find(1, 0)->gas_price, 1100u);
}

TEST_F(MempoolTest, ReplacementAllowedWhenPoolFull) {
  auto pool = make();
  for (int i = 0; i < 8; ++i) pool.add(f.make(10 + i, 0, 100), 0.0);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.add(f.make(10, 0, 200), 0.0).code, AdmitCode::kReplaced);
  EXPECT_EQ(pool.size(), 8u);
}

TEST_F(MempoolTest, ZeroBumpAllowsEqualPriceReplacement) {
  // The Aleth/Nethermind flaw reported in §5.1.
  MempoolPolicy p = small_policy();
  p.replace_bump_bp = 0;
  auto pool = make(p);
  pool.add(f.make(1, 0, 1000), 0.0);
  EXPECT_EQ(pool.add(f.make(1, 0, 1000), 0.0).code, AdmitCode::kReplaced);
  EXPECT_EQ(pool.add(f.make(1, 0, 999), 0.0).code,
            AdmitCode::kRejectedUnderpricedReplacement);
}

TEST_F(MempoolTest, EvictionRemovesCheapestWhenFull) {
  auto pool = make();
  for (int i = 0; i < 8; ++i) pool.add(f.make(10 + i, 0, 100 + i), 0.0);
  const auto result = pool.add(f.make(99, 0, 500), 0.0);
  EXPECT_EQ(result.code, AdmitCode::kAddedPending);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->gas_price, 100u);
  EXPECT_EQ(pool.size(), 8u);
}

TEST_F(MempoolTest, UnderpricedIncomerRejectedWhenFull) {
  auto pool = make();
  for (int i = 0; i < 8; ++i) pool.add(f.make(10 + i, 0, 100), 0.0);
  EXPECT_EQ(pool.add(f.make(99, 0, 100), 0.0).code, AdmitCode::kRejectedPoolFull);
  EXPECT_EQ(pool.add(f.make(99, 0, 50), 0.0).code, AdmitCode::kRejectedPoolFull);
}

TEST_F(MempoolTest, FutureEvictionGatedByMinPending) {
  MempoolPolicy p = small_policy();
  p.min_pending_for_eviction = 5;
  auto pool = make(p);
  // 4 pending + 4 futures = full, pending below the P=5 gate.
  for (int i = 0; i < 4; ++i) pool.add(f.make(10 + i, 0, 100), 0.0);
  for (int i = 0; i < 4; ++i) pool.add(f.make(20 + i, 1, 100), 0.0);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.add(f.make(99, 1, 500), 0.0).code, AdmitCode::kRejectedEvictionForbidden);
  // A pending incomer is not gated by P.
  EXPECT_EQ(pool.add(f.make(99, 0, 500), 0.0).code, AdmitCode::kAddedPending);
}

TEST_F(MempoolTest, FutureLimitPerAccount) {
  auto pool = make();  // U = 4
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.add(f.make(1, 1 + i, 100), 0.0).code, AdmitCode::kAddedFuture);
  }
  EXPECT_EQ(pool.add(f.make(1, 10, 100), 0.0).code, AdmitCode::kRejectedFutureLimit);
  // Other accounts are unaffected.
  EXPECT_EQ(pool.add(f.make(2, 1, 100), 0.0).code, AdmitCode::kAddedFuture);
}

TEST_F(MempoolTest, EvictingMidNonceDemotesFollowers) {
  auto pool = make();
  pool.add(f.make(1, 0, 50), 0.0);   // cheapest, will be evicted
  pool.add(f.make(1, 1, 500), 0.0);
  pool.add(f.make(1, 2, 500), 0.0);
  for (int i = 0; i < 5; ++i) pool.add(f.make(10 + i, 0, 400), 0.0);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.pending_count(), 8u);
  const auto result = pool.add(f.make(99, 0, 600), 0.0);
  EXPECT_EQ(result.code, AdmitCode::kAddedPending);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->gas_price, 50u);
  // Sender 1's nonces 1 and 2 now have a gap -> futures.
  EXPECT_EQ(pool.future_count(), 2u);
}

TEST_F(MempoolTest, MaintainTruncatesFutureOverflow) {
  auto pool = make();  // future_cap = 4
  for (int i = 0; i < 6; ++i) pool.add(f.make(10 + i, 1, 100 + i), 0.0);
  EXPECT_EQ(pool.future_count(), 6u);
  const auto update = pool.maintain(1.0);
  EXPECT_EQ(update.dropped.size(), 2u);
  EXPECT_EQ(pool.future_count(), 4u);
  // Cheapest futures were dropped first.
  EXPECT_EQ(update.dropped[0].gas_price, 100u);
  EXPECT_EQ(update.dropped[1].gas_price, 101u);
}

TEST_F(MempoolTest, MaintainDropsExpired) {
  auto pool = make();  // expiry 100 s
  pool.add(f.make(1, 0, 100), 0.0);
  pool.add(f.make(2, 0, 100), 50.0);
  auto update = pool.maintain(99.0);
  EXPECT_TRUE(update.dropped.empty());
  update = pool.maintain(120.0);
  ASSERT_EQ(update.dropped.size(), 1u);
  EXPECT_EQ(update.dropped[0].sender, 1u);
  update = pool.maintain(151.0);
  ASSERT_EQ(update.dropped.size(), 1u);
  EXPECT_EQ(update.dropped[0].sender, 2u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST_F(MempoolTest, OnBlockDropsMinedAndPromotes) {
  auto pool = make();
  pool.add(f.make(1, 0, 100), 0.0);
  pool.add(f.make(1, 1, 100), 0.0);
  pool.add(f.make(1, 3, 100), 0.0);  // future
  // Chain confirms nonces 0..2 (2 was mined elsewhere).
  state.set_next_nonce(1, 3);
  const auto update = pool.on_block({1});
  EXPECT_EQ(update.dropped.size(), 2u);
  ASSERT_EQ(update.promoted.size(), 1u);
  EXPECT_EQ(update.promoted[0].nonce, 3u);
  EXPECT_EQ(pool.pending_count(), 1u);
}

// Chain::commit advances nonces at once, but a node hears of the block one
// link latency later, and offers made in between already see the new
// nonce. The account's flags were classified against the old nonce, so
// the offer must reclassify the whole account, not just extend the run.
TEST_F(MempoolTest, OfferInsideCommitNotificationWindowReclassifiesAccount) {
  state.set_next_nonce(1, 3);
  auto pool = make();
  pool.add(f.make(1, 3, 100), 0.0);
  pool.add(f.make(1, 4, 100), 0.0);
  pool.add(f.make(1, 6, 100), 0.0);
  ASSERT_EQ(pool.pending_count(), 2u);

  state.set_next_nonce(1, 5);  // nonces 3 and 4 mined; on_block not yet run
  const auto result = pool.add(f.make(1, 5, 100), 0.0);
  EXPECT_EQ(result.code, AdmitCode::kAddedPending);
  ASSERT_EQ(result.promoted.size(), 1u);
  EXPECT_EQ(result.promoted[0].nonce, 6u);
  EXPECT_EQ(pool.pending_count(), 2u) << "3 and 4 demoted, 5 and 6 pending";
  pool.check_invariants();

  const auto update = pool.on_block({1});
  EXPECT_EQ(update.dropped.size(), 2u);
  EXPECT_TRUE(update.promoted.empty());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.pending_count(), 2u);
  pool.check_invariants();
}

// Same window, removal side: evicting an account's stale head must
// reclassify against the chain's new nonce, which keeps the next entry
// pending instead of demoting the rest of the old run.
TEST_F(MempoolTest, EvictionInsideCommitNotificationWindowReclassifiesVictim) {
  state.set_next_nonce(1, 3);
  auto pool = make();  // capacity 8
  pool.add(f.make(1, 3, 10), 0.0);
  pool.add(f.make(1, 4, 500), 0.0);
  for (Address a = 2; a <= 7; ++a) pool.add(f.make(a, 0, 500), 0.0);
  ASSERT_TRUE(pool.full());

  state.set_next_nonce(1, 4);  // nonce 3 mined; on_block not yet run
  const auto result = pool.add(f.make(9, 0, 600), 0.0);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->nonce, 3u);
  EXPECT_EQ(pool.pending_count(), 8u) << "nonce 4 is the chain's next nonce";
  pool.check_invariants();
}

TEST_F(MempoolTest, OnBlockVisitsOnlyTheNamedSenders) {
  auto pool = make();
  pool.add(f.make(1, 0, 100), 0.0);
  pool.add(f.make(2, 0, 100), 0.0);
  state.set_next_nonce(1, 1);
  state.set_next_nonce(2, 1);
  const auto update = pool.on_block({1, 1, 42});  // repeats and unknown senders are fine
  ASSERT_EQ(update.dropped.size(), 1u);
  EXPECT_EQ(update.dropped[0].sender, 1u);
  EXPECT_EQ(pool.on_block({2}).dropped.size(), 1u);
  EXPECT_EQ(pool.size(), 0u);
  pool.check_invariants();
}

TEST_F(MempoolTest, MedianAndLowestPrice) {
  auto pool = make();
  pool.add(f.make(1, 0, 100), 0.0);
  pool.add(f.make(2, 0, 300), 0.0);
  pool.add(f.make(3, 0, 200), 0.0);
  EXPECT_EQ(pool.lowest_price(), 100u);
  EXPECT_EQ(pool.median_pending_price(), 200u);
}

TEST_F(MempoolTest, SnapshotsSeparatePendingFromFutures) {
  auto pool = make();
  pool.add(f.make(1, 0, 100), 0.0);
  pool.add(f.make(1, 2, 100), 0.0);
  EXPECT_EQ(pool.pending_snapshot().size(), 1u);
  EXPECT_EQ(pool.all_snapshot().size(), 2u);
}

TEST_F(MempoolTest, Eip1559AdmissionAndPruning) {
  MempoolPolicy p = small_policy();
  p.eip1559 = true;
  auto pool = make(p);
  pool.set_base_fee(100);
  EXPECT_EQ(pool.add(f.make1559(1, 0, 90, 5), 0.0).code, AdmitCode::kRejectedUnderBaseFee);
  EXPECT_EQ(pool.add(f.make1559(2, 0, 150, 5), 0.0).code, AdmitCode::kAddedPending);
  // Base fee rises above the buffered max fee -> dropped at maintenance.
  pool.set_base_fee(200);
  const auto update = pool.maintain(0.0);
  ASSERT_EQ(update.dropped.size(), 1u);
  EXPECT_EQ(update.dropped[0].sender, 2u);
}

TEST_F(MempoolTest, FuturesOnlyEvictionVariant) {
  // The DETER-countermeasure ablation: a future incomer may only displace
  // other futures, never pending transactions.
  MempoolPolicy p = small_policy();
  p.victim = EvictionVictim::kFuturesFirst;
  auto pool = make(p);
  for (int i = 0; i < 7; ++i) pool.add(f.make(10 + i, 0, 100), 0.0);  // pending @100
  pool.add(f.make(50, 1, 150), 0.0);                                  // future @150
  EXPECT_TRUE(pool.full());

  // Future incomer: evicts the cheapest future, not the cheaper pendings.
  auto result = pool.add(f.make(99, 1, 500), 0.0);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->gas_price, 150u);

  // Another future incomer: the only future left costs 500 — too pricey to
  // evict at 400, and pendings are protected.
  EXPECT_EQ(pool.add(f.make(98, 1, 400), 0.0).code, AdmitCode::kRejectedPoolFull);

  // A pending incomer still evicts the globally cheapest entry.
  result = pool.add(f.make(97, 0, 600), 0.0);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->gas_price, 100u);
}

// ---------------------------------------------------------------------------
// Property-style sweeps over every client profile (paper Table 3).
// ---------------------------------------------------------------------------

class ClientPolicyTest : public ::testing::TestWithParam<ClientKind> {
 protected:
  eth::MapState state;
  TxFactory f;
};

TEST_P(ClientPolicyTest, ReplacementThresholdMatchesProfile) {
  const auto& profile = profile_for(GetParam());
  Mempool pool(profile.policy, &state);
  const Wei base = 1'000'000;
  pool.add(f.make(1, 0, base), 0.0);
  const Wei min_ok = profile.policy.min_replacement_price(base);
  if (min_ok > base) {
    EXPECT_EQ(pool.add(f.make(1, 0, min_ok - 1), 0.0).code,
              AdmitCode::kRejectedUnderpricedReplacement);
  }
  EXPECT_EQ(pool.add(f.make(1, 0, min_ok), 0.0).code, AdmitCode::kReplaced);
}

TEST_P(ClientPolicyTest, ReplacementMonotoneInPrice) {
  // If price q replaces, every q' > q must replace too.
  const auto& policy = profile_for(GetParam()).policy;
  const Wei base = 777'777;
  bool seen_accept = false;
  for (Wei q = base; q <= 2 * base; q += base / 16) {
    const bool ok = policy.accepts_replacement(base, q);
    if (seen_accept) {
      EXPECT_TRUE(ok) << "non-monotone acceptance at " << q;
    }
    seen_accept = seen_accept || ok;
  }
  EXPECT_TRUE(seen_accept);
}

TEST_P(ClientPolicyTest, EvictionNeverRemovesPricierThanIncoming) {
  const auto& profile = profile_for(GetParam());
  MempoolPolicy policy = profile.policy;
  policy.capacity = 32;  // scaled for the test
  policy.future_cap = 16;
  Mempool pool(policy, &state);
  for (int i = 0; i < 32; ++i) pool.add(f.make(100 + i, 0, 100 + 10 * i), 0.0);
  const auto result = pool.add(f.make(999, 0, 250), 0.0);
  if (result.evicted) {
    EXPECT_LT(result.evicted->gas_price, 250u);
  }
}

TEST_P(ClientPolicyTest, FutureCapRespectedAfterMaintain) {
  const auto& profile = profile_for(GetParam());
  MempoolPolicy policy = profile.policy;
  policy.capacity = 64;
  policy.future_cap = 8;
  Mempool pool(policy, &state);
  const size_t u = std::min<uint64_t>(policy.max_futures_per_account, 4);
  for (int acct = 0; acct < 8; ++acct) {
    for (size_t j = 0; j < u; ++j) pool.add(f.make(10 + acct, 1 + j, 100), 0.0);
  }
  pool.maintain(0.0);
  EXPECT_LE(pool.future_count(), 8u);
}

TEST_P(ClientPolicyTest, MeasurabilityMatchesPaper) {
  const auto& profile = profile_for(GetParam());
  const bool expected = GetParam() != ClientKind::kNethermind && GetParam() != ClientKind::kAleth;
  EXPECT_EQ(profile.measurable(), expected);
}

INSTANTIATE_TEST_SUITE_P(AllClients, ClientPolicyTest, ::testing::ValuesIn(kAllClients),
                         [](const ::testing::TestParamInfo<ClientKind>& info) {
                           return client_name(info.param);
                         });

// Sweep of capacities: eviction keeps the size invariant at L.
class CapacitySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CapacitySweep, SizeNeverExceedsCapacity) {
  eth::MapState state;
  TxFactory f;
  MempoolPolicy policy = small_policy();
  policy.capacity = GetParam();
  policy.future_cap = GetParam();
  policy.max_futures_per_account = GetParam();
  Mempool pool(policy, &state);
  util::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const Address sender = 1 + rng.index(20);
    const Nonce nonce = rng.index(4);
    const Wei price = 100 + rng.index(1000);
    pool.add(f.make(sender, nonce, price), 0.0);
    ASSERT_LE(pool.size(), policy.capacity);
    ASSERT_EQ(pool.pending_count() + pool.future_count(), pool.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CapacitySweep, ::testing::Values(4, 8, 16, 32, 64));

TEST_F(MempoolTest, RandomPendingMatchesSnapshotDraw) {
  // random_pending(rng) must select exactly the transaction that
  // pending_snapshot()[rng.index(pending_count())] would — the contract
  // that let the re-gossip loop drop its per-tick O(pool) copy without
  // perturbing any seeded run.
  MempoolPolicy p = small_policy();
  p.capacity = 32;
  auto pool = Mempool(p, &state);
  for (int i = 0; i < 10; ++i) pool.add(f.make(1 + i, 0, 100 + i), 0.0);
  pool.add(f.make(50, 2, 100), 0.0);  // a future, skipped by both paths
  ASSERT_EQ(pool.pending_count(), 10u);

  for (uint64_t seed = 0; seed < 32; ++seed) {
    util::Rng walk_rng(seed), snap_rng(seed);
    const Transaction* got = pool.random_pending(walk_rng);
    ASSERT_NE(got, nullptr);
    const auto snapshot = pool.pending_snapshot();
    const Transaction& want = snapshot[snap_rng.index(pool.pending_count())];
    EXPECT_EQ(got->hash(), want.hash()) << "seed " << seed;
  }
}

TEST_F(MempoolTest, RandomPendingEmptyPoolDrawsNothing) {
  auto pool = make();
  util::Rng rng(7), untouched(7);
  EXPECT_EQ(pool.random_pending(rng), nullptr);
  // No pending entries -> no RNG consumption (determinism contract).
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST_F(MempoolTest, ClearEmptiesEverything) {
  auto pool = make();
  pool.add(f.make(1, 0, 100), 0.0);
  pool.add(f.make(1, 1, 120), 0.0);
  pool.add(f.make(2, 3, 100), 0.0);  // future
  ASSERT_GT(pool.size(), 0u);

  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.pending_count(), 0u);
  EXPECT_EQ(pool.future_count(), 0u);
  EXPECT_FALSE(pool.contains(f.make(1, 0, 100).hash()));
  EXPECT_TRUE(pool.pending_snapshot().empty());

  // The pool keeps working after a wipe (crash/restart path).
  EXPECT_EQ(pool.add(f.make(3, 0, 100), 1.0).code, AdmitCode::kAddedPending);
  EXPECT_EQ(pool.pending_count(), 1u);
}

// The indexed heap against an ordered reference: random inserts and
// arbitrary erases over a recycled range of slab indices, the heap order
// and position table checked after every step.
TEST(FlatPriceIndex, MatchesOrderedReferenceUnderRandomErase) {
  util::Rng rng(7);
  FlatPriceIndex idx;
  std::set<std::pair<PriceKey, uint32_t>> ref;
  std::vector<bool> filed(64, false);
  uint64_t id = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto entry = static_cast<uint32_t>(rng.index(filed.size()));
    if (!filed[entry]) {
      const PriceKey key{10 * (1 + rng.index(20)), ++id, rng.next()};
      idx.insert(key, entry);
      ref.insert({key, entry});
    } else {
      const PriceKey key = idx.key_of(entry);
      idx.erase(entry);
      ASSERT_EQ(ref.erase({key, entry}), 1u) << "step " << step;
    }
    filed[entry] = !filed[entry];
    ASSERT_TRUE(idx.consistent()) << "step " << step;
    ASSERT_EQ(idx.size(), ref.size());
    ASSERT_EQ(idx.contains(entry), filed[entry]);
    if (!ref.empty()) {
      EXPECT_EQ(idx.min(), ref.begin()->first) << "step " << step;
      EXPECT_EQ(idx.min_entry(), ref.begin()->second) << "step " << step;
    }
  }
}

// An eviction flood through a full pool: the index never holds more nodes
// than the pool holds entries, so there is no spike to release afterwards.
TEST(FlatPriceIndex, FloodThroughAFullPoolKeepsTheHeapAtCapacity) {
  constexpr uint32_t kCapacity = 256;
  FlatPriceIndex idx;
  for (uint32_t e = 0; e < kCapacity; ++e) idx.insert({100, e, e}, e);
  for (uint64_t id = kCapacity; id < 16 * kCapacity; ++id) {
    const uint32_t victim = idx.min_entry();  // the cheapest, oldest entry
    idx.erase(victim);
    idx.insert({100 + id, id, id}, victim);  // the incomer reuses its slab index
    ASSERT_EQ(idx.size(), kCapacity);
  }
  EXPECT_TRUE(idx.consistent());
  EXPECT_EQ(idx.min().id, 15 * uint64_t{kCapacity});
}

}  // namespace
}  // namespace topo::mempool
