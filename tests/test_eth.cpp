// Unit tests for the Ethereum substrate: transactions, accounts, blocks,
// chain state, and price-priority block packing.

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>
#include <unordered_map>

#include "eth/chain.h"
#include "eth/miner.h"
#include "eth/transaction.h"
#include "util/rng.h"

namespace topo::eth {
namespace {

TEST(Transaction, HashesAreUniquePerTransaction) {
  TxFactory f;
  std::set<TxHash> hashes;
  for (int i = 0; i < 1000; ++i) {
    hashes.insert(f.make(1, i, 100).hash());
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(Transaction, SameFieldsDifferentIdDifferentHash) {
  TxFactory f;
  const auto a = f.make(1, 0, 100);
  const auto b = f.make(1, 0, 100);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Transaction, PoolPriceUsesMaxFeeFor1559) {
  TxFactory f;
  const auto legacy = f.make(1, 0, 100);
  EXPECT_EQ(legacy.pool_price(), 100u);
  const auto t = f.make1559(1, 0, 500, 20);
  EXPECT_EQ(t.pool_price(), 500u);
}

TEST(Transaction, EffectivePrice1559) {
  TxFactory f;
  const auto t = f.make1559(1, 0, 500, 20);
  EXPECT_EQ(t.effective_price(100), 120u);   // base + prio
  EXPECT_EQ(t.effective_price(490), 500u);   // capped at max fee
  EXPECT_EQ(t.effective_price(501), 0u);     // underpriced
  EXPECT_FALSE(t.includable(501));
  EXPECT_TRUE(t.includable(500));
}

TEST(Transaction, GweiConversion) {
  EXPECT_EQ(gwei(1.0), kGwei);
  EXPECT_EQ(gwei(0.1), kGwei / 10);
}

TEST(Account, ManagerAllocatesDistinctAddresses) {
  AccountManager am;
  const auto a = am.create(10);
  std::set<Address> uniq(a.begin(), a.end());
  EXPECT_EQ(uniq.size(), 10u);
  EXPECT_EQ(am.count(), 10u);
}

TEST(Account, NonceAllocationIsSequential) {
  AccountManager am;
  const Address a = am.create_one();
  EXPECT_EQ(am.allocate_nonce(a), 0u);
  EXPECT_EQ(am.allocate_nonce(a), 1u);
  EXPECT_EQ(am.next_nonce(a), 2u);
  EXPECT_EQ(am.future_nonce(a, 3), 5u);
}

TEST(Account, MapStateConfirmAdvances) {
  MapState s;
  EXPECT_EQ(s.next_nonce(5), 0u);
  s.confirm(5, 0);
  EXPECT_EQ(s.next_nonce(5), 1u);
  s.confirm(5, 7);
  EXPECT_EQ(s.next_nonce(5), 8u);
  s.confirm(5, 2);  // never regresses
  EXPECT_EQ(s.next_nonce(5), 8u);
}

TEST(Block, FullnessWithinOneTransfer) {
  Block b;
  b.gas_limit = 100'000;
  b.gas_used = 100'000 - kTransferGas + 1;  // no room for one more transfer
  EXPECT_TRUE(b.is_full());
  b.gas_used = 100'000 - kTransferGas;  // exactly one more transfer fits
  EXPECT_FALSE(b.is_full());
}

TEST(Block, BaseFeeUpdateDirection) {
  Block parent;
  parent.gas_limit = 1000;
  parent.base_fee = 800;
  parent.gas_used = 500;  // exactly target
  EXPECT_EQ(next_base_fee(parent), 800u);
  parent.gas_used = 1000;  // full -> +12.5%
  EXPECT_EQ(next_base_fee(parent), 900u);
  parent.gas_used = 0;  // empty -> -12.5%
  EXPECT_EQ(next_base_fee(parent), 700u);
}

TEST(Block, ZeroBaseFeeStaysLegacy) {
  Block parent;
  parent.gas_limit = 1000;
  parent.base_fee = 0;
  parent.gas_used = 1000;
  EXPECT_EQ(next_base_fee(parent), 0u);
}

TEST(Chain, CommitAdvancesNoncesAndIndexesHashes) {
  Chain chain(1'000'000);
  TxFactory f;
  Block b;
  b.timestamp = 3.0;
  const auto tx = f.make(42, 0, 100);
  b.txs.push_back(tx);
  b.txs.push_back(f.make(42, 1, 100));
  chain.commit(std::move(b));
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(chain.next_nonce(42), 2u);
  EXPECT_TRUE(chain.includes(tx.hash()));
  EXPECT_FALSE(chain.includes(f.make(42, 2, 100).hash()));
}

TEST(Chain, BlocksInWindow) {
  Chain chain(1'000'000);
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    Block b;
    b.timestamp = t;
    chain.commit(std::move(b));
  }
  EXPECT_EQ(chain.blocks_in(2.0, 3.5).size(), 2u);
  EXPECT_EQ(chain.blocks_in(0.0, 10.0).size(), 4u);
}

TEST(Chain, ObserversNotified) {
  Chain chain(1'000'000);
  int called = 0;
  chain.subscribe([&](const Block&) { ++called; });
  chain.commit(Block{});
  chain.commit(Block{});
  EXPECT_EQ(called, 2);
}

TEST(Miner, PacksByPriceDescending) {
  MapState state;
  TxFactory f;
  std::vector<Transaction> cands;
  cands.push_back(f.make(1, 0, 100));
  cands.push_back(f.make(2, 0, 300));
  cands.push_back(f.make(3, 0, 200));
  const auto packed = pack_block(cands, state, 10 * kTransferGas, 0);
  ASSERT_EQ(packed.size(), 3u);
  EXPECT_EQ(packed[0].gas_price, 300u);
  EXPECT_EQ(packed[1].gas_price, 200u);
  EXPECT_EQ(packed[2].gas_price, 100u);
}

TEST(Miner, RespectsPerSenderNonceOrder) {
  MapState state;
  TxFactory f;
  std::vector<Transaction> cands;
  // Sender 1's nonce-1 tx is pricier than nonce-0, but nonce order rules.
  cands.push_back(f.make(1, 1, 500));
  cands.push_back(f.make(1, 0, 50));
  const auto packed = pack_block(cands, state, 10 * kTransferGas, 0);
  ASSERT_EQ(packed.size(), 2u);
  EXPECT_EQ(packed[0].nonce, 0u);
  EXPECT_EQ(packed[1].nonce, 1u);
}

TEST(Miner, SkipsSendersWithNonceGap) {
  MapState state;
  TxFactory f;
  std::vector<Transaction> cands;
  cands.push_back(f.make(1, 1, 500));  // gap: nonce 0 missing
  cands.push_back(f.make(2, 0, 10));
  const auto packed = pack_block(cands, state, 10 * kTransferGas, 0);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0].sender, 2u);
}

TEST(Miner, StopsAtGasLimit) {
  MapState state;
  TxFactory f;
  std::vector<Transaction> cands;
  for (int i = 0; i < 10; ++i) cands.push_back(f.make(100 + i, 0, 100 + i));
  const auto packed = pack_block(cands, state, 3 * kTransferGas, 0);
  EXPECT_EQ(packed.size(), 3u);
  // The three most expensive won.
  EXPECT_EQ(packed[0].gas_price, 109u);
  EXPECT_EQ(packed[2].gas_price, 107u);
}

TEST(Miner, Excludes1559UnderBaseFee) {
  MapState state;
  TxFactory f;
  std::vector<Transaction> cands;
  cands.push_back(f.make1559(1, 0, 90, 5));   // below base fee
  cands.push_back(f.make1559(2, 0, 200, 5));  // fine
  const auto packed = pack_block(cands, state, 10 * kTransferGas, 100);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0].sender, 2u);
}

TEST(Miner, ReplacementDuplicateResolvedByPrice) {
  MapState state;
  TxFactory f;
  std::vector<Transaction> cands;
  cands.push_back(f.make(1, 0, 100));
  cands.push_back(f.make(1, 0, 150));  // replacement of the same slot
  const auto packed = pack_block(cands, state, 10 * kTransferGas, 0);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0].gas_price, 150u);
}

TEST(Miner, StartsFromConfirmedNonce) {
  MapState state;
  state.set_next_nonce(1, 5);
  TxFactory f;
  std::vector<Transaction> cands;
  cands.push_back(f.make(1, 4, 100));  // stale
  cands.push_back(f.make(1, 5, 100));
  const auto packed = pack_block(cands, state, 10 * kTransferGas, 0);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0].nonce, 5u);
}

/// The map-based packer pack_block replaced, kept as the differential
/// reference: per-sender std::map queues and a priority queue of heads.
std::vector<Transaction> reference_pack_block(const std::vector<Transaction>& candidates,
                                              const StateView& state, uint64_t gas_limit,
                                              Wei base_fee) {
  struct Head {
    Wei price;
    uint64_t tie;
    Address sender;
    bool operator<(const Head& o) const {
      if (price != o.price) return price < o.price;
      return tie > o.tie;
    }
  };
  std::unordered_map<Address, std::map<Nonce, const Transaction*>> by_sender;
  for (const auto& tx : candidates) {
    if (!tx.includable(base_fee)) continue;
    auto& q = by_sender[tx.sender];
    auto [it, inserted] = q.try_emplace(tx.nonce, &tx);
    if (!inserted && tx.pool_price() > it->second->pool_price()) it->second = &tx;
  }
  std::priority_queue<Head> heap;
  std::unordered_map<Address, Nonce> expect;
  for (auto& [sender, q] : by_sender) {
    const Nonce n = state.next_nonce(sender);
    expect[sender] = n;
    auto it = q.find(n);
    if (it != q.end())
      heap.push(Head{it->second->effective_price(base_fee), it->second->id, sender});
  }
  std::vector<Transaction> out;
  uint64_t gas_used = 0;
  while (!heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    auto& q = by_sender[head.sender];
    auto it = q.find(expect[head.sender]);
    if (it == q.end()) continue;
    const Transaction& tx = *it->second;
    if (gas_used + tx.gas > gas_limit) break;
    out.push_back(tx);
    gas_used += tx.gas;
    const Nonce next = ++expect[head.sender];
    auto nit = q.find(next);
    if (nit != q.end())
      heap.push(Head{nit->second->effective_price(base_fee), nit->second->id, head.sender});
  }
  return out;
}

// Random candidate sets with duplicate (sender, nonce) pairs at equal and
// differing prices, nonce gaps, stale nonces, EIP-1559 transactions under
// the base fee and mixed gas, packed into limits that cut blocks short.
TEST(Miner, MatchesTheReferencePackerOnRandomCandidates) {
  util::Rng rng(2024);
  for (int round = 0; round < 400; ++round) {
    MapState state;
    TxFactory f;
    for (Address a = 1; a <= 12; ++a) state.set_next_nonce(a, rng.index(3));
    const Wei base_fee = rng.chance(0.5) ? 0 : 50 + rng.index(100);
    std::vector<Transaction> cands;
    const size_t n = rng.index(80);
    for (size_t i = 0; i < n; ++i) {
      const Address sender = 1 + rng.index(12);
      const Nonce nonce = rng.index(7);
      const Wei price = 10 * (1 + rng.index(30));
      Transaction tx = rng.chance(0.3) ? f.make1559(sender, nonce, price, rng.index(40))
                                       : f.make(sender, nonce, price);
      tx.gas = kTransferGas * (1 + rng.index(3));
      cands.push_back(tx);
      if (rng.chance(0.2)) {
        // A duplicate slot: sometimes the same price (the first one wins).
        Transaction dup = f.make(sender, nonce, rng.chance(0.5) ? price : 10 * (1 + rng.index(30)));
        cands.push_back(dup);
      }
    }
    const uint64_t gas_limit = kTransferGas * (1 + rng.index(60));
    const auto got = pack_block(cands, state, gas_limit, base_fee);
    const auto want = reference_pack_block(cands, state, gas_limit, base_fee);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id) << "round " << round << " position " << i;
    }
  }
}

}  // namespace
}  // namespace topo::eth
