#include "eth/chain.h"

#include <algorithm>

namespace topo::eth {

Chain::Chain(uint64_t block_gas_limit, Wei base_fee)
    : gas_limit_(block_gas_limit), base_fee_(base_fee) {}

Nonce Chain::next_nonce(Address a) const {
  const Nonce* n = st_->next_nonce.find(a);
  return n == nullptr ? 0 : *n;
}

const Block& Chain::commit(Block b) {
  State& s = st_.mutate();
  b.number = s.blocks.size();
  b.gas_limit = gas_limit_;
  b.base_fee = base_fee_;
  b.gas_used = 0;
  for (const auto& tx : b.txs) {
    b.gas_used += tx.gas;
    Nonce& n = s.next_nonce[tx.sender];
    n = std::max(n, tx.nonce + 1);
    s.included[tx.hash()] = b.number;
  }
  base_fee_ = next_base_fee(b);
  s.blocks.push_back(std::move(b));
  const Block& stored = s.blocks.back();
  for (const auto& fn : observers_) fn(stored);
  return stored;
}

void Chain::senders_since(uint64_t from, std::vector<Address>& out) const {
  out.clear();
  const std::vector<Block>& blocks = st_->blocks;
  for (size_t h = from; h < blocks.size(); ++h) {
    for (const auto& tx : blocks[h].txs) out.push_back(tx.sender);
  }
}

std::vector<const Block*> Chain::blocks_in(double t1, double t2) const {
  std::vector<const Block*> out;
  // Half-open [t1, t2): a block stamped exactly at the seam of two
  // adjacent windows belongs to the later one, never both.
  for (const auto& b : st_->blocks) {
    if (b.timestamp >= t1 && b.timestamp < t2) out.push_back(&b);
  }
  return out;
}

}  // namespace topo::eth
