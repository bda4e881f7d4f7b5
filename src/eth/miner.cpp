#include "eth/miner.h"

#include <algorithm>
#include <cstdint>

#include "util/flat_hash_map.h"

namespace topo::eth {

namespace {

constexpr uint32_t kEnd = UINT32_MAX;

/// The executable head of one sender's run.
struct Head {
  Wei price;
  uint64_t id;
  uint32_t tx;     ///< candidate index
  uint32_t group;  ///< sender group, in order of first appearance
};

/// Max-heap order: higher price first, then the lower tx id (determinism),
/// then the earlier sender.
bool pops_after(const Head& a, const Head& b) {
  if (a.price != b.price) return a.price < b.price;
  if (a.id != b.id) return a.id > b.id;
  return a.group > b.group;
}

}  // namespace

std::vector<Transaction> pack_block(const std::vector<Transaction>& candidates,
                                    const StateView& state, uint64_t gas_limit, Wei base_fee) {
  // Each sender's includable candidates form one list ordered by (nonce,
  // position), linked through `next`. Candidates usually arrive in nonce
  // order per sender (a pool snapshot), so most land at a list's tail.
  struct Group {
    uint32_t first;
    uint32_t last;
  };
  std::vector<Group> groups;
  std::vector<uint32_t> next(candidates.size(), kEnd);
  util::FlatHashMap<uint32_t> group_of;
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    const Transaction& tx = candidates[i];
    if (!tx.includable(base_fee)) continue;
    const uint32_t* g = group_of.find(tx.sender);
    if (g == nullptr) {
      group_of.insert(tx.sender, static_cast<uint32_t>(groups.size()));
      groups.push_back(Group{i, i});
      continue;
    }
    Group& group = groups[*g];
    if (candidates[group.last].nonce <= tx.nonce) {
      next[group.last] = i;
      group.last = i;
      continue;
    }
    uint32_t* link = &group.first;
    while (candidates[*link].nonce <= tx.nonce) link = &next[*link];
    next[i] = *link;
    *link = i;
  }

  // Takes the candidate for the nonce at `cursor` — the first occurrence of
  // the highest pool price among its duplicates, mirroring mempool
  // replacement — and moves `cursor` past that nonce.
  const auto take = [&](uint32_t& cursor) {
    uint32_t best = cursor;
    for (cursor = next[cursor]; cursor != kEnd && candidates[cursor].nonce == candidates[best].nonce;
         cursor = next[cursor]) {
      if (candidates[cursor].pool_price() > candidates[best].pool_price()) best = cursor;
    }
    return best;
  };
  const auto head = [&](uint32_t tx, uint32_t group) {
    return Head{candidates[tx].effective_price(base_fee), candidates[tx].id, tx, group};
  };

  // Each sender's run starts executing at its confirmed next nonce.
  std::vector<uint32_t> cursor(groups.size(), kEnd);
  std::vector<Head> heap;
  for (uint32_t g = 0; g < groups.size(); ++g) {
    uint32_t at = groups[g].first;
    const Nonce start = state.next_nonce(candidates[at].sender);
    while (at != kEnd && candidates[at].nonce < start) at = next[at];
    if (at == kEnd || candidates[at].nonce != start) continue;
    heap.push_back(head(take(at), g));
    cursor[g] = at;
  }
  std::make_heap(heap.begin(), heap.end(), pops_after);

  std::vector<Transaction> out;
  uint64_t gas_used = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), pops_after);
    const Head top = heap.back();
    heap.pop_back();
    const Transaction& tx = candidates[top.tx];
    if (gas_used + tx.gas > gas_limit) {
      // Price-priority packing: do not skip ahead to cheaper transactions;
      // a full block is full (keeps V1 semantics simple and conservative).
      break;
    }
    out.push_back(tx);
    gas_used += tx.gas;
    uint32_t& at = cursor[top.group];
    if (at != kEnd && candidates[at].nonce == tx.nonce + 1) {
      heap.push_back(head(take(at), top.group));
      std::push_heap(heap.begin(), heap.end(), pops_after);
    }
  }
  return out;
}

}  // namespace topo::eth
