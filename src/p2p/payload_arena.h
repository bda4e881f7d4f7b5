#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eth/transaction.h"

namespace topo::p2p {

/// Chunked pool of in-flight full-transaction payloads, one slot per
/// pending kDeliverTx. Each slot holds the transaction together
/// with its content hash, computed once by the sending fan-out and handed
/// to the receiver with the delivery. Successor of the grow-only tx slab: slots
/// are recycled LIFO within fixed-size chunks, and a chunk whose slots all
/// drain is *released* (its memory freed, the chunk index retired for
/// reuse) once the arena is mostly empty — so an eviction-flood spike no
/// longer pins its high-water footprint for the rest of the campaign.
/// Chunk slots stay uninitialized until acquired, so materializing a chunk
/// for the next flood writes nothing. Released chunks are not kept as
/// spares: a spare pins heap memory between floods, and even four per
/// arena raised `campaign`'s peak RSS.
///
/// Slot handles are stable for the lifetime of the payload: a handle is
/// `chunk * kChunkSlots + offset`, and only fully-free chunks are ever
/// released, so a live handle can never be invalidated. Every operation is
/// deterministic — identical acquire/release histories produce identical
/// handle assignments, which keeps campaign replays byte-identical.
class PayloadArena {
 public:
  static constexpr uint32_t kChunkSlots = 256;

  /// One in-flight payload: the transaction and its content hash.
  struct Payload {
    eth::Transaction tx;
    eth::TxHash hash = 0;
  };

  /// Copies `tx` (whose content hash is `hash`) into a free slot and
  /// returns its handle.
  uint32_t acquire(const eth::Transaction& tx, eth::TxHash hash) {
    if (nonfull_.empty()) materialize_chunk();
    const uint32_t ci = nonfull_.back();
    Chunk& c = chunks_[ci];
    const uint32_t off = c.free_local.back();
    c.free_local.pop_back();
    if (c.free_local.empty()) nonfull_.pop_back();
    ::new (&c.txs[off].payload) Payload{tx, hash};
    ++c.live;
    ++live_;
    if (live_ > peak_) peak_ = live_;
    return ci * kChunkSlots + off;
  }

  const Payload& peek(uint32_t slot) const {
    return chunks_[slot / kChunkSlots].txs[slot % kChunkSlots].payload;
  }

  /// Copies the payload out and releases the slot (the delivery path).
  Payload take(uint32_t slot) {
    Payload p = peek(slot);
    release(slot);
    return p;
  }

  void release(uint32_t slot) {
    const uint32_t ci = slot / kChunkSlots;
    Chunk& c = chunks_[ci];
    if (c.free_local.empty()) nonfull_.push_back(ci);  // was full, has space again
    c.free_local.push_back(slot % kChunkSlots);
    assert(c.live > 0 && live_ > 0);
    --c.live;
    --live_;
    // Post-spike compaction: once the arena is at most half full, every
    // drained chunk hands its memory back instead of idling as warm
    // capacity — including chunks that emptied before the threshold was
    // crossed. Keeping one resident chunk avoids thrash at steady-state
    // zero.
    if (c.live == 0 && materialized_ > 1 && live_ * 2 < capacity_slots()) {
      compact();
    }
  }

  size_t live() const { return live_; }
  size_t capacity_slots() const { return size_t{materialized_} * kChunkSlots; }

  /// Most payloads ever simultaneously in flight (`net.arena_peak`).
  uint64_t peak() const { return peak_; }
  /// Restarts the high-water gauge from the current level (per-fork reset,
  /// like the mempool index tombstone peak).
  void reset_peak() { peak_ = live_; }

  /// Live payloads only, by handle — chunk layout is rebuilt on restore,
  /// so a spike that preceded the snapshot costs the replica nothing.
  struct Snapshot {
    std::vector<std::pair<uint32_t, Payload>> slots;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.slots.reserve(live_);
    for (uint32_t ci = 0; ci < chunks_.size(); ++ci) {
      const Chunk& c = chunks_[ci];
      if (c.live == 0) continue;
      std::unordered_set<uint32_t> free_set(c.free_local.begin(), c.free_local.end());
      for (uint32_t off = 0; off < kChunkSlots; ++off) {
        if (!free_set.count(off)) {
          s.slots.emplace_back(ci * kChunkSlots + off, c.txs[off].payload);
        }
      }
    }
    return s;
  }

  void restore(const Snapshot& snap) {
    chunks_.clear();
    nonfull_.clear();
    retired_.clear();
    materialized_ = 0;
    live_ = 0;
    peak_ = 0;
    uint32_t max_chunk = 0;
    for (const auto& entry : snap.slots) max_chunk = std::max(max_chunk, entry.first / kChunkSlots);
    if (!snap.slots.empty()) chunks_.resize(max_chunk + 1);
    std::vector<std::vector<bool>> used(chunks_.size());
    for (const auto& [slot, payload] : snap.slots) {
      Chunk& c = chunks_[slot / kChunkSlots];
      if (c.txs == nullptr) {
        c.txs = std::make_unique<Slot[]>(kChunkSlots);
        used[slot / kChunkSlots].assign(kChunkSlots, false);
        ++materialized_;
      }
      ::new (&c.txs[slot % kChunkSlots].payload) Payload{payload};
      used[slot / kChunkSlots][slot % kChunkSlots] = true;
      ++c.live;
      ++live_;
    }
    for (uint32_t ci = 0; ci < chunks_.size(); ++ci) {
      Chunk& c = chunks_[ci];
      if (c.txs == nullptr) {
        retired_.push_back(ci);
        continue;
      }
      for (uint32_t off = kChunkSlots; off-- > 0;) {
        if (!used[ci][off]) c.free_local.push_back(off);
      }
      if (!c.free_local.empty()) nonfull_.push_back(ci);
    }
    peak_ = live_;
  }

 private:
  /// Storage for one payload, constructed by acquire/restore (the union
  /// keeps a materialized chunk from initializing slots nobody reads).
  union Slot {
    Slot() {}
    Payload payload;
  };

  struct Chunk {
    std::unique_ptr<Slot[]> txs;        ///< kChunkSlots slots; null = released
    std::vector<uint32_t> free_local;   ///< free offsets, LIFO
    uint32_t live = 0;
  };

  void materialize_chunk() {
    uint32_t ci;
    if (!retired_.empty()) {
      ci = retired_.back();
      retired_.pop_back();
    } else {
      ci = static_cast<uint32_t>(chunks_.size());
      chunks_.emplace_back();
    }
    Chunk& c = chunks_[ci];
    c.txs = std::make_unique<Slot[]>(kChunkSlots);
    c.free_local.reserve(kChunkSlots);
    for (uint32_t off = kChunkSlots; off-- > 0;) c.free_local.push_back(off);
    ++materialized_;
    nonfull_.push_back(ci);
  }

  /// Releases every fully drained chunk but the last resident one.
  void compact() {
    for (uint32_t ci = 0; ci < chunks_.size() && materialized_ > 1; ++ci) {
      Chunk& c = chunks_[ci];
      if (c.live == 0 && c.txs != nullptr) release_chunk(ci);
    }
  }

  void release_chunk(uint32_t ci) {
    chunks_[ci] = Chunk{};
    nonfull_.erase(std::find(nonfull_.begin(), nonfull_.end(), ci));
    retired_.push_back(ci);
    --materialized_;
  }

  std::vector<Chunk> chunks_;
  std::vector<uint32_t> nonfull_;  ///< materialized chunks with free slots (LIFO)
  std::vector<uint32_t> retired_;  ///< released chunk indices awaiting reuse
  uint32_t materialized_ = 0;
  size_t live_ = 0;
  uint64_t peak_ = 0;
};

}  // namespace topo::p2p
