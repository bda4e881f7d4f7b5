#include "disc/discv4.h"

#include <algorithm>
#include <cassert>

namespace topo::disc {

// ---------------------------------------------------------------------------
// DiscV4Node
// ---------------------------------------------------------------------------

DiscV4Node::DiscV4Node(uint32_t index, NodeId256 id, DiscV4Config config, DiscV4Net* net,
                       util::Rng rng)
    : index_(index), id_(id), config_(config), net_(net), rng_(rng),
      buckets_(config.num_buckets) {}

size_t DiscV4Node::bucket_of(const NodeId256& id) const {
  const int ld = log_distance(id_, id);
  if (ld < 0) return 0;
  const int base = 256 - static_cast<int>(buckets_.size());
  return static_cast<size_t>(std::max(ld - base, 0));
}

void DiscV4Node::bootstrap(uint32_t seed_index, const NodeId256& seed_id) {
  consider(seed_index, seed_id);
  auto& sim = net_->simulator();
  const double jitter = rng_.uniform() * config_.refresh_interval;
  sim.schedule_at(sim.now() + 0.01 + jitter * 0.01,
                  sim::Event::typed(sim::EventKind::kDiscRefresh, net_, index_, 1));
  // Kick off immediately as well.
  sim.schedule_after(0.02 + rng_.uniform() * 0.05,
                     sim::Event::typed(sim::EventKind::kDiscRefresh, net_, index_, 0));
}

void DiscV4Node::on_refresh(bool periodic) {
  lookup(id_);
  lookup(random_id(rng_));
  if (periodic) {
    net_->simulator().schedule_after(
        config_.refresh_interval, sim::Event::typed(sim::EventKind::kDiscRefresh, net_, index_, 1));
  }
}

void DiscV4Node::consider(uint32_t index, const NodeId256& id) {
  if (index == index_ || entries_.count(index)) return;
  const size_t b = bucket_of(id);
  auto& bucket = buckets_[b];
  if (bucket.size() < config_.bucket_size) {
    bucket.push_back(Entry{index, id, -1.0});
    entries_[index] = b;
    ping(index);  // endpoint proof
    return;
  }
  // Bucket full: challenge the least-recently seen entry. Only one
  // outstanding challenge per old entry; newcomers racing it are dropped
  // (the discv4 anti-eclipse policy).
  auto oldest = std::min_element(bucket.begin(), bucket.end(), [](const Entry& a, const Entry& b) {
    return a.last_pong < b.last_pong;
  });
  if (oldest == bucket.end() || challenges_.count(oldest->index)) return;
  challenges_[oldest->index] = {index, id};
  ping(oldest->index);
}

void DiscV4Node::ping(uint32_t index) {
  auto& sim = net_->simulator();
  if (ping_deadline_.count(index)) return;  // already in flight
  ping_deadline_[index] = sim.now() + config_.ping_timeout;
  net_->send_ping(index_, index);
  sim.schedule_after(config_.ping_timeout,
                     sim::Event::typed(sim::EventKind::kDiscPingTimeout, net_, index_, index));
}

void DiscV4Node::on_ping_timeout(uint32_t index) {
  auto it = ping_deadline_.find(index);
  if (it == ping_deadline_.end()) return;  // PONG arrived in time
  ping_deadline_.erase(it);
  // Timeout: the contact is dead. Resolve any eviction challenge in the
  // newcomer's favor and drop the entry.
  auto entry_it = entries_.find(index);
  if (entry_it != entries_.end()) {
    auto& bucket = buckets_[entry_it->second];
    bucket.erase(std::find_if(bucket.begin(), bucket.end(),
                              [&](const Entry& e) { return e.index == index; }));
    entries_.erase(entry_it);
  }
  auto challenge = challenges_.find(index);
  if (challenge != challenges_.end()) {
    const auto [new_index, new_id] = challenge->second;
    challenges_.erase(challenge);
    consider(new_index, new_id);
  }
}

void DiscV4Node::on_ping(uint32_t from, const NodeId256& from_id) {
  net_->send_pong(index_, from);
  consider(from, from_id);  // learn the pinger
}

void DiscV4Node::on_pong(uint32_t from) {
  ping_deadline_.erase(from);
  auto it = entries_.find(from);
  if (it != entries_.end()) {
    for (auto& e : buckets_[it->second]) {
      if (e.index == from) e.last_pong = net_->simulator().now();
    }
  }
  // A live answer defeats the newcomer's challenge.
  challenges_.erase(from);
}

std::vector<std::pair<uint32_t, NodeId256>> DiscV4Node::closest(const NodeId256& target,
                                                                size_t k) const {
  std::vector<std::pair<uint32_t, NodeId256>> all;
  for (const auto& bucket : buckets_) {
    for (const auto& e : bucket) all.push_back({e.index, e.id});
  }
  std::sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
    return distance_less(xor_distance(a.second, target), xor_distance(b.second, target));
  });
  if (all.size() > k) all.resize(k);
  return all;
}

void DiscV4Node::on_findnode(uint32_t from, const NodeId256& from_id, const NodeId256& target) {
  consider(from, from_id);
  net_->send_neighbors(index_, from, closest(target, config_.lookup_k));
}

void DiscV4Node::on_neighbors(uint32_t from,
                              const std::vector<std::pair<uint32_t, NodeId256>>& nodes) {
  for (const auto& [index, id] : nodes) consider(index, id);
  // Advance any lookup waiting on this responder.
  for (size_t i = 0; i < lookups_.size(); ++i) {
    auto& lk = lookups_[i];
    if (lk.in_flight == 0) continue;
    if (std::find(lk.asked.begin(), lk.asked.end(), from) == lk.asked.end()) continue;
    if (lk.responded.count(from) || lk.timed_out.count(from)) continue;
    lk.responded.insert(from);
    --lk.in_flight;
    for (const auto& node : nodes) {
      if (node.first == index_) continue;
      const bool known = std::any_of(lk.candidates.begin(), lk.candidates.end(),
                                     [&](const auto& c) { return c.first == node.first; });
      if (!known) lk.candidates.push_back(node);
    }
    lookup_step(i);
  }
}

void DiscV4Node::lookup(const NodeId256& target,
                        std::function<void(std::vector<uint32_t>)> done) {
  Lookup lk;
  lk.target = target;
  lk.candidates = closest(target, config_.lookup_k);
  lk.done = std::move(done);
  lookups_.push_back(std::move(lk));
  lookup_step(lookups_.size() - 1);
}

void DiscV4Node::lookup_step(size_t lookup_idx) {
  auto& lk = lookups_[lookup_idx];
  std::sort(lk.candidates.begin(), lk.candidates.end(), [&](const auto& a, const auto& b) {
    return distance_less(xor_distance(a.second, lk.target), xor_distance(b.second, lk.target));
  });
  size_t launched = 0;
  for (const auto& [index, id] : lk.candidates) {
    if (lk.in_flight >= config_.lookup_alpha) break;
    if (std::find(lk.asked.begin(), lk.asked.end(), index) != lk.asked.end()) continue;
    lk.asked.push_back(index);
    ++lk.in_flight;
    ++launched;
    net_->send_findnode(index_, index, lk.target);
    // Responder may be dead or the datagram lost: time the slot out.
    net_->simulator().schedule_after(
        config_.ping_timeout * 2,
        sim::Event::typed(sim::EventKind::kDiscLookupTimeout, net_, index_, index, lookup_idx));
  }
  if (launched == 0 && lk.in_flight == 0) finish_lookup(lookup_idx);
}

void DiscV4Node::on_lookup_timeout(size_t lookup_idx, uint32_t asked_index) {
  if (lookup_idx >= lookups_.size()) return;
  auto& lk = lookups_[lookup_idx];
  // If the responder never advanced the lookup, release its slot once.
  if (lk.in_flight > 0 &&
      std::find(lk.asked.begin(), lk.asked.end(), asked_index) != lk.asked.end() &&
      !lk.timed_out.count(asked_index) && !lk.responded.count(asked_index)) {
    lk.timed_out.insert(asked_index);
    --lk.in_flight;
    lookup_step(lookup_idx);
  }
}

void DiscV4Node::finish_lookup(size_t lookup_idx) {
  auto& lk = lookups_[lookup_idx];
  if (lk.done) {
    std::vector<uint32_t> out;
    for (const auto& [index, id] : lk.candidates) {
      out.push_back(index);
      if (out.size() >= config_.lookup_k) break;
    }
    lk.done(std::move(out));
    lk.done = nullptr;
  }
}

std::vector<uint32_t> DiscV4Node::table_entries() const {
  std::vector<uint32_t> out;
  out.reserve(entries_.size());
  for (const auto& [index, bucket] : entries_) out.push_back(index);
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<double> DiscV4Node::last_seen(uint32_t index) const {
  auto it = entries_.find(index);
  if (it == entries_.end()) return std::nullopt;
  for (const auto& e : buckets_[it->second]) {
    if (e.index == index && e.last_pong >= 0.0) return e.last_pong;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// DiscV4Net
// ---------------------------------------------------------------------------

DiscV4Net::DiscV4Net(sim::Simulator* sim, util::Rng rng, double latency, double loss)
    : sim_(sim), rng_(rng), latency_(latency), loss_(loss) {}

uint32_t DiscV4Net::add_node(const DiscV4Config& config) {
  const uint32_t index = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(
      std::make_unique<DiscV4Node>(index, random_id(rng_), config, this, rng_.split()));
  dead_.push_back(false);
  return index;
}

void DiscV4Net::converge(double seconds) {
  for (uint32_t i = 1; i < nodes_.size(); ++i) {
    nodes_[i]->bootstrap(0, nodes_[0]->id());
  }
  if (!nodes_.empty()) {
    // The bootnode learns the rest through their pings; give it a refresh
    // loop as well.
    nodes_[0]->bootstrap(nodes_.size() > 1 ? 1 : 0,
                         nodes_[nodes_.size() > 1 ? 1 : 0]->id());
  }
  sim_->run_until(sim_->now() + seconds);
}

void DiscV4Net::set_dead(uint32_t index, bool dead) { dead_[index] = dead; }

void DiscV4Net::deliver(uint32_t from, uint32_t to, Datagram type, Body body) {
  ++datagrams_;
  if (rng_.chance(loss_)) return;  // dropped datagram
  const double delay = latency_ * (0.5 + rng_.uniform());
  uint64_t payload = static_cast<uint64_t>(type);
  if (has_body(type)) {
    const uint32_t slot = bodies_.alloc({});
    bodies_[slot] = std::move(body);
    payload |= uint64_t{slot} << 8;
  }
  sim_->schedule_after(delay, sim::Event::typed(sim::EventKind::kDiscDatagram, this, to, from,
                                                payload));
}

void DiscV4Net::send_ping(uint32_t from, uint32_t to) { deliver(from, to, Datagram::kPing); }

void DiscV4Net::send_pong(uint32_t from, uint32_t to) { deliver(from, to, Datagram::kPong); }

void DiscV4Net::send_findnode(uint32_t from, uint32_t to, const NodeId256& target) {
  deliver(from, to, Datagram::kFindNode, Body{target, {}});
}

void DiscV4Net::send_neighbors(uint32_t from, uint32_t to,
                               std::vector<std::pair<uint32_t, NodeId256>> nodes) {
  deliver(from, to, Datagram::kNeighbors, Body{{}, std::move(nodes)});
}

void DiscV4Net::on_event(const sim::Event& ev) {
  DiscV4Node& node = *nodes_[ev.a];
  switch (ev.kind) {
    case sim::EventKind::kDiscRefresh:
      node.on_refresh(ev.b != 0);
      break;
    case sim::EventKind::kDiscPingTimeout:
      node.on_ping_timeout(ev.b);
      break;
    case sim::EventKind::kDiscLookupTimeout:
      node.on_lookup_timeout(static_cast<size_t>(ev.payload), ev.b);
      break;
    case sim::EventKind::kDiscDatagram: {
      const auto type = static_cast<Datagram>(ev.payload & 0xff);
      const auto slot = static_cast<uint32_t>(ev.payload >> 8);
      Body body;
      if (has_body(type)) {
        // Take the body and free its slot before any handler sends again.
        body = std::move(bodies_[slot]);
        bodies_.release(slot);
      }
      if (dead_[ev.a]) break;  // dead nodes answer nothing
      switch (type) {
        case Datagram::kPing: node.on_ping(ev.b, nodes_[ev.b]->id()); break;
        case Datagram::kPong: node.on_pong(ev.b); break;
        case Datagram::kFindNode: node.on_findnode(ev.b, nodes_[ev.b]->id(), body.target); break;
        case Datagram::kNeighbors: node.on_neighbors(ev.b, body.nodes); break;
      }
      break;
    }
    default:
      assert(false && "unexpected event kind routed to DiscV4Net");
      break;
  }
}

}  // namespace topo::disc
