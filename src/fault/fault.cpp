#include "fault/fault.h"

#include <algorithm>
#include <cassert>

#include "p2p/node.h"

namespace topo::fault {

FaultObs FaultObs::wire(obs::MetricsRegistry& reg) {
  FaultObs o;
  o.drops_tx = &reg.counter("fault.drops.tx");
  o.drops_announce = &reg.counter("fault.drops.announce");
  o.drops_get_tx = &reg.counter("fault.drops.get_tx");
  o.spikes = &reg.counter("fault.spikes");
  o.restarts = &reg.counter("fault.restarts");
  o.windows = &reg.counter("fault.unresponsive_windows");
  return o;
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed)
    : plan_(std::move(plan)),
      msg_rng_(util::derive_stream_seed(seed, 1)),
      churn_rng_(util::derive_stream_seed(seed, 2)),
      link_seed_(util::derive_stream_seed(seed, 3)) {}

void FaultInjector::install(p2p::Network& net, obs::MetricsRegistry* reg) {
  if (reg != nullptr) obs_ = FaultObs::wire(*reg);
  net_ = &net;
  active_ = true;
  if (plan_.drop_tx > 0.0 || plan_.drop_announce > 0.0 || plan_.drop_get_tx > 0.0 ||
      plan_.spike_prob > 0.0) {
    net.set_fault_hook(this);
  }
  for (size_t i = 0; i < plan_.scheduled.size(); ++i) {
    if (plan_.scheduled[i].node >= net.regular_nodes().size()) continue;
    net.simulator().schedule_at(plan_.scheduled[i].at,
                                sim::Event::typed(sim::EventKind::kFaultStart, this, 0, 0, i));
  }
  if (plan_.churn_rate > 0.0 && !net.regular_nodes().empty()) {
    schedule_churn();
  }
}

void FaultInjector::on_event(const sim::Event& ev) {
  switch (ev.kind) {
    case sim::EventKind::kFaultStart: {
      const NodeFaultEvent& f = plan_.scheduled[ev.payload];
      apply_node_fault(f.node, f.duration, f.crash);
      break;
    }
    case sim::EventKind::kFaultEnd: {
      p2p::Node& n = net_->node(ev.a);
      if (ev.b != 0) {
        n.restart();
        ++restarts_;
        if (obs_.enabled()) obs_.restarts->inc();
      }
      n.set_unresponsive(false);
      break;
    }
    case sim::EventKind::kFaultChurn: {
      if (!active_) break;
      const size_t victim = churn_rng_.index(net_->regular_nodes().size());
      const bool crash = churn_rng_.chance(plan_.crash_fraction);
      apply_node_fault(victim, plan_.churn_duration, crash);
      schedule_churn();
      break;
    }
    default:
      assert(false && "unexpected event kind routed to FaultInjector");
      break;
  }
}

bool FaultInjector::should_drop(p2p::MsgKind kind, p2p::PeerId /*from*/,
                                p2p::PeerId /*to*/) {
  switch (kind) {
    case p2p::MsgKind::kTx:
      if (!msg_rng_.chance(plan_.drop_tx)) return false;
      ++dropped_tx_;
      if (obs_.enabled()) obs_.drops_tx->inc();
      return true;
    case p2p::MsgKind::kAnnounce:
      if (!msg_rng_.chance(plan_.drop_announce)) return false;
      ++dropped_announce_;
      if (obs_.enabled()) obs_.drops_announce->inc();
      return true;
    case p2p::MsgKind::kGetTx:
      if (!msg_rng_.chance(plan_.drop_get_tx)) return false;
      ++dropped_get_tx_;
      if (obs_.enabled()) obs_.drops_get_tx->inc();
      return true;
  }
  return false;
}

double FaultInjector::latency_multiplier(p2p::MsgKind /*kind*/, p2p::PeerId from,
                                         p2p::PeerId to) {
  if (plan_.spike_prob <= 0.0) return 1.0;
  // Spike membership is a pure hash of the directed link, not an RNG draw:
  // the decision is identical whatever order messages traverse the
  // network, which keeps shard replicas byte-identical.
  uint64_t h = link_seed_ ^ ((static_cast<uint64_t>(from) << 32) | static_cast<uint64_t>(to));
  const double u =
      static_cast<double>(util::splitmix64(h) >> 11) * (1.0 / 9007199254740992.0);
  if (u >= plan_.spike_prob) return 1.0;
  ++spiked_;
  if (obs_.enabled()) obs_.spikes->inc();
  return plan_.spike_mult;
}

void FaultInjector::apply_node_fault(size_t node_index, double duration, bool crash) {
  const p2p::PeerId id = net_->regular_nodes()[node_index];
  p2p::Node& node = net_->node(id);
  if (node.unresponsive()) return;  // already inside a fault window
  node.set_unresponsive(true);
  ++windows_;
  if (obs_.enabled()) obs_.windows->inc();
  net_->simulator().schedule_after(
      duration, sim::Event::typed(sim::EventKind::kFaultEnd, this, id, crash ? 1 : 0));
}

void FaultInjector::schedule_churn() {
  const double gap = churn_rng_.exponential(1.0 / plan_.churn_rate);
  net_->simulator().schedule_after(gap, sim::Event::typed(sim::EventKind::kFaultChurn, this));
}

core::FaultReport make_fault_report(const FaultPlan& plan, size_t retries) {
  core::FaultReport f;
  f.drop_tx = plan.drop_tx;
  f.drop_announce = plan.drop_announce;
  f.drop_get_tx = plan.drop_get_tx;
  f.spike_prob = plan.spike_prob;
  f.spike_mult = plan.spike_prob > 0.0 ? plan.spike_mult : 1.0;
  f.churn_rate = plan.churn_rate;
  f.retries = retries;
  return f;
}

std::vector<LinkChange> drift_topology(graph::Graph& g, size_t changes, util::Rng& rng) {
  std::vector<LinkChange> applied;
  applied.reserve(changes);
  const size_t n = g.num_nodes();
  if (n < 2) return applied;
  const size_t all_pairs = n * (n - 1) / 2;
  for (size_t c = 0; c < changes; ++c) {
    // Even steps remove, odd steps add — alternating keeps the edge count
    // (and the monitor's coverage math) roughly stable under sustained
    // churn. A step whose direction is impossible falls through to the
    // other one so the requested change count is honored when it can be.
    bool remove = (c % 2) == 0;
    if (remove && g.num_edges() == 0) remove = false;
    if (!remove && g.num_edges() == all_pairs) remove = g.num_edges() > 0;
    if (remove) {
      const auto edges = g.edges();
      const auto [u, v] = edges[rng.index(edges.size())];
      g.remove_edge(u, v);
      applied.push_back({u, v, false});
    } else if (g.num_edges() < all_pairs) {
      // Rejection-sample a non-adjacent pair; the loop terminates because a
      // free slot exists, and stays deterministic (every draw is from rng).
      for (;;) {
        const auto u = static_cast<graph::NodeId>(rng.index(n));
        const auto v = static_cast<graph::NodeId>(rng.index(n));
        if (u == v || g.has_edge(u, v)) continue;
        g.add_edge(u, v);
        applied.push_back({std::min(u, v), std::max(u, v), true});
        break;
      }
    }
  }
  return applied;
}

}  // namespace topo::fault
