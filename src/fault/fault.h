#pragma once

// Seeded deterministic fault injection (topo::fault).
//
// A FaultPlan describes *what* can go wrong — per-message-kind drop
// probabilities, per-link latency spikes, and node faults (unresponsive
// windows, crash/restarts that wipe the mempool) — and a FaultInjector
// makes it happen against a live p2p::Network, drawing every decision from
// streams derived with util::derive_stream_seed. The same (seed, plan)
// therefore produces byte-identical campaign reports at any --threads
// width, and a default (all-zero) plan consumes no randomness at all, so
// installing it leaves unfaulted runs byte-identical to pre-fault builds.
//
// Layering: p2p exposes the FaultHook seam; topo::fault implements it and
// may reach down into nodes (restart, unresponsive windows). topo::core
// stays independent — its FaultReport annex is plain data this header
// knows how to fill in (make_fault_report).

#include <cstdint>
#include <vector>

#include "core/schedule.h"
#include "obs/metrics.h"
#include "p2p/fault_hook.h"
#include "p2p/network.h"
#include "util/rng.h"

namespace topo::fault {

/// One scheduled node fault: at sim time `at`, regular node `node` (an
/// index into Network::regular_nodes()) goes unresponsive for `duration`
/// seconds; if `crash` is set it additionally restarts (empty mempool, no
/// fetcher state) when the window closes.
struct NodeFaultEvent {
  double at = 0.0;
  double duration = 5.0;
  size_t node = 0;
  bool crash = false;
};

/// Declarative fault configuration. All-zero (the default) means "no
/// faults": enabled() is false and an injector built from it never draws
/// from its RNG streams.
struct FaultPlan {
  double drop_tx = 0.0;        ///< P(drop) per full-transaction push
  double drop_announce = 0.0;  ///< P(drop) per hash announcement
  double drop_get_tx = 0.0;    ///< P(drop) per body request
  double spike_prob = 0.0;     ///< fraction of directed links with slow latency
  double spike_mult = 4.0;     ///< latency multiplier on spiked links
  double churn_rate = 0.0;     ///< random node faults per sim second (Poisson)
  double churn_duration = 5.0; ///< unresponsive-window length of churn faults
  double crash_fraction = 0.0; ///< P(churn fault is a crash/restart)
  std::vector<NodeFaultEvent> scheduled;  ///< explicit node faults

  bool enabled() const {
    return drop_tx > 0.0 || drop_announce > 0.0 || drop_get_tx > 0.0 ||
           spike_prob > 0.0 || churn_rate > 0.0 || !scheduled.empty();
  }
};

/// Interned `fault.*` observability handles (aggregate, like NetObs).
struct FaultObs {
  obs::Counter* drops_tx = nullptr;        ///< fault.drops.tx
  obs::Counter* drops_announce = nullptr;  ///< fault.drops.announce
  obs::Counter* drops_get_tx = nullptr;    ///< fault.drops.get_tx
  obs::Counter* spikes = nullptr;          ///< fault.spikes (delayed messages)
  obs::Counter* restarts = nullptr;        ///< fault.restarts
  obs::Counter* windows = nullptr;         ///< fault.unresponsive_windows

  static FaultObs wire(obs::MetricsRegistry& reg);
  bool enabled() const { return drops_tx != nullptr; }
};

/// Executes a FaultPlan against one Network. Construction derives the
/// decision streams from (seed); install() arms the message hook and
/// schedules the node faults on the network's simulator as events this
/// injector receives (kFaultStart, kFaultEnd, kFaultChurn). The injector
/// lives outside the scenario's world: it must outlive every run of the
/// network's simulator (declare it after the scenario so it is destroyed
/// first — its pending events only fire while the simulator runs), and
/// Scenario::snapshot() rejects a world with its events pending.
class FaultInjector final : public p2p::FaultHook, public sim::EventSink {
 public:
  FaultInjector(FaultPlan plan, uint64_t seed);
  FaultInjector(const FaultInjector&) = delete;  ///< pending events hold its address
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms the injector: installs the message hook (only when the plan has
  /// message faults), schedules the plan's node-fault events, and starts
  /// the Poisson churn process if configured. `reg` (optional) wires the
  /// `fault.*` counters.
  void install(p2p::Network& net, obs::MetricsRegistry* reg = nullptr);

  /// Stops the churn process (pending windows still close).
  void stop() { active_ = false; }

  // p2p::FaultHook:
  bool should_drop(p2p::MsgKind kind, p2p::PeerId from, p2p::PeerId to) override;
  double latency_multiplier(p2p::MsgKind kind, p2p::PeerId from, p2p::PeerId to) override;

  // sim::EventSink: planned faults, window closes, churn ticks.
  void on_event(const sim::Event& ev) override;

  const FaultPlan& plan() const { return plan_; }

  // Tallies (kept locally so tests need no metrics registry).
  uint64_t dropped_total() const {
    return dropped_tx_ + dropped_announce_ + dropped_get_tx_;
  }
  uint64_t spiked_messages() const { return spiked_; }
  uint64_t restarts() const { return restarts_; }
  uint64_t unresponsive_windows() const { return windows_; }

 private:
  void apply_node_fault(size_t node_index, double duration, bool crash);
  void schedule_churn();

  FaultPlan plan_;
  p2p::Network* net_ = nullptr;  ///< set by install()
  util::Rng msg_rng_;    ///< drop decisions, in message-send order
  util::Rng churn_rng_;  ///< churn gaps + victim selection
  uint64_t link_seed_;   ///< spike membership hash (stateless, order-free)
  bool active_ = false;
  FaultObs obs_;

  uint64_t dropped_tx_ = 0;
  uint64_t dropped_announce_ = 0;
  uint64_t dropped_get_tx_ = 0;
  uint64_t spiked_ = 0;
  uint64_t restarts_ = 0;
  uint64_t windows_ = 0;
};

/// Builds the config-echo half of a report's fault annex from a plan (the
/// tally half is folded in by the drivers).
core::FaultReport make_fault_report(const FaultPlan& plan, size_t retries);

/// One ground-truth topology change applied by drift_topology: the
/// undirected link (u, v) (u < v) appeared or disappeared.
struct LinkChange {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  bool added = false;

  friend bool operator==(const LinkChange&, const LinkChange&) = default;
};

/// Applies `changes` seeded link rewires to a live ground-truth graph —
/// the moving-target topology the monitoring daemon (src/monitor) tracks
/// between epochs. Changes alternate removal (a uniformly random existing
/// edge) and addition (a uniformly random non-adjacent pair), so density
/// stays roughly stable under sustained churn; every decision draws from
/// `rng`, so the drift trajectory is a pure function of (graph, changes,
/// rng state). Returns the applied changes in order. Degenerate graphs
/// (no removable edge / no addable pair) skip the impossible direction.
std::vector<LinkChange> drift_topology(graph::Graph& g, size_t changes, util::Rng& rng);

}  // namespace topo::fault
