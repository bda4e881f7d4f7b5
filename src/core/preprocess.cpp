#include "core/preprocess.h"

#include "core/strategy.h"

namespace topo::core {

std::vector<p2p::PeerId> PreprocessReport::filter(const std::vector<p2p::PeerId>& targets) const {
  std::vector<p2p::PeerId> out;
  out.reserve(targets.size());
  for (p2p::PeerId t : targets) {
    if (!excluded(t)) out.push_back(t);
  }
  return out;
}

Preprocessor::Preprocessor(p2p::Network& net, p2p::MeasurementNode& m,
                           eth::AccountManager& accounts, eth::TxFactory& factory,
                           MeasureConfig config)
    : net_(net), m_(m), accounts_(accounts), factory_(factory), config_(config) {}

PreprocessReport Preprocessor::probe(const std::vector<p2p::PeerId>& targets) {
  PreprocessReport report;
  auto& sim = net_.simulator();

  // A node never propagates back to the peer that sent it a transaction,
  // so the sender M cannot observe the target's forwarding behaviour
  // directly. The paper launches an additional *monitor* node connected to
  // the target (§6.2.1); probes are sent by M and observed by the monitor.
  p2p::MeasurementNode monitor(&net_, &net_.chain());
  net_.register_peer(&monitor);
  for (p2p::PeerId t : targets) net_.connect(monitor.id(), t);

  struct ProbeTx {
    eth::TxHash future_hash;
    eth::TxHash pending_hash;
  };
  std::vector<ProbeTx> probes(targets.size());

  for (size_t i = 0; i < targets.size(); ++i) {
    // Future probe: nonce-gapped transaction a compliant node must buffer
    // silently. The monitor seeing it means the target forwards futures.
    const eth::Address fa = accounts_.create_one();
    const eth::Transaction future =
        factory_.make(fa, accounts_.future_nonce(fa, 1), config_.price_future());
    probes[i].future_hash = future.hash();
    m_.send_to(targets[i], future);

    // Responsiveness probe: a pending transaction a healthy target must
    // forward to its peers (the monitor among them).
    const eth::Address pa = accounts_.create_one();
    const eth::Transaction pending =
        factory_.make(pa, accounts_.allocate_nonce(pa), config_.price_future());
    probes[i].pending_hash = pending.hash();
    m_.send_to(targets[i], pending);
  }

  sim.run_until(m_.send_backlog_until() + config_.detect_wait);

  for (size_t i = 0; i < targets.size(); ++i) {
    if (monitor.received_from(probes[i].future_hash, targets[i]))
      report.future_forwarders.insert(targets[i]);
    if (!monitor.received_from(probes[i].pending_hash, targets[i]))
      report.unresponsive.insert(targets[i]);
  }

  // Detach the temporary monitor: severs its links and makes it safe to
  // destroy while late messages are still in flight.
  net_.detach_peer(monitor.id());
  return report;
}

size_t Preprocessor::probe_flood_size(p2p::PeerId target, p2p::PeerId local_b,
                                      const std::vector<size_t>& z_ladder) {
  for (size_t z : z_ladder) {
    MeasureConfig cfg = config_;
    cfg.flood_Z = z;
    ToposhotStrategy probe(net_, m_, accounts_, factory_, cfg);
    if (probe.measure_pair(target, local_b).connected) return z;
  }
  return 0;
}

}  // namespace topo::core
