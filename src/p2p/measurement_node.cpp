#include "p2p/measurement_node.h"

#include <algorithm>

#include "p2p/network.h"

namespace topo::p2p {

MeasurementNode::MeasurementNode(Network* net, const eth::StateView* state, double send_spacing,
                                 std::optional<mempool::MempoolPolicy> view_policy)
    : net_(net),
      view_(view_policy ? *view_policy : mempool::profile_for(mempool::ClientKind::kGeth).policy,
            state),
      blocks_seen_(net->chain().height()),
      send_spacing_(send_spacing) {}

void MeasurementNode::deliver_tx(const eth::Transaction& tx, eth::TxHash hash, PeerId from) {
  const double now = net_->simulator().now();
  log_.append(hash, from, now);
  view_.add(tx, hash, now);
}

void MeasurementNode::deliver_announce(eth::TxHash hash, PeerId from) {
  // Always request announced bodies: M wants to observe everything.
  if (view_.contains(hash)) return;
  net_->send_get_tx(id(), from, hash);
}

void MeasurementNode::deliver_get_tx(eth::TxHash hash, PeerId from) {
  // M never serves transactions; it is a passive endpoint.
  (void)hash;
  (void)from;
}

void MeasurementNode::on_block_commit() {
  const eth::Chain& chain = net_->chain();
  view_.set_base_fee(chain.base_fee());
  chain.senders_since(blocks_seen_, block_senders_);
  view_.on_block(block_senders_);
  blocks_seen_ = chain.height();
}

void MeasurementNode::set_metrics(obs::MetricsRegistry& reg) {
  injected_counter_ = &reg.counter("probe.txs_injected");
}

double MeasurementNode::send_to(PeerId peer, const eth::Transaction& tx) {
  auto& sim = net_->simulator();
  next_free_send_ = std::max(next_free_send_, sim.now()) + send_spacing_;
  const double extra = next_free_send_ - sim.now();
  net_->send_tx(id(), peer, tx, extra);
  ++txs_sent_;
  if (injected_counter_ != nullptr) injected_counter_->inc();
  return next_free_send_;
}

double MeasurementNode::send_batch_to(PeerId peer, const std::vector<eth::Transaction>& txs) {
  double t = net_->simulator().now();
  for (const auto& tx : txs) t = send_to(peer, tx);
  return t;
}

bool MeasurementNode::received_from(eth::TxHash hash, PeerId peer) const {
  return received_from_since(hash, peer, 0.0);
}

void MeasurementNode::ReceiveLog::append(eth::TxHash hash, PeerId from, double at) {
  const auto i = static_cast<uint32_t>(records.size());
  records.push_back(Record{from, UINT32_MAX, at});
  if (Run* run = runs.find(hash)) {
    records[run->last].next = i;
    run->last = i;
  } else {
    runs.insert(hash, Run{i, i});
  }
}

bool MeasurementNode::received_from_since(eth::TxHash hash, PeerId peer, double since) const {
  bool found = false;
  log_.visit(hash, [&](const ReceiveLog::Record& rec) {
    found = rec.from == peer && rec.at >= since;
    return !found;
  });
  return found;
}

bool MeasurementNode::received_only_from(eth::TxHash hash, PeerId peer, double since) const {
  bool from_peer = false;
  bool leaked = false;
  log_.visit(hash, [&](const ReceiveLog::Record& rec) {
    if (rec.at < since) return true;
    if (rec.from != peer) {
      leaked = true;  // leak observed: isolation broken
      return false;
    }
    from_peer = true;
    return true;
  });
  return from_peer && !leaked;
}

std::vector<std::pair<PeerId, double>> MeasurementNode::receptions(eth::TxHash hash) const {
  std::vector<std::pair<PeerId, double>> out;
  log_.visit(hash, [&](const ReceiveLog::Record& rec) {
    out.emplace_back(rec.from, rec.at);
    return true;
  });
  return out;
}

void MeasurementNode::clear_log() { log_ = ReceiveLog{}; }

void MeasurementNode::connect_to_all() {
  for (PeerId n : net_->regular_nodes()) net_->connect(id(), n);
}

}  // namespace topo::p2p
