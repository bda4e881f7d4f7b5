#include "core/session.h"

#include <utility>

namespace topo::core {

template <typename Fn>
auto MeasurementSession::annotated(Fn&& fn) -> Annotated<decltype(fn())> {
  const obs::MetricsSnapshot before = scenario_.snapshot_metrics();
  auto value = fn();
  const obs::MetricsSnapshot after = scenario_.snapshot_metrics();
  return {std::move(value), after.diff_since(before)};
}

Annotated<OneLinkResult> MeasurementSession::one_link(p2p::PeerId a, p2p::PeerId b) {
  return annotated([&] {
    auto strat = scenario_.make_strategy(strategy_, config_);
    strat->prepare(scenario_);
    return strat->measure_pair(a, b);
  });
}

Annotated<ParallelResult> MeasurementSession::parallel(
    const std::vector<p2p::PeerId>& sources, const std::vector<p2p::PeerId>& sinks,
    const std::vector<ParallelEdge>& edges) {
  return annotated([&] {
    auto strat = scenario_.make_strategy(strategy_, config_);
    strat->prepare(scenario_);
    return strat->measure_batch(sources, sinks, edges);
  });
}

Annotated<NetworkMeasurementReport> MeasurementSession::network(size_t group_k,
                                                               const PreprocessReport* pre) {
  return annotated([&] {
    auto strat = scenario_.make_strategy(strategy_, config_);
    strat->prepare(scenario_);
    std::vector<p2p::PeerId> targets = scenario_.targets();
    if (pre != nullptr) {
      targets = pre->filter(targets);
      strat->set_flood_overrides(pre->flood_override);
    }
    return measure_all(*strat, targets, group_k);
  });
}

Annotated<PreprocessReport> MeasurementSession::preprocess() {
  return annotated([&] {
    Preprocessor pre(scenario_.net(), scenario_.m(), scenario_.accounts(), scenario_.factory(),
                     config_);
    return pre.probe(scenario_.targets());
  });
}

}  // namespace topo::core
