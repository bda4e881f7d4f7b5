#include "monitor/monitor.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "obs/prometheus.h"
#include "util/rng.h"

namespace topo::monitor {

namespace {
/// Stream tags separating the monitor's seed consumers: every epoch's
/// drift RNG and world seed derive from (world.seed, tag, epoch), so no
/// epoch shares randomness with another or with anything inside the
/// campaign (which derives its own streams from the world seed it is
/// handed).
constexpr uint64_t kDriftStream = 0xD81F;
constexpr uint64_t kWorldStream = 0xE70C;

uint64_t epoch_seed(uint64_t base, uint64_t stream, uint64_t epoch) {
  return util::derive_stream_seed(util::derive_stream_seed(base, stream), epoch);
}

/// Merged-campaign gauge lookup (sums across shards in the merge).
double campaign_gauge(const obs::MetricsSnapshot& m, const char* name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}
}  // namespace

TopologyMonitor::TopologyMonitor(graph::Graph truth, core::ScenarioOptions world,
                                 core::MeasureConfig cfg, MonitorOptions opt)
    : truth_(std::move(truth)),
      world_(world),
      cfg_(core::MeasureConfig::Builder(cfg).collect_diagnostics(true).build()),
      opt_(std::move(opt)),
      table_(truth_.num_nodes()) {
  // Publish the pre-run telemetry so readers never see null: an empty ring
  // classifies as stalled, and the registry exposes as an empty document.
  health_ = std::make_shared<const HealthReport>(classify_health({}, opt_.health));
  exposition_ = std::make_shared<const std::string>(obs::expose_prometheus(metrics_));
}

size_t TopologyMonitor::effective_epoch_budget() const {
  const size_t total = table_.pairs_total();
  size_t budget = opt_.epoch_budget != 0
                      ? opt_.epoch_budget
                      : std::max<size_t>(16, total * 3 / 20);
  return std::min(budget, total);
}

std::vector<std::pair<size_t, size_t>> TopologyMonitor::select_pairs(
    uint64_t epoch) const {
  if (epoch == 0 && opt_.bootstrap_full) {
    std::vector<std::pair<size_t, size_t>> all;
    all.reserve(table_.pairs_total());
    for (size_t u = 0; u + 1 < table_.nodes(); ++u)
      for (size_t v = u + 1; v < table_.nodes(); ++v) all.emplace_back(u, v);
    return all;
  }
  std::vector<std::pair<size_t, size_t>> pri =
      table_.prioritized_pairs(epoch, opt_.decay_half_life);
  const size_t budget = effective_epoch_budget();
  if (pri.size() > budget) pri.resize(budget);
  return pri;
}

TopologyMonitor::EpochResult TopologyMonitor::run_epoch() {
  const uint64_t epoch = epochs_run_;
  EpochResult res;
  res.epoch = epoch;

  // Events logged mid-epoch stamp with the epoch's *start* time; the
  // summary and health events at the bottom re-stamp with its end.
  log_.set_clock(sim_seconds_total_);
  log_.log(util::LogLevel::kDebug, "monitor", "epoch-start",
           {{"epoch", rpc::Json(epoch)}});

  // (1) Drift the ground truth. Epoch 0 measures the world as handed in.
  std::set<size_t> touched;  // nodes the discovery hints named this epoch
  if (epoch > 0 && opt_.churn_per_epoch > 0.0) {
    util::Rng drift_rng(epoch_seed(world_.seed, kDriftStream, epoch));
    size_t n_changes = static_cast<size_t>(std::floor(opt_.churn_per_epoch));
    const double frac = opt_.churn_per_epoch - std::floor(opt_.churn_per_epoch);
    if (frac > 0.0 && drift_rng.chance(frac)) ++n_changes;
    const std::vector<fault::LinkChange> applied =
        fault::drift_topology(truth_, n_changes, drift_rng);
    res.changes_injected = applied.size();
    // (2) Discovery hints: the monitor is told *which nodes* churned (the
    // peer-list signal a real deployment observes), never which links —
    // it must localize the change itself by re-measuring incident pairs.
    for (const fault::LinkChange& ch : applied) {
      changes_log_.push_back({epoch, ch});
      touched.insert(static_cast<size_t>(ch.u));
      touched.insert(static_cast<size_t>(ch.v));
    }
    for (size_t node : touched) res.hints += table_.hint_node(node);
    if (res.changes_injected > 0) {
      log_.log(util::LogLevel::kInfo, "monitor", "churn-hints",
               {{"epoch", rpc::Json(epoch)},
                {"changes", rpc::Json(static_cast<uint64_t>(res.changes_injected))},
                {"hinted", rpc::Json(static_cast<uint64_t>(res.hints))}});
    }
  }

  // Forced re-measurement demand entering selection: tracked pairs with
  // *both* endpoints in this epoch's churn hints (the candidate set every
  // changed link must be in — single-endpoint incidence is speculative
  // fan-out) plus never-measured pairs. Against the budget this is the
  // watchdog's saturation signal — when it fills the budget, staleness
  // rotation stops.
  size_t strong_hints = 0;
  for (auto a = touched.begin(); a != touched.end(); ++a) {
    for (auto b = std::next(a); b != touched.end(); ++b) {
      if (table_.find(*a, *b) != nullptr) ++strong_hints;
    }
  }
  const size_t demand =
      strong_hints + (table_.pairs_total() - table_.tracked());

  if (!budget_clamp_logged_ && table_.pairs_total() > 0 &&
      opt_.epoch_budget > table_.pairs_total()) {
    budget_clamp_logged_ = true;
    log_.log(util::LogLevel::kWarn, "monitor", "budget-clamped",
             {{"requested", rpc::Json(static_cast<uint64_t>(opt_.epoch_budget))},
              {"clamped", rpc::Json(static_cast<uint64_t>(effective_epoch_budget()))}});
  }

  // (3) Select and measure. The bootstrap epoch runs the full §5.3.2
  // schedule (CampaignOptions::pairs empty); incremental epochs batch
  // exactly the prioritized subset. An empty selection (degenerate worlds
  // with no candidate pairs) skips the campaign outright — CampaignOptions
  // treats an empty pair list as "the full schedule", which is not what an
  // empty selection means.
  const std::vector<std::pair<size_t, size_t>> selected = select_pairs(epoch);
  res.pairs_selected = selected.size();

  exec::CampaignResult result;
  if (!selected.empty()) {
    exec::CampaignOptions copt;
    copt.group_k = opt_.group_k;
    copt.strategy = opt_.strategy;
    copt.threads = opt_.threads;
    copt.shards = opt_.shards;
    copt.churn_rate = opt_.traffic_churn_rate;
    copt.fault_plan = opt_.fault_plan;
    if (!(epoch == 0 && opt_.bootstrap_full)) copt.pairs = selected;

    core::ScenarioOptions wopt = world_;
    wopt.seed = epoch_seed(world_.seed, kWorldStream, epoch);
    result = exec::run_sharded_campaign(truth_, wopt, cfg_, copt);
  }
  res.sim_seconds = result.makespan_sim_seconds;

  // (4) Fold verdicts. The campaign's merged report spells out connected
  // pairs (measured graph) and still-inconclusive pairs (diagnostics
  // annex, forced on in the ctor); everything else it tested is a clean
  // negative.
  std::set<std::pair<size_t, size_t>> inconclusive;
  if (result.report.diagnostics.has_value()) {
    for (const core::PairDiagnostic& d : result.report.diagnostics->inconclusive)
      inconclusive.emplace(std::min(d.u, d.v), std::max(d.u, d.v));
  }
  size_t reprobed = 0;
  uint64_t lag_sum = 0;
  for (const auto& [u, v] : selected) {
    core::Verdict verdict = core::Verdict::kNegative;
    if (result.report.measured.has_edge(static_cast<graph::NodeId>(u),
                                        static_cast<graph::NodeId>(v))) {
      verdict = core::Verdict::kConnected;
    } else if (inconclusive.count({std::min(u, v), std::max(u, v)}) != 0) {
      verdict = core::Verdict::kInconclusive;
    }
    const LinkTable::Entry* prev = table_.find(u, v);
    if (prev != nullptr) ++reprobed;
    const uint64_t prev_measured = prev == nullptr ? epoch : prev->measured_epoch;
    if (table_.record(u, v, verdict, epoch)) {
      ++res.flips;
      lag_sum += epoch - prev_measured;  // flips always have a prior entry
    }
  }
  pairs_measured_ += selected.size();
  changes_observed_ += res.flips;

  // (5) Publish. The snapshot carries no sim-time fields, so it is
  // byte-identical wherever the measurement outcomes are.
  auto snap = std::make_shared<const TopologySnapshot>(table_.snapshot(
      epoch, opt_.decay_half_life, pairs_measured_, changes_observed_));
  res.snapshot = snap;

  const size_t budget =
      epoch == 0 && opt_.bootstrap_full ? selected.size() : effective_epoch_budget();
  const double utilization =
      budget == 0 ? 0.0 : static_cast<double>(demand) / static_cast<double>(budget);
  const uint64_t events_drained =
      static_cast<uint64_t>(campaign_gauge(result.metrics, "sim.events_processed"));
  double conf_sum = 0.0;
  for (const LinkEntry& le : snap->links) conf_sum += le.confidence;
  const double mean_conf =
      snap->links.empty() ? 0.0
                          : conf_sum / static_cast<double>(snap->links.size());

  // Observability: only shard-invariant series go into the monitor's own
  // registry (the determinism golden byte-compares its export — and now
  // its Prometheus exposition — across --shards); sim-time durations and
  // event counts are shards-dependent and live in the EpochStats ring.
  metrics_.counter("monitor.epochs").inc();
  metrics_.counter("monitor.pairs_measured").inc(selected.size());
  metrics_.counter("monitor.pairs_reprobed").inc(reprobed);
  metrics_.counter("monitor.changes_detected").inc(res.flips);
  metrics_.counter("monitor.hints").inc(res.hints);
  metrics_.counter("monitor.drift.injected").inc(res.changes_injected);
  metrics_.gauge("monitor.version").set(static_cast<double>(epoch));
  metrics_.gauge("monitor.coverage")
      .set(snap->pairs_total == 0 ? 0.0
                                  : static_cast<double>(snap->links.size()) /
                                        static_cast<double>(snap->pairs_total));
  metrics_.gauge("monitor.links_connected")
      .set(static_cast<double>(snap->connected_count()));
  metrics_.gauge("monitor.confidence.mean").set(mean_conf);
  metrics_.histogram("monitor.epoch.utilization", obs::fraction_bounds())
      .observe(utilization);
  metrics_.gauge("obs.log.dropped").set(static_cast<double>(log_.dropped()));

  EpochStats st;
  st.epoch = epoch;
  st.sim_seconds = result.makespan_sim_seconds;
  st.events_drained = events_drained;
  st.pairs_selected = selected.size();
  st.pairs_reprobed = reprobed;
  st.flips = res.flips;
  st.budget_utilization = utilization;
  st.mean_confidence = mean_conf;
  st.detection_lag_epochs =
      res.flips == 0 ? 0.0
                     : static_cast<double>(lag_sum) / static_cast<double>(res.flips);
  stats_.push_back(st);
  const size_t cap = std::max<size_t>(1, opt_.stats_capacity);
  if (stats_.size() > cap) stats_.erase(stats_.begin(), stats_.end() - cap);

  // End-of-epoch events stamp with the epoch's end time.
  log_.set_clock(sim_seconds_total_ + result.makespan_sim_seconds);
  if (!(epoch == 0 && opt_.bootstrap_full) && !selected.empty() &&
      utilization >= opt_.health.saturation_utilization) {
    log_.log(util::LogLevel::kWarn, "monitor", "budget-saturated",
             {{"epoch", rpc::Json(epoch)},
              {"utilization", rpc::Json(utilization)}});
  }

  auto report =
      std::make_shared<const HealthReport>(classify_health(stats_, opt_.health));
  if (report->state != last_health_) {
    log_.log(report->state == HealthState::kOk ? util::LogLevel::kInfo
                                               : util::LogLevel::kWarn,
             "monitor", "health-changed",
             {{"epoch", rpc::Json(epoch)},
              {"from", rpc::Json(health_state_name(last_health_))},
              {"to", rpc::Json(health_state_name(report->state))},
              {"reason", rpc::Json(report->reason)}});
    last_health_ = report->state;
  }
  log_.log(util::LogLevel::kInfo, "monitor", "epoch",
           {{"epoch", rpc::Json(epoch)},
            {"pairs", rpc::Json(static_cast<uint64_t>(selected.size()))},
            {"reprobed", rpc::Json(static_cast<uint64_t>(reprobed))},
            {"flips", rpc::Json(static_cast<uint64_t>(res.flips))},
            {"hints", rpc::Json(static_cast<uint64_t>(res.hints))},
            {"drift", rpc::Json(static_cast<uint64_t>(res.changes_injected))},
            {"sim_seconds", rpc::Json(result.makespan_sim_seconds)},
            {"events", rpc::Json(events_drained)},
            {"utilization", rpc::Json(utilization)},
            {"health", rpc::Json(health_state_name(report->state))}});

  auto expo =
      std::make_shared<const std::string>(obs::expose_prometheus(metrics_));
  {
    const std::lock_guard<std::mutex> lock(versions_mutex_);
    versions_.push_back(snap);
    health_ = report;
    exposition_ = expo;
  }

  if (opt_.collect_spans) {
    const uint64_t id = tracer_.open(obs::SpanKind::kEpoch, sim_seconds_total_,
                                     obs::epoch_span_id(epoch), 0, epoch,
                                     selected.size());
    tracer_.close(id, sim_seconds_total_ + result.makespan_sim_seconds);
  }
  sim_seconds_total_ += result.makespan_sim_seconds;

  ++epochs_run_;
  return res;
}

void TopologyMonitor::run(uint64_t epochs) {
  for (uint64_t i = 0; i < epochs; ++i) run_epoch();
}

std::shared_ptr<const TopologySnapshot> TopologyMonitor::snapshot(
    uint64_t version) const {
  const std::lock_guard<std::mutex> lock(versions_mutex_);
  if (version >= versions_.size()) return nullptr;
  return versions_[version];
}

std::shared_ptr<const TopologySnapshot> TopologyMonitor::latest() const {
  const std::lock_guard<std::mutex> lock(versions_mutex_);
  return versions_.empty() ? nullptr : versions_.back();
}

uint64_t TopologyMonitor::versions() const {
  const std::lock_guard<std::mutex> lock(versions_mutex_);
  return versions_.size();
}

std::optional<TopologyDiff> TopologyMonitor::diff(uint64_t v1, uint64_t v2) const {
  std::shared_ptr<const TopologySnapshot> a, b;
  {
    const std::lock_guard<std::mutex> lock(versions_mutex_);
    if (v1 >= versions_.size() || v2 >= versions_.size()) return std::nullopt;
    a = versions_[v1];
    b = versions_[v2];
  }
  return compute_diff(*a, *b);
}

MonitorStatus TopologyMonitor::status() const {
  const std::shared_ptr<const TopologySnapshot> snap = latest();
  MonitorStatus s;
  if (snap == nullptr) {
    s.nodes = table_.nodes();
    s.pairs_total = table_.pairs_total();
  } else {
    s = make_status(*snap, versions());
  }
  // Ring-pressure telemetry (status-v2): the daemon's own event log, which
  // accumulates over the whole run.
  s.log_dropped = log_.dropped();
  return s;
}

std::shared_ptr<const HealthReport> TopologyMonitor::health() const {
  const std::lock_guard<std::mutex> lock(versions_mutex_);
  return health_;
}

std::shared_ptr<const std::string> TopologyMonitor::metrics_exposition() const {
  const std::lock_guard<std::mutex> lock(versions_mutex_);
  return exposition_;
}

TrackingEvaluation evaluate_tracking(const TopologyMonitor& m, uint64_t within) {
  TrackingEvaluation ev;
  if (within == 0) return ev;
  const std::vector<InjectedChange>& log = m.injected_changes();
  const uint64_t versions = m.versions();
  double latency_sum = 0.0;
  for (size_t i = 0; i < log.size(); ++i) {
    const InjectedChange& ch = log[i];
    const uint64_t window_end = ch.epoch + within - 1;  // inclusive epochs
    // A later change to the same pair inside the window overwrites this
    // one before it can be scored fairly.
    bool superseded = false;
    for (size_t j = i + 1; j < log.size() && !superseded; ++j) {
      superseded = log[j].change.u == ch.change.u && log[j].change.v == ch.change.v &&
                   log[j].epoch <= window_end;
    }
    if (superseded) {
      ++ev.superseded;
      continue;
    }
    bool detected = false;
    uint64_t latency = 0;
    const uint64_t last = versions == 0 ? 0 : versions - 1;
    for (uint64_t v = ch.epoch; versions != 0 && v <= std::min(window_end, last); ++v) {
      const std::shared_ptr<const TopologySnapshot> snap = m.snapshot(v);
      const LinkEntry* e = snap->find(ch.change.u, ch.change.v);
      const bool connected = e != nullptr && e->verdict == core::Verdict::kConnected;
      if (connected == ch.change.added) {
        detected = true;
        latency = v - ch.epoch;
        break;
      }
    }
    if (detected) {
      ++ev.scoreable;
      ++ev.detected;
      latency_sum += static_cast<double>(latency);
    } else if (versions == 0 || window_end > versions - 1) {
      ++ev.pending;  // the window is not fully published yet
    } else {
      ++ev.scoreable;  // a clean miss
    }
  }
  ev.mean_latency_epochs =
      ev.detected == 0 ? 0.0 : latency_sum / static_cast<double>(ev.detected);
  return ev;
}

}  // namespace topo::monitor
