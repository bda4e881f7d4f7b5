// Workload `monitor_rpc`: the TopologyMonitor epoch loop on one writer
// thread, over an overlay that drifts every epoch, with reader threads
// running a closed loop of JSON-RPC reads through MonitorRpcServer::handle
// beside it. Construction plus the bootstrap epoch are set-up.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/validator.h"
#include "monitor/monitor.h"
#include "obs/prometheus.h"
#include "rpc/monitor_rpc.h"

namespace perfbench {

namespace {

using namespace topo;

/// The fixed read mix, one request of each method per cycle.
constexpr const char* kMethods[] = {"topo_getSnapshot", "topo_getDiff", "topo_getStatus",
                                    "topo_getMetrics", "topo_getHealth"};
constexpr const char* kSpanNames[] = {"rpc.get_snapshot", "rpc.get_diff", "rpc.get_status",
                                      "rpc.get_metrics", "rpc.get_health"};
constexpr size_t kMix = 5;

struct Inputs {
  graph::Graph truth;
  core::ScenarioOptions world;
  core::MeasureConfig cfg;
  monitor::MonitorOptions mopt;
};

std::unique_ptr<monitor::TopologyMonitor> bootstrapped(const Inputs& in) {
  auto mon = std::make_unique<monitor::TopologyMonitor>(in.truth, in.world, in.cfg, in.mopt);
  mon->run_epoch();
  return mon;
}

/// The unsigned value of the last `"key":` field in a serialised document
/// (no full parse on the read path).
uint64_t last_field(const std::string& doc, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = doc.rfind(needle);
  return at == std::string::npos ? UINT64_MAX : std::strtoull(doc.c_str() + at + needle.size(), nullptr, 10);
}

/// One reader thread's closed loop and its checks.
struct Reader {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bytes = 0;
  std::string first_failure;
  std::unique_ptr<Ledger> ledger;

  void fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }

  void run(const monitor::TopologyMonitor& mon, const std::atomic<bool>& stop, bool traced) {
    ledger = std::make_unique<Ledger>(traced);
    rpc::MonitorRpcServer server(&mon);
    uint64_t snap_version = 0, status_version = 0;
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const size_t m = i % kMix;
      const uint64_t v = snap_version;
      std::string params = "[]";
      if (m == 1) params = "[" + std::to_string(v == 0 ? 0 : v - 1) + "," + std::to_string(v) + "]";
      const std::string req = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(i) +
                              ",\"method\":\"" + kMethods[m] + "\",\"params\":" + params + "}";
      const std::string resp = ledger->span(kSpanNames[m], [&] { return server.handle(req); });
      bytes += resp.size();
      ++attempted;
      // Object keys serialise sorted, so an error reply starts with "error".
      if (resp.compare(0, 9, "{\"error\":") == 0 || resp.find("\"result\":") == std::string::npos) {
        fail(std::string(kMethods[m]) + " returned an error: " + resp.substr(0, 160));
        continue;
      }
      if (m == 0 || m == 2) {
        uint64_t& last = m == 0 ? snap_version : status_version;
        const uint64_t got = last_field(resp, "version");
        if (got == UINT64_MAX || got < last) {
          fail(std::string(kMethods[m]) + " version went backwards");
        } else {
          last = got;
        }
      }
    }
  }
};

struct Loop {
  std::vector<double> epoch_ms;
  double wall_s = 0.0;
  uint64_t pairs = 0;
  std::vector<Reader> readers;
};

/// Runs epochs on this thread with `n_readers` reader threads beside them
/// until both `seconds` and `min_epochs` are reached (or `max_seconds`).
Loop epoch_loop(monitor::TopologyMonitor& mon, size_t n_readers, double seconds,
                size_t min_epochs, double max_seconds, Ledger& L) {
  Loop out;
  out.readers.resize(n_readers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(n_readers);
  for (Reader& r : out.readers) {
    threads.emplace_back([&mon, &stop, &r, traced = L.enabled()] { r.run(mon, stop, traced); });
  }
  const auto t0 = Clock::now();
  try {
    while ((seconds_since(t0) < seconds || out.epoch_ms.size() < min_epochs) &&
           seconds_since(t0) < max_seconds) {
      const auto e0 = Clock::now();
      const monitor::TopologyMonitor::EpochResult r =
          L.span("monitor.run_epoch", [&] { return mon.run_epoch(); });
      out.epoch_ms.push_back(seconds_since(e0) * 1e3);
      out.pairs += r.pairs_selected;
    }
  } catch (...) {
    stop = true;
    for (std::thread& t : threads) t.join();
    throw;
  }
  out.wall_s = seconds_since(t0);
  stop = true;
  for (std::thread& t : threads) t.join();
  return out;
}

void fold_readers(RunResult& res, const Loop& loop) {
  for (const Reader& r : loop.readers) {
    res.attempted += r.attempted;
    res.failed += r.failed;
    if (!r.first_failure.empty()) res.failures.push_back(r.first_failure);
  }
}

/// The latest snapshot's connected links against the monitor's drifted
/// ground truth.
void score_latest(RunResult& res, const monitor::TopologyMonitor& mon) {
  const graph::Graph& truth = mon.truth();
  graph::Graph measured(truth.num_nodes());
  for (const monitor::LinkEntry& e : mon.latest()->links) {
    if (e.verdict == core::Verdict::kConnected) {
      measured.add_edge(static_cast<graph::NodeId>(e.u), static_cast<graph::NodeId>(e.v));
    }
  }
  const core::PrecisionRecall pr = core::compare_graphs(truth, measured);
  res.recall = pr.recall();
  res.precision = pr.precision();
}

/// Exact per-epoch counts of a monitor's post-bootstrap epochs, from its
/// EpochStats ring and registry.
std::map<std::string, double> monitor_counts(const monitor::TopologyMonitor& mon) {
  std::map<std::string, double> c;
  double selected = 0.0, reprobed = 0.0, epochs = 0.0;
  for (const monitor::EpochStats& s : mon.health()->epochs) {
    if (s.epoch == 0) continue;
    selected += static_cast<double>(s.pairs_selected);
    reprobed += static_cast<double>(s.pairs_reprobed);
    c["sim.events"] += static_cast<double>(s.events_drained);
    c["sim.seconds"] += s.sim_seconds;
    epochs += 1.0;
  }
  const obs::MetricsSnapshot m = mon.metrics().snapshot();
  c["monitor.pairs_selected"] = selected;
  c["monitor.reprobe_frac"] = selected == 0.0 ? 0.0 : reprobed / selected;
  c["monitor.hints"] = static_cast<double>(m.counters.at("monitor.hints"));
  c["monitor.flips"] = static_cast<double>(m.counters.at("monitor.changes_detected"));
  c["monitor.epoch_events"] = epochs == 0.0 ? 0.0 : c["sim.events"] / epochs;
  c["monitor.detect_rate"] = monitor::evaluate_tracking(mon, 2).detection_rate();
  c["core.probes"] = selected;
  return c;
}

}  // namespace

RunResult run_monitor_rpc(const Args& a) {
  RunResult res;
  Inputs in;
  in.mopt.churn_per_epoch = a.real("churn_per_epoch");
  in.mopt.traffic_churn_rate = a.real("traffic_churn_rate");
  in.mopt.threads = a.get("width");
  const size_t n_readers = a.get("readers");
  std::vector<double> emerge_ms;
  // Set-up: overlay, scout config, monitor construction and the bootstrap
  // epoch (a full-schedule campaign).
  std::unique_ptr<monitor::TopologyMonitor> mon;
  for (size_t rep = 0; rep < a.get("setup_reps"); ++rep) {
    mon.reset();
    const auto t0 = Clock::now();
    in.truth = emerge_overlay(a);
    emerge_ms.push_back(seconds_since(t0) * 1e3);
    in.world = core::ScenarioOptions{};
    in.world.seed = a.seed();
    in.world.block_gas_limit = a.get("block_txs") * eth::kTransferGas;
    in.cfg = core::MeasureConfig::Builder(core::Scenario(in.truth, in.world).default_measure_config())
                 .repetitions(a.get("repetitions"))
                 .build();
    mon = bootstrapped(in);
    res.setup_s.push_back(seconds_since(t0));
  }

  Ledger off(false);
  if (!a.trace()) {
    const Loop loop = epoch_loop(*mon, n_readers, a.seconds(), a.get("min_samples"),
                                 a.real("max_seconds"), off);
    res.work_ms = loop.epoch_ms;
    res.work_s = loop.wall_s;
    res.pairs = loop.pairs;
    fold_readers(res, loop);
    score_latest(res, *mon);
    res.check(mon->versions() == loop.epoch_ms.size() + 1, "published versions != epochs run");
    return res;
  }

  // Traced run: the same fixed number of epochs untraced (on the set-up
  // monitor) and traced (on a second monitor built from the same inputs);
  // both must count the same work.
  const size_t epochs = a.get("trace_epochs");
  const Loop plain = epoch_loop(*mon, n_readers, 0.0, epochs, a.real("max_seconds"), off);
  auto traced_mon = bootstrapped(in);
  Ledger ledger(true);
  const Loop traced =
      epoch_loop(*traced_mon, n_readers, 0.0, epochs, a.real("max_seconds"), ledger);
  fold_readers(res, plain);
  fold_readers(res, traced);
  score_latest(res, *traced_mon);
  const std::map<std::string, double> counts = monitor_counts(*traced_mon);
  check_counts_repeat(res, monitor_counts(*mon), counts);

  // Prometheus rendering of the monitor registry, sampled after the loop so
  // it adds no work to the traced epochs.
  for (size_t i = 0; i < a.get("scrapes"); ++i) {
    ledger.span("obs.expose_prometheus",
                [&] { return obs::expose_prometheus(traced_mon->metrics()); });
  }

  std::map<std::string, double>& L = res.layers;
  L = counts;
  add_count_ratios(L, traced.pairs);
  Ledger::Stats st = ledger.by_name();
  uint64_t bytes = 0, reads = 0;
  for (const Reader& r : traced.readers) {
    r.ledger->add_to(st);
    bytes += r.bytes;
    reads += r.attempted;
  }
  for (const char* span : kSpanNames) L[std::string(span) + "_us"] = stat_of(st, span).mean_ms() * 1e3;
  L["rpc.response_bytes"] = reads == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(reads);
  uint64_t plain_reads = 0;
  for (const Reader& r : plain.readers) plain_reads += r.attempted;
  L["rpc.reads_per_s"] = static_cast<double>(plain_reads) / plain.wall_s;
  L["obs.prometheus_us"] = stat_of(st, "obs.expose_prometheus").mean_ms() * 1e3;
  const monitor::MonitorStatus status = traced_mon->status();
  L["obs.trace_pushed"] = static_cast<double>(status.trace_total_pushed);
  L["obs.trace_dropped"] = static_cast<double>(status.trace_dropped);
  L["disc.emerge_ms"] = median(emerge_ms);
  add_self_times(L, st);
  L["trace.overhead_frac"] = traced.wall_s / plain.wall_s;
  return res;
}

}  // namespace perfbench
