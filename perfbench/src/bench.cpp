#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "disc/emergence.h"
#include "rpc/json.h"
#include "util/rng.h"

namespace perfbench {

using topo::rpc::Json;
using topo::rpc::JsonArray;
using topo::rpc::JsonObject;

namespace {

constexpr size_t kMaxFailuresKept = 20;
/// Stream tag of the overlay redraws (see emerge_overlay).
constexpr uint64_t kOverlayStream = 0x0E4A;

Json array_of(const std::vector<double>& v) {
  JsonArray a;
  a.reserve(v.size());
  for (double x : v) a.emplace_back(x);
  return Json(std::move(a));
}

double gauge(const topo::obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

double counter(const topo::obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < kMaxFailuresKept) failures.push_back(what);
}

std::string RunResult::to_json() const {
  JsonObject layer_obj;
  for (const auto& [name, v] : layers) layer_obj[name] = Json(v);
  JsonArray failure_arr;
  for (const std::string& f : failures) failure_arr.emplace_back(f);
  return Json(JsonObject{
                  {"setup_s", array_of(setup_s)},
                  {"work_ms", array_of(work_ms)},
                  {"work_s", Json(work_s)},
                  {"pairs", Json(pairs)},
                  {"recall", Json(recall)},
                  {"precision", Json(precision)},
                  {"peak_rss_mb", Json(peak_rss_mb())},
                  {"attempted", Json(attempted)},
                  {"failed", Json(failed)},
                  {"failures", Json(std::move(failure_arr))},
                  {"layers", Json(std::move(layer_obj))},
              })
      .dump();
}

size_t Args::get(const char* key) const {
  if (!cli.has(key)) {
    std::cerr << "perfbench: missing input --" << key << "\n";
    std::exit(2);
  }
  return cli.get_uint(key, 0);
}

double Args::real(const char* key) const {
  if (!cli.has(key)) {
    std::cerr << "perfbench: missing input --" << key << "\n";
    std::exit(2);
  }
  return cli.get_double(key, 0.0);
}

topo::graph::Graph emerge_overlay(const Args& a) {
  const size_t nodes = a.get("nodes");
  const double edges = static_cast<double>(a.get("edges"));
  topo::disc::EmergenceConfig recipe = topo::disc::ropsten_like(nodes);
  for (size_t& b : recipe.supernode_budgets) b = std::min(b, nodes / 2);
  // Every draw is made, so set-up costs the same whichever draw fits.
  std::optional<topo::graph::Graph> best;
  double best_gap = 0.0;
  for (size_t draw = 0; draw < a.get("overlay_draws"); ++draw) {
    topo::util::Rng rng(topo::util::derive_stream_seed(
        topo::util::derive_stream_seed(a.seed(), kOverlayStream), draw));
    topo::graph::Graph g = topo::disc::emerge_topology(recipe, rng);
    const double gap = std::abs(static_cast<double>(g.num_edges()) - edges);
    if (!best || gap < best_gap) {
      best = std::move(g);
      best_gap = gap;
    }
  }
  if (!best || best_gap > a.real("edge_tolerance") * edges) {
    throw std::runtime_error("no emerged overlay within the edge tolerance");
  }
  return *std::move(best);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void add_world_counts(std::map<std::string, double>& out, const topo::obs::MetricsSnapshot& before,
                      const topo::obs::MetricsSnapshot& after) {
  auto flow_g = [&](const std::string& key, const std::string& name) {
    out[key] += gauge(after, name) - gauge(before, name);
  };
  auto flow_c = [&](const std::string& key, const std::string& name) {
    out[key] += counter(after, name) - counter(before, name);
  };
  auto peak = [&](const std::string& key, const std::string& name) {
    out[key] = std::max(out[key], gauge(after, name));
  };
  flow_g("sim.events", "sim.events_processed");
  for (const char* kind : {"deliver_tx", "deliver_tx_batch", "maintenance", "block_commit"}) {
    flow_g(std::string("sim.dispatch.") + kind, std::string("sim.dispatch.") + kind);
  }
  peak("sim.queue_high_water", "sim.queue_high_water");
  flow_g("sim.seconds", "sim.now_seconds");

  flow_c("p2p.messages", "net.messages");
  flow_c("p2p.bytes", "net.bytes");
  peak("p2p.arena_peak", "net.arena_peak");

  flow_c("mempool.admits", "mempool.admits.pending");
  flow_c("mempool.admits", "mempool.admits.future");
  flow_c("mempool.replacements", "mempool.replacements");
  flow_c("mempool.evictions", "mempool.evictions");
  flow_c("mempool.rejects", "mempool.rejects");
  peak("mempool.tombstone_peak", "mempool.index.tombstone_peak");

  flow_c("core.inconclusive", "probe.verdicts.inconclusive");
  flow_c("core.conclusive", "probe.verdicts.connected");
  flow_c("core.conclusive", "probe.verdicts.negative");
}

void add_count_ratios(std::map<std::string, double>& out, uint64_t pairs) {
  const double p = static_cast<double>(std::max<uint64_t>(1, pairs));
  out["sim.events_per_pair"] = out["sim.events"] / p;
  out["p2p.messages_per_pair"] = out["p2p.messages"] / p;
  const double useful = out["mempool.admits"] + out["mempool.replacements"];
  const double tried = useful + out["mempool.rejects"];
  out["mempool.admit_ratio"] = tried == 0.0 ? 0.0 : useful / tried;
  const double runs = out["core.conclusive"] + out["core.inconclusive"];
  out["core.useful_ratio"] = runs == 0.0 ? 0.0 : out["core.conclusive"] / runs;
}

bool is_exact_count(const std::string& name) {
  for (const char* prefix : {"sim.", "p2p.", "mempool.", "core.", "monitor."}) {
    const std::string p(prefix);
    if (name.compare(0, p.size(), p) != 0) continue;
    // Host-time entries (self times, per-batch host ms) are not counts.
    const auto ends_with = [&](const char* suffix) {
      const std::string x(suffix);
      return name.size() >= x.size() && name.compare(name.size() - x.size(), x.size(), x) == 0;
    };
    return !ends_with("_ms") && !ends_with("_us");
  }
  return false;
}

void check_counts_repeat(RunResult& res, const std::map<std::string, double>& first,
                         const std::map<std::string, double>& second) {
  for (const auto& [name, v] : first) {
    if (!is_exact_count(name)) continue;
    const auto it = second.find(name);
    const double w = it == second.end() ? std::nan("") : it->second;
    res.check(v == w, "count " + name + " drifted on a same-seed re-run: " +
                          std::to_string(v) + " vs " + std::to_string(w));
  }
}

void add_self_times(std::map<std::string, double>& out, const Ledger::Stats& stats) {
  for (const auto& [name, s] : stats) out[name.substr(0, name.find('.')) + ".self_ms"] += s.self_ms;
}

}  // namespace perfbench
