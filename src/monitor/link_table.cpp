#include "monitor/link_table.h"

#include <algorithm>
#include <cmath>

#include "monitor/codec.h"

namespace topo::monitor {

namespace {

core::Verdict require_verdict(const rpc::Json& j, const char* doc,
                              const std::string& field) {
  const rpc::Json& v = j[field];
  core::Verdict out;
  if (!v.is_string() || !verdict_from_name(v.as_string(), out))
    bad_field(doc, field, "a verdict name (connected/negative/inconclusive)");
  return out;
}

rpc::Json pair_list_to_json(const std::vector<std::pair<size_t, size_t>>& pairs) {
  rpc::JsonArray out;
  out.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    out.push_back(rpc::Json(rpc::JsonArray{
        rpc::Json(static_cast<uint64_t>(u)), rpc::Json(static_cast<uint64_t>(v))}));
  }
  return rpc::Json(std::move(out));
}

std::vector<std::pair<size_t, size_t>> pair_list_from_json(const rpc::Json& j,
                                                           const char* doc,
                                                           const std::string& field) {
  const rpc::Json& arr = j[field];
  if (!arr.is_array()) bad_field(doc, field, "an array of [u, v] pairs");
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(arr.as_array().size());
  for (const rpc::Json& e : arr.as_array()) {
    const std::optional<uint64_t> u = e[size_t{0}].as_uint();
    const std::optional<uint64_t> v = e[size_t{1}].as_uint();
    if (!e.is_array() || e.as_array().size() != 2 || !u || !v)
      bad_field(doc, field, "an array of [u, v] pairs");
    out.emplace_back(*u, *v);
  }
  return out;
}

}  // namespace

const char* verdict_name(core::Verdict v) {
  switch (v) {
    case core::Verdict::kConnected: return "connected";
    case core::Verdict::kNegative: return "negative";
    case core::Verdict::kInconclusive: return "inconclusive";
  }
  return "unknown";
}

bool verdict_from_name(const std::string& name, core::Verdict& out) {
  for (core::Verdict v : {core::Verdict::kConnected, core::Verdict::kNegative,
                          core::Verdict::kInconclusive}) {
    if (name == verdict_name(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

size_t TopologySnapshot::connected_count() const {
  return static_cast<size_t>(
      std::count_if(links.begin(), links.end(), [](const LinkEntry& e) {
        return e.verdict == core::Verdict::kConnected;
      }));
}

size_t TopologySnapshot::inconclusive_count() const {
  return static_cast<size_t>(
      std::count_if(links.begin(), links.end(), [](const LinkEntry& e) {
        return e.verdict == core::Verdict::kInconclusive;
      }));
}

const LinkEntry* TopologySnapshot::find(size_t u, size_t v) const {
  if (u > v) std::swap(u, v);
  const auto it = std::lower_bound(
      links.begin(), links.end(), std::make_pair(u, v),
      [](const LinkEntry& e, const std::pair<size_t, size_t>& p) {
        return std::make_pair(e.u, e.v) < p;
      });
  if (it == links.end() || it->u != u || it->v != v) return nullptr;
  return &*it;
}

TopologyDiff compute_diff(const TopologySnapshot& from, const TopologySnapshot& to) {
  TopologyDiff d;
  d.from = from.version;
  d.to = to.version;
  // Both link lists are sorted by (u, v); one linear merge finds every
  // transition. A pair absent from a snapshot counts as kInconclusive
  // ("nothing known"), so newly measured pairs surface as changes too.
  size_t i = 0, j = 0;
  const auto emit = [&](size_t u, size_t v, core::Verdict a, core::Verdict b) {
    if (a == b) return;
    d.changed.push_back({u, v, a, b});
    if (b == core::Verdict::kConnected) d.added.emplace_back(u, v);
    if (a == core::Verdict::kConnected) d.removed.emplace_back(u, v);
  };
  while (i < from.links.size() || j < to.links.size()) {
    if (j == to.links.size() ||
        (i < from.links.size() &&
         std::make_pair(from.links[i].u, from.links[i].v) <
             std::make_pair(to.links[j].u, to.links[j].v))) {
      const LinkEntry& e = from.links[i++];
      emit(e.u, e.v, e.verdict, core::Verdict::kInconclusive);
    } else if (i == from.links.size() ||
               std::make_pair(to.links[j].u, to.links[j].v) <
                   std::make_pair(from.links[i].u, from.links[i].v)) {
      const LinkEntry& e = to.links[j++];
      emit(e.u, e.v, core::Verdict::kInconclusive, e.verdict);
    } else {
      const LinkEntry& a = from.links[i++];
      const LinkEntry& b = to.links[j++];
      emit(a.u, a.v, a.verdict, b.verdict);
    }
  }
  return d;
}

MonitorStatus make_status(const TopologySnapshot& latest, uint64_t versions) {
  MonitorStatus s;
  s.epoch = latest.epoch;
  s.version = latest.version;
  s.versions = versions;
  s.nodes = latest.nodes;
  s.pairs_total = latest.pairs_total;
  s.pairs_tracked = latest.links.size();
  s.links_connected = latest.connected_count();
  s.links_inconclusive = latest.inconclusive_count();
  s.coverage = latest.pairs_total == 0
                   ? 0.0
                   : static_cast<double>(s.pairs_tracked) /
                         static_cast<double>(latest.pairs_total);
  s.pairs_measured = latest.pairs_measured;
  s.changes_observed = latest.changes_observed;
  for (const LinkEntry& e : latest.links) {
    const double c = std::clamp(e.confidence, 0.0, 1.0);
    const size_t bin = std::min<size_t>(9, static_cast<size_t>(c * 10.0));
    ++s.confidence_histogram[bin];
  }
  return s;
}

rpc::Json snapshot_to_json(const TopologySnapshot& s) {
  rpc::JsonArray links;
  links.reserve(s.links.size());
  for (const LinkEntry& e : s.links) {
    links.push_back(rpc::Json(rpc::JsonObject{
        {"u", rpc::Json(static_cast<uint64_t>(e.u))},
        {"v", rpc::Json(static_cast<uint64_t>(e.v))},
        {"verdict", rpc::Json(verdict_name(e.verdict))},
        {"confidence", rpc::Json(e.confidence)},
        {"measured_epoch", rpc::Json(e.measured_epoch)},
        {"changed_epoch", rpc::Json(e.changed_epoch)},
    }));
  }
  return rpc::Json(rpc::JsonObject{
      {"schema", rpc::Json(kSnapshotSchema)},
      {"version", rpc::Json(s.version)},
      {"epoch", rpc::Json(s.epoch)},
      {"nodes", rpc::Json(static_cast<uint64_t>(s.nodes))},
      {"pairs_total", rpc::Json(static_cast<uint64_t>(s.pairs_total))},
      {"pairs_measured", rpc::Json(s.pairs_measured)},
      {"changes_observed", rpc::Json(s.changes_observed)},
      {"links", rpc::Json(std::move(links))},
  });
}

TopologySnapshot snapshot_from_json(const rpc::Json& j) {
  static constexpr const char* doc = "snapshot";
  require_schema(j, doc, kSnapshotSchema);
  TopologySnapshot s;
  s.version = require_uint(j, doc, "version");
  s.epoch = require_uint(j, doc, "epoch");
  s.nodes = static_cast<size_t>(require_uint(j, doc, "nodes"));
  s.pairs_total = static_cast<size_t>(require_uint(j, doc, "pairs_total"));
  s.pairs_measured = require_uint(j, doc, "pairs_measured");
  s.changes_observed = require_uint(j, doc, "changes_observed");
  const rpc::Json& links = j["links"];
  if (!links.is_array()) bad_field(doc, "links", "an array");
  s.links.reserve(links.as_array().size());
  for (const rpc::Json& e : links.as_array()) {
    if (!e.is_object()) bad_field(doc, "links", "an array of objects");
    LinkEntry le;
    le.u = static_cast<size_t>(require_uint(e, doc, "u"));
    le.v = static_cast<size_t>(require_uint(e, doc, "v"));
    le.verdict = require_verdict(e, doc, "verdict");
    le.confidence = require_number(e, doc, "confidence");
    le.measured_epoch = require_uint(e, doc, "measured_epoch");
    le.changed_epoch = require_uint(e, doc, "changed_epoch");
    s.links.push_back(le);
  }
  return s;
}

rpc::Json diff_to_json(const TopologyDiff& d) {
  rpc::JsonArray changed;
  changed.reserve(d.changed.size());
  for (const VerdictChange& c : d.changed) {
    changed.push_back(rpc::Json(rpc::JsonObject{
        {"u", rpc::Json(static_cast<uint64_t>(c.u))},
        {"v", rpc::Json(static_cast<uint64_t>(c.v))},
        {"from", rpc::Json(verdict_name(c.from))},
        {"to", rpc::Json(verdict_name(c.to))},
    }));
  }
  return rpc::Json(rpc::JsonObject{
      {"schema", rpc::Json(kDiffSchema)},
      {"from", rpc::Json(d.from)},
      {"to", rpc::Json(d.to)},
      {"added", pair_list_to_json(d.added)},
      {"removed", pair_list_to_json(d.removed)},
      {"changed", rpc::Json(std::move(changed))},
  });
}

TopologyDiff diff_from_json(const rpc::Json& j) {
  static constexpr const char* doc = "diff";
  require_schema(j, doc, kDiffSchema);
  TopologyDiff d;
  d.from = require_uint(j, doc, "from");
  d.to = require_uint(j, doc, "to");
  d.added = pair_list_from_json(j, doc, "added");
  d.removed = pair_list_from_json(j, doc, "removed");
  const rpc::Json& changed = j["changed"];
  if (!changed.is_array()) bad_field(doc, "changed", "an array");
  d.changed.reserve(changed.as_array().size());
  for (const rpc::Json& e : changed.as_array()) {
    if (!e.is_object()) bad_field(doc, "changed", "an array of objects");
    VerdictChange c;
    c.u = static_cast<size_t>(require_uint(e, doc, "u"));
    c.v = static_cast<size_t>(require_uint(e, doc, "v"));
    c.from = require_verdict(e, doc, "from");
    c.to = require_verdict(e, doc, "to");
    d.changed.push_back(c);
  }
  return d;
}

rpc::Json status_to_json(const MonitorStatus& s) {
  rpc::JsonArray hist;
  hist.reserve(s.confidence_histogram.size());
  for (uint64_t c : s.confidence_histogram) hist.push_back(rpc::Json(c));
  return rpc::Json(rpc::JsonObject{
      {"schema", rpc::Json(kStatusSchema)},
      {"epoch", rpc::Json(s.epoch)},
      {"version", rpc::Json(s.version)},
      {"versions", rpc::Json(s.versions)},
      {"nodes", rpc::Json(static_cast<uint64_t>(s.nodes))},
      {"pairs_total", rpc::Json(static_cast<uint64_t>(s.pairs_total))},
      {"pairs_tracked", rpc::Json(static_cast<uint64_t>(s.pairs_tracked))},
      {"links_connected", rpc::Json(static_cast<uint64_t>(s.links_connected))},
      {"links_inconclusive", rpc::Json(static_cast<uint64_t>(s.links_inconclusive))},
      {"coverage", rpc::Json(s.coverage)},
      {"pairs_measured", rpc::Json(s.pairs_measured)},
      {"changes_observed", rpc::Json(s.changes_observed)},
      {"confidence_histogram", rpc::Json(std::move(hist))},
      {"trace_total_pushed", rpc::Json(s.trace_total_pushed)},
      {"trace_dropped", rpc::Json(s.trace_dropped)},
      {"log_dropped", rpc::Json(s.log_dropped)},
  });
}

MonitorStatus status_from_json(const rpc::Json& j) {
  static constexpr const char* doc = "status";
  require_schema(j, doc, kStatusSchema);
  MonitorStatus s;
  s.epoch = require_uint(j, doc, "epoch");
  s.version = require_uint(j, doc, "version");
  s.versions = require_uint(j, doc, "versions");
  s.nodes = static_cast<size_t>(require_uint(j, doc, "nodes"));
  s.pairs_total = static_cast<size_t>(require_uint(j, doc, "pairs_total"));
  s.pairs_tracked = static_cast<size_t>(require_uint(j, doc, "pairs_tracked"));
  s.links_connected = static_cast<size_t>(require_uint(j, doc, "links_connected"));
  s.links_inconclusive =
      static_cast<size_t>(require_uint(j, doc, "links_inconclusive"));
  s.coverage = require_number(j, doc, "coverage");
  s.pairs_measured = require_uint(j, doc, "pairs_measured");
  s.changes_observed = require_uint(j, doc, "changes_observed");
  const rpc::Json& hist = j["confidence_histogram"];
  if (!hist.is_array() || hist.as_array().size() != s.confidence_histogram.size())
    bad_field(doc, "confidence_histogram", "an array of 10 counts");
  for (size_t i = 0; i < s.confidence_histogram.size(); ++i) {
    const std::optional<uint64_t> b = hist[i].as_uint();
    if (!b) bad_field(doc, "confidence_histogram", "an array of 10 counts");
    s.confidence_histogram[i] = *b;
  }
  s.trace_total_pushed = require_uint(j, doc, "trace_total_pushed");
  s.trace_dropped = require_uint(j, doc, "trace_dropped");
  s.log_dropped = require_uint(j, doc, "log_dropped");
  return s;
}

const LinkTable::Entry* LinkTable::find(size_t u, size_t v) const {
  if (u > v) std::swap(u, v);
  const auto it = entries_.find(key(u, v));
  return it == entries_.end() ? nullptr : &it->second;
}

bool LinkTable::record(size_t u, size_t v, core::Verdict verdict, uint64_t epoch) {
  if (u > v) std::swap(u, v);
  auto [it, inserted] = entries_.try_emplace(key(u, v));
  Entry& e = it->second;
  const bool flipped = !inserted && e.verdict != verdict;
  if (inserted || flipped) e.changed_epoch = epoch;
  e.verdict = verdict;
  e.measured_epoch = epoch;
  e.hints = 0;
  return flipped;
}

size_t LinkTable::hinted(uint8_t min_strength) const {
  size_t n = 0;
  for (const auto& [k, e] : entries_) n += e.hints >= min_strength ? 1 : 0;
  return n;
}

size_t LinkTable::hint_node(size_t node) {
  size_t newly = 0;
  for (size_t other = 0; other < nodes_; ++other) {
    if (other == node) continue;
    const auto it = entries_.find(key(std::min(node, other), std::max(node, other)));
    if (it == entries_.end() || it->second.hints >= 2) continue;
    if (it->second.hints == 0) ++newly;
    ++it->second.hints;
  }
  return newly;
}

namespace {
double decayed(const LinkTable::Entry& e, uint64_t epoch, double half_life) {
  if (e.hints > 0) return 0.0;
  if (half_life <= 0.0) return 1.0;
  const double age = static_cast<double>(epoch - e.measured_epoch);
  return std::exp2(-age / half_life);
}
}  // namespace

double LinkTable::confidence(size_t u, size_t v, uint64_t epoch,
                             double half_life) const {
  const Entry* e = find(u, v);
  return e == nullptr ? 0.0 : decayed(*e, epoch, half_life);
}

TopologySnapshot LinkTable::snapshot(uint64_t epoch, double half_life,
                                     uint64_t pairs_measured,
                                     uint64_t changes_observed) const {
  TopologySnapshot s;
  s.version = epoch;
  s.epoch = epoch;
  s.nodes = nodes_;
  s.pairs_total = pairs_total();
  s.pairs_measured = pairs_measured;
  s.changes_observed = changes_observed;
  s.links.reserve(entries_.size());
  for (const auto& [k, e] : entries_) {
    LinkEntry le;
    le.u = static_cast<size_t>(k >> 32);
    le.v = static_cast<size_t>(k & 0xFFFFFFFFu);
    le.verdict = e.verdict;
    le.confidence = decayed(e, epoch, half_life);
    le.measured_epoch = e.measured_epoch;
    le.changed_epoch = e.changed_epoch;
    s.links.push_back(le);
  }
  return s;
}

std::vector<std::pair<size_t, size_t>> LinkTable::prioritized_pairs(
    uint64_t epoch, double half_life) const {
  struct Candidate {
    uint8_t hints;
    double conf;
    uint64_t measured;
    size_t u, v;
  };
  std::vector<Candidate> cands;
  cands.reserve(pairs_total());
  for (size_t u = 0; u + 1 < nodes_; ++u) {
    for (size_t v = u + 1; v < nodes_; ++v) {
      const auto it = entries_.find(key(u, v));
      if (it == entries_.end()) {
        cands.push_back({0, 0.0, 0, u, v});
      } else {
        cands.push_back({it->second.hints, decayed(it->second, epoch, half_life),
                         it->second.measured_epoch, u, v});
      }
    }
  }
  std::stable_sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    if (a.hints != b.hints) return a.hints > b.hints;
    if (a.conf != b.conf) return a.conf < b.conf;
    if (a.measured != b.measured) return a.measured < b.measured;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(cands.size());
  for (const Candidate& c : cands) out.emplace_back(c.u, c.v);
  return out;
}

}  // namespace topo::monitor
