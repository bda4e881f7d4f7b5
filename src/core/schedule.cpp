#include "core/schedule.h"

#include <algorithm>
#include <unordered_map>

namespace topo::core {

std::vector<IterationPlan> make_schedule(size_t n, size_t group_k) {
  std::vector<IterationPlan> plan;
  if (n < 2) return plan;
  group_k = std::max<size_t>(2, std::min(group_k, n));

  // Partition into contiguous groups of K (last group possibly smaller).
  std::vector<std::vector<size_t>> groups;
  for (size_t start = 0; start < n; start += group_k) {
    std::vector<size_t> g;
    for (size_t i = start; i < std::min(start + group_k, n); ++i) g.push_back(i);
    groups.push_back(std::move(g));
  }

  // Round 1: group i vs all later groups.
  for (size_t gi = 0; gi + 1 < groups.size(); ++gi) {
    IterationPlan it;
    it.sources = groups[gi];
    for (size_t gj = gi + 1; gj < groups.size(); ++gj) {
      it.sinks.insert(it.sinks.end(), groups[gj].begin(), groups[gj].end());
    }
    for (size_t s : it.sources) {
      for (size_t t : it.sinks) it.pairs.emplace_back(s, t);
    }
    plan.push_back(std::move(it));
  }

  // Round 2: recursive halving across all groups simultaneously.
  std::vector<std::vector<size_t>> segments = groups;
  while (true) {
    IterationPlan it;
    std::vector<std::vector<size_t>> next;
    for (const auto& seg : segments) {
      if (seg.size() < 2) continue;
      const size_t half = seg.size() / 2;
      std::vector<size_t> first(seg.begin(), seg.begin() + half);
      std::vector<size_t> second(seg.begin() + half, seg.end());
      for (size_t s : first) {
        for (size_t t : second) it.pairs.emplace_back(s, t);
      }
      it.sources.insert(it.sources.end(), first.begin(), first.end());
      it.sinks.insert(it.sinks.end(), second.begin(), second.end());
      next.push_back(std::move(first));
      next.push_back(std::move(second));
    }
    if (it.pairs.empty()) break;
    plan.push_back(std::move(it));
    segments = std::move(next);
  }
  return plan;
}

std::vector<MeasurementBatch> make_batches(size_t n, size_t group_k, size_t budget) {
  std::vector<MeasurementBatch> batches;
  budget = std::max<size_t>(1, budget);
  for (const auto& it : make_schedule(n, group_k)) {
    // Split into slot-budgeted batches: every concurrent edge pins one txC
    // in every participating pool.
    for (size_t start = 0; start < it.pairs.size(); start += budget) {
      const size_t end = std::min(start + budget, it.pairs.size());
      MeasurementBatch batch;
      std::unordered_map<size_t, size_t> src_pos, sink_pos;
      batch.edges.reserve(end - start);
      batch.pairs.reserve(end - start);
      for (size_t i = start; i < end; ++i) {
        const auto& [s, t] = it.pairs[i];
        auto [sit, s_new] = src_pos.try_emplace(s, batch.sources.size());
        if (s_new) batch.sources.push_back(s);
        auto [tit, t_new] = sink_pos.try_emplace(t, batch.sinks.size());
        if (t_new) batch.sinks.push_back(t);
        batch.edges.push_back({sit->second, tit->second});
        batch.pairs.emplace_back(s, t);
      }
      batches.push_back(std::move(batch));
    }
  }
  return batches;
}

std::vector<MeasurementBatch> make_batches_for_pairs(
    const std::vector<std::pair<size_t, size_t>>& pairs, size_t budget) {
  std::vector<MeasurementBatch> batches;
  budget = std::max<size_t>(1, budget);
  MeasurementBatch batch;
  std::unordered_map<size_t, size_t> src_pos, sink_pos;
  const auto flush = [&] {
    if (batch.pairs.empty()) return;
    batches.push_back(std::move(batch));
    batch = MeasurementBatch{};
    src_pos.clear();
    sink_pos.clear();
  };
  for (const auto& [s, t] : pairs) {
    // A node must not play both roles in one batch: a sink is being
    // flood-overflowed exactly when a source must hold its probe txA, and
    // the §5.3.2 schedule's disjoint groups never combine the two. An
    // arbitrary pair list can, so close the batch at the first conflict
    // (the caller's priority order is preserved; only the cut points move).
    if (batch.pairs.size() == budget || src_pos.count(t) != 0 ||
        sink_pos.count(s) != 0) {
      flush();
    }
    auto [sit, s_new] = src_pos.try_emplace(s, batch.sources.size());
    if (s_new) batch.sources.push_back(s);
    auto [tit, t_new] = sink_pos.try_emplace(t, batch.sinks.size());
    if (t_new) batch.sinks.push_back(t);
    batch.edges.push_back({sit->second, tit->second});
    batch.pairs.emplace_back(s, t);
  }
  flush();
  return batches;
}

void run_batch(MeasurementStrategy& strat, const std::vector<p2p::PeerId>& targets,
               const MeasurementBatch& batch, size_t batch_id,
               NetworkMeasurementReport& report,
               std::vector<RetriedPair>* inconclusive) {
  std::vector<p2p::PeerId> sources, sinks;
  sources.reserve(batch.sources.size());
  sinks.reserve(batch.sinks.size());
  for (size_t s : batch.sources) sources.push_back(targets[s]);
  for (size_t t : batch.sinks) sinks.push_back(targets[t]);

  // Batch + pair spans carry stable structural ids keyed to (shard,
  // batch_id, edge index), so the export never depends on which worker ran
  // the batch or when. Pair spans cover the whole batch interval: the
  // parallel primitive measures every edge in one pass.
  obs::SpanTracer* tracer = strat.tracer();
  uint64_t batch_span = 0;
  uint64_t prev_scope = 0;
  std::vector<uint64_t> pair_spans;
  if (tracer != nullptr) {
    tracer->set_batch(batch_id);
    batch_span = tracer->open(obs::SpanKind::kBatch, strat.now(),
                              obs::batch_span_id(tracer->shard(), batch_id), tracer->scope(),
                              batch_id, batch.edges.size());
    prev_scope = tracer->set_scope(batch_span);
    pair_spans.reserve(batch.edges.size());
    for (size_t i = 0; i < batch.edges.size(); ++i) {
      pair_spans.push_back(
          tracer->open_pair_at(i, strat.now(), batch.pairs[i].first, batch.pairs[i].second));
    }
  }

  const ParallelResult res = strat.measure_batch(sources, sinks, batch.edges);
  ++report.iterations;
  report.txs_sent += res.txs_sent;
  report.pairs_tested += batch.edges.size();
  for (size_t i = 0; i < batch.edges.size(); ++i) {
    if (res.connected[i]) {
      report.measured.add_edge(static_cast<graph::NodeId>(batch.pairs[i].first),
                               static_cast<graph::NodeId>(batch.pairs[i].second));
    } else if (res.verdicts[i] == Verdict::kInconclusive && inconclusive != nullptr) {
      inconclusive->push_back(
          {batch.pairs[i].first, batch.pairs[i].second, res.attempts[i], res.causes[i]});
    }
    if (report.fault.has_value()) report.fault->attempts += res.attempts[i];
    if (report.diagnostics.has_value()) {
      ++report.diagnostics->causes[static_cast<size_t>(res.causes[i])];
    }
    if (tracer != nullptr) {
      tracer->close_pair(pair_spans[i], strat.now(), span_verdict_code(res.verdicts[i]),
                         res.causes[i]);
    }
  }
  if (tracer != nullptr) {
    tracer->close(batch_span, strat.now());
    tracer->set_scope(prev_scope);
  }
}

void run_retry_pass(MeasurementStrategy& strat, const std::vector<p2p::PeerId>& targets,
                    std::vector<RetriedPair> inconclusive, size_t budget, size_t rounds,
                    NetworkMeasurementReport& report) {
  budget = std::max<size_t>(1, budget);
  obs::SpanTracer* tracer = strat.tracer();
  std::vector<RetriedPair> resolved;  // entered the retry path, now decided
  for (size_t round = 0; round < rounds && !inconclusive.empty(); ++round) {
    uint64_t round_span = 0;
    uint64_t prev_scope = 0;
    if (tracer != nullptr) {
      round_span = tracer->open_auto(obs::SpanKind::kRetryRound, strat.now(), round,
                                     inconclusive.size());
      prev_scope = tracer->set_scope(round_span);
    }
    std::vector<RetriedPair> next;
    for (size_t start = 0; start < inconclusive.size(); start += budget) {
      const size_t end = std::min(start + budget, inconclusive.size());
      std::vector<p2p::PeerId> sources, sinks;
      std::vector<ParallelEdge> edges;
      std::unordered_map<size_t, size_t> src_pos, sink_pos;
      edges.reserve(end - start);
      for (size_t i = start; i < end; ++i) {
        auto [sit, s_new] = src_pos.try_emplace(inconclusive[i].u, sources.size());
        if (s_new) sources.push_back(targets[inconclusive[i].u]);
        auto [tit, t_new] = sink_pos.try_emplace(inconclusive[i].v, sinks.size());
        if (t_new) sinks.push_back(targets[inconclusive[i].v]);
        edges.push_back({sit->second, tit->second});
      }

      const ParallelResult res = strat.remeasure_batch(sources, sinks, edges);
      ++report.iterations;
      report.txs_sent += res.txs_sent;
      for (size_t k = 0; k < edges.size(); ++k) {
        RetriedPair p = inconclusive[start + k];
        const obs::ProbeCause before = p.cause;
        p.attempts += res.attempts[k];
        p.cause = res.connected[k] ? obs::ProbeCause::kNone : res.causes[k];
        if (report.fault.has_value()) report.fault->attempts += res.attempts[k];
        // Keep the final-cause histogram current: the pair moves from the
        // bucket it occupied after the primary sweep (or the prior round)
        // into its latest one.
        if (report.diagnostics.has_value() && p.cause != before) {
          --report.diagnostics->causes[static_cast<size_t>(before)];
          ++report.diagnostics->causes[static_cast<size_t>(p.cause)];
        }
        const bool decided = res.verdicts[k] != Verdict::kInconclusive;
        if (res.connected[k]) {
          report.measured.add_edge(static_cast<graph::NodeId>(p.u),
                                   static_cast<graph::NodeId>(p.v));
          resolved.push_back(p);
        } else if (res.verdicts[k] == Verdict::kNegative) {
          resolved.push_back(p);
        } else {
          next.push_back(p);
        }
        if (decided) {
          if (report.diagnostics.has_value()) {
            ++report.diagnostics->cleared[static_cast<size_t>(before)];
          }
          if (tracer != nullptr) {
            tracer->instant(obs::SpanKind::kRetryClear, strat.now(), p.u, p.v,
                            span_verdict_code(res.verdicts[k]), before);
          }
        }
      }
    }
    if (tracer != nullptr) {
      tracer->close(round_span, strat.now());
      tracer->set_scope(prev_scope);
    }
    inconclusive = std::move(next);
  }

  if (report.fault.has_value()) {
    FaultReport& f = *report.fault;
    f.inconclusive += inconclusive.size();
    if (rounds > 0) {
      f.retried.insert(f.retried.end(), resolved.begin(), resolved.end());
      f.retried.insert(f.retried.end(), inconclusive.begin(), inconclusive.end());
      std::sort(f.retried.begin(), f.retried.end(), [](const RetriedPair& a,
                                                       const RetriedPair& b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
      });
    }
  }
  if (report.diagnostics.has_value()) {
    DiagnosticsReport& d = *report.diagnostics;
    d.inconclusive.reserve(d.inconclusive.size() + inconclusive.size());
    for (const RetriedPair& p : inconclusive) d.inconclusive.push_back({p.u, p.v, p.cause});
    std::sort(d.inconclusive.begin(), d.inconclusive.end(),
              [](const PairDiagnostic& a, const PairDiagnostic& b) {
                return a.u != b.u ? a.u < b.u : a.v < b.v;
              });
  }
}

NetworkMeasurementReport measure_all(MeasurementStrategy& strat,
                                     const std::vector<p2p::PeerId>& targets, size_t group_k,
                                     size_t max_edges_per_call) {
  NetworkMeasurementReport report;
  report.measured = graph::Graph(targets.size());
  report.strategy = strat.kind();
  const MeasureConfig& cfg = strat.config();
  if (cfg.inconclusive_retries > 0) {
    report.fault.emplace();
    report.fault->retries = cfg.inconclusive_retries;
  }
  if (cfg.collect_diagnostics) report.diagnostics.emplace();
  const double t0 = strat.now();

  const size_t budget = max_edges_per_call != 0 ? max_edges_per_call : slot_budget(cfg.flood_Z);
  const size_t retries = cfg.inconclusive_retries;
  std::vector<RetriedPair> inconclusive;
  std::vector<RetriedPair>* collect =
      report.fault.has_value() || report.diagnostics.has_value() ? &inconclusive : nullptr;
  size_t batch_id = 0;
  for (const auto& batch : make_batches(targets.size(), group_k, budget)) {
    run_batch(strat, targets, batch, batch_id++, report, collect);
  }
  run_retry_pass(strat, targets, std::move(inconclusive), budget, retries, report);
  report.sim_seconds = strat.now() - t0;
  return report;
}

}  // namespace topo::core
