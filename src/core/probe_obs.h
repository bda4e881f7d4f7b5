#pragma once

// Interned handles for the measurement-primitive metrics (`probe.*`).
// Every strategy's serial (measure_pair) and batch (measure_batch) probes
// share them, so their phase timings land in the same histograms and the
// per-link cost analyses see one namespace.

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace topo::core {

struct ProbeObs {
  obs::Counter* runs = nullptr;               ///< probe.runs (serial passes)
  obs::Counter* parallel_runs = nullptr;      ///< probe.parallel.runs
  obs::Counter* retries = nullptr;            ///< probe.retries (extra repetitions)
  obs::Counter* remeasures = nullptr;         ///< probe.remeasures (inconclusive retries, per edge)
  obs::Counter* verdict_connected = nullptr;  ///< probe.verdicts.connected
  obs::Counter* verdict_negative = nullptr;   ///< probe.verdicts.negative
  obs::Counter* verdict_inconclusive = nullptr;  ///< probe.verdicts.inconclusive
  obs::Histogram* flood_seconds = nullptr;    ///< probe.phase.flood_seconds
  obs::Histogram* wait_seconds = nullptr;     ///< probe.phase.wait_seconds
  obs::Histogram* plant_seconds = nullptr;    ///< probe.phase.plant_seconds
  obs::Histogram* detect_seconds = nullptr;   ///< probe.phase.detect_seconds
  obs::Histogram* link_seconds = nullptr;     ///< probe.link_seconds (whole call)

  /// Interns the `probe.*` handles in `reg` (idempotent).
  static ProbeObs wire(obs::MetricsRegistry& reg);

  bool enabled() const { return runs != nullptr; }
};

/// Records the simulated seconds from construction to finish() (or
/// destruction) into one of the `probe.phase.*` histograms. A null
/// histogram (metrics off) makes it a no-op, so instrumented code needs no
/// branches of its own.
class ScopedPhase {
 public:
  ScopedPhase(obs::Histogram* hist, const sim::Simulator& sim)
      : hist_(hist), sim_(sim), start_(sim.now()) {}
  ~ScopedPhase() { finish(); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  void finish() {
    if (hist_ == nullptr) return;
    hist_->observe(sim_.now() - start_);
    hist_ = nullptr;
  }

 private:
  obs::Histogram* hist_;
  const sim::Simulator& sim_;
  double start_;
};

}  // namespace topo::core
