#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "eth/transaction.h"
#include "eth/types.h"

namespace topo::core {

/// Outcome class of one measurement attempt. A probe can fail two ways:
/// the preconditions held and txA never arrived from the sink (a genuine
/// negative), or the probe state itself never materialized — txA was not
/// planted on the source, the payload never reached the sink, or txC was
/// not evicted there — so txA was neither observed nor refuted within the
/// window. The second class (inconclusive) is what message loss and node
/// churn produce, and what bounded re-measurement can recover.
enum class Verdict {
  kConnected,     ///< txA observed arriving from the sink
  kNegative,      ///< preconditions held, txA refuted
  kInconclusive,  ///< probe preconditions failed; nothing was learned
};

/// obs::Span verdict code of a Verdict (obs stays independent of this enum;
/// 0 is reserved there for "no verdict" on structural spans).
inline uint8_t span_verdict_code(Verdict v) {
  switch (v) {
    case Verdict::kConnected: return 1;
    case Verdict::kNegative: return 2;
    case Verdict::kInconclusive: return 3;
  }
  return 0;
}

/// Parameters of the measureOneLink primitive (paper §5.2) plus the pacing
/// knobs our event simulation makes explicit.
///
/// Price ladder (all derived from Y and the target's replacement bump R):
///   future txO : (1 + R) Y      — evicts everything priced below it
///   txA        : (1 + R/2) Y    — replaces txB on B, cannot replace txC on C
///   txC        : Y              — the network-wide "shield" transaction
///   txB        : (1 - R/2) Y    — placeholder on B that txA can replace
struct MeasureConfig {
  /// X — seconds to wait after planting txC so it floods the whole network.
  double wait_X = 10.0;

  /// Y — txC gas price. 0 means "estimate dynamically" as the median
  /// pending price observed by the measurement node (§5.2.1).
  eth::Wei price_Y = eth::gwei(0.1);

  /// Z — number of future transactions per target flood.
  size_t flood_Z = 5120;

  /// R — assumed replacement bump of the target client, in basis points
  /// (Geth 1000). Pre-processing may override per node.
  uint32_t bump_bp = 1000;

  /// U — assumed max futures per account on the target; the flood uses
  /// ceil(Z/U) distinct sender accounts. 0 means "unlimited" (the target
  /// caps nothing), which the flood crafts as one future per account — see
  /// flood_plan().
  uint64_t futures_per_account_U = 4096;

  /// Seconds to wait after a flood finishes before sending the replacement
  /// transaction, so the target's deferred queue truncation has run and the
  /// pool has room (see DESIGN.md on Geth's reorg loop).
  double post_flood_gap = 1.2;

  /// Seconds to wait after planting txA before checking for txA's arrival
  /// from B (covers a couple of link latencies).
  double detect_wait = 3.0;

  /// Repetitions whose union forms the final answer (§5.2.3's passive
  /// recall booster).
  size_t repetitions = 1;

  /// Bounded re-measurement of *inconclusive* pairs (see Verdict): after a
  /// driver's whole primary sweep, pairs whose probe state never
  /// materialized are re-measured with fresh probe nonces up to this many
  /// extra rounds (core::run_retry_pass). Deferring the retries past the
  /// sweep keeps the primary trajectory byte-identical to a retries-off
  /// run, so re-measurement only ever adds edges. 0 (default) disables the
  /// pass; only lossy / churny worlds (topo::fault) benefit from raising it.
  size_t inconclusive_retries = 0;

  /// Emit EIP-1559 transactions (max fee = the ladder price, priority fee =
  /// a tenth of it). Appendix E: the pool compares max fees, so the ladder
  /// semantics are unchanged as long as prices stay above the base fee.
  bool eip1559 = false;

  /// Collect the per-pair diagnostics annex: network-level drivers tally
  /// every pair's final ProbeCause (and what each retry round cleared) into
  /// NetworkMeasurementReport::diagnostics. Off by default so reports stay
  /// byte-identical to pre-diagnostics builds; collection never perturbs
  /// the measurement trajectory, only what is reported about it.
  bool collect_diagnostics = false;

  // Derived prices (exact integer arithmetic).
  eth::Wei price_txC() const { return price_Y; }
  eth::Wei price_future() const { return scale(price_Y, 10000 + bump_bp); }
  eth::Wei price_txA() const { return scale(price_Y, 10000 + bump_bp / 2); }
  eth::Wei price_txB() const { return scale(price_Y, 10000 - bump_bp / 2); }

  /// Smallest Y at which the integer price ladder stays strict: below
  /// this, ceil-rounding collapses the R/2 spacing (e.g. Y = 1 wei makes
  /// txA twice txC's price and isolation fails). Estimators clamp to it.
  eth::Wei min_viable_Y() const {
    return bump_bp == 0 ? 1 : std::max<eth::Wei>(1, 40000 / bump_bp);
  }

  /// Shape of a future flood of `z` transactions: how many fresh sender
  /// accounts to create and how many futures each one crafts. U == 0
  /// ("unlimited" — the target imposes no per-account future cap) crafts
  /// one future per account, so the flood is never empty. TopoShot's
  /// flood crafting (core/strategy.cpp) derives its loops from this plan.
  struct FloodPlan {
    size_t accounts = 0;
    uint64_t per_account = 0;

    /// True when accounts * per_account can hold `z` futures.
    bool covers(size_t z) const {
      return per_account > 0 &&
             static_cast<unsigned __int128>(accounts) * per_account >= z;
    }
  };

  FloodPlan flood_plan(size_t z) const {
    FloodPlan p;
    p.per_account = futures_per_account_U == 0 ? 1 : futures_per_account_U;
    p.accounts = (z + p.per_account - 1) / p.per_account;
    return p;
  }

  /// Number of flood sender accounts.
  size_t flood_accounts() const { return flood_plan(flood_Z).accounts; }

  class Builder;

 private:
  static eth::Wei scale(eth::Wei y, uint64_t factor_bp) {
    return static_cast<eth::Wei>(
        (static_cast<unsigned __int128>(y) * factor_bp + 9999) / 10000);
  }
};

/// Fluent construction of a MeasureConfig, with the cross-field checks a
/// plain aggregate cannot express:
///
///   auto cfg = MeasureConfig::Builder()
///                  .wait_X(15.0)
///                  .flood_Z(5120)
///                  .bump_bp(1000)
///                  .repetitions(2)
///                  .build();
///
/// Start from an existing config (e.g. Scenario::default_measure_config)
/// by passing it to the constructor.
class MeasureConfig::Builder {
 public:
  Builder() = default;
  explicit Builder(MeasureConfig base) : cfg_(base) {}

  Builder& wait_X(double v) { cfg_.wait_X = v; return *this; }
  Builder& price_Y(eth::Wei v) { cfg_.price_Y = v; return *this; }
  Builder& flood_Z(size_t v) { cfg_.flood_Z = v; return *this; }
  Builder& bump_bp(uint32_t v) { cfg_.bump_bp = v; return *this; }
  Builder& futures_per_account_U(uint64_t v) { cfg_.futures_per_account_U = v; return *this; }
  Builder& post_flood_gap(double v) { cfg_.post_flood_gap = v; return *this; }
  Builder& detect_wait(double v) { cfg_.detect_wait = v; return *this; }
  Builder& repetitions(size_t v) { cfg_.repetitions = v; return *this; }
  Builder& inconclusive_retries(size_t v) { cfg_.inconclusive_retries = v; return *this; }
  Builder& collect_diagnostics(bool v) { cfg_.collect_diagnostics = v; return *this; }
  Builder& eip1559(bool v) { cfg_.eip1559 = v; return *this; }

  /// Validates and returns the config. Throws std::invalid_argument when
  /// the parameters cannot yield a sound measurement: non-positive timing
  /// windows, an empty flood, a bump too large for the price ladder
  /// (R >= 200% makes txB's price (1 - R/2)Y hit zero), or a dynamic Y
  /// (price_Y = 0) that the ladder cannot later clamp.
  MeasureConfig build() const {
    if (cfg_.wait_X <= 0.0) throw std::invalid_argument("MeasureConfig: wait_X must be > 0");
    if (cfg_.detect_wait <= 0.0)
      throw std::invalid_argument("MeasureConfig: detect_wait must be > 0");
    if (cfg_.post_flood_gap < 0.0)
      throw std::invalid_argument("MeasureConfig: post_flood_gap must be >= 0");
    if (cfg_.flood_Z == 0) throw std::invalid_argument("MeasureConfig: flood_Z must be > 0");
    if (cfg_.repetitions == 0)
      throw std::invalid_argument("MeasureConfig: repetitions must be > 0");
    if (cfg_.bump_bp >= 20000)
      throw std::invalid_argument("MeasureConfig: bump_bp must be < 20000 (txB price > 0)");
    if (cfg_.price_Y != 0 && cfg_.price_Y < cfg_.min_viable_Y()) {
      throw std::invalid_argument(
          "MeasureConfig: price_Y below min_viable_Y(); the integer price "
          "ladder would collapse");
    }
    if (!cfg_.flood_plan(cfg_.flood_Z).covers(cfg_.flood_Z)) {
      throw std::invalid_argument(
          "MeasureConfig: flood plan cannot cover flood_Z — the eviction "
          "flood would be silently incomplete");
    }
    return cfg_;
  }

 private:
  MeasureConfig cfg_;
};

/// Crafts a measurement transaction per the config's fee mode: legacy gas
/// price, or EIP-1559 with max fee = `price`.
inline eth::Transaction craft_tx(eth::TxFactory& factory, const MeasureConfig& cfg,
                                 eth::Address sender, eth::Nonce nonce, eth::Wei price) {
  if (cfg.eip1559) return factory.make1559(sender, nonce, price, price / 10);
  return factory.make(sender, nonce, price);
}

}  // namespace topo::core
