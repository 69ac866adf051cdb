// Per-round health checks on the global training trajectory.
//
// The watchdog sees one HealthSignal per aggregation round — the same fields
// on every engine (test accuracy + test loss on the real engines, surrogate
// global accuracy with a zero loss otherwise) — and classifies the round as
// healthy or as one of three divergence modes. It is pure bookkeeping: no
// RNG, no floating-point accumulation across threads, so verdicts are
// bit-identical for any thread count.
#ifndef SRC_GUARD_DIVERGENCE_WATCHDOG_H_
#define SRC_GUARD_DIVERGENCE_WATCHDOG_H_

#include <cstddef>
#include <cstdint>

#include "src/failure/checkpoint_io.h"
#include "src/guard/guard_config.h"

namespace floatfl {

// One round's health snapshot. `loss` is optional context (0 when the engine
// has no loss notion); a non-finite value in either field is a trigger.
struct HealthSignal {
  double metric = 0.0;  // higher is better (accuracy-like)
  double loss = 0.0;    // lower is better; only checked for finiteness
  // Per-tier delivery health (DESIGN.md §13): of the round's updates that
  // entered the aggregation tree, the fraction that reached the root (1.0 on
  // star topologies, in rounds where nothing entered the tree, and when
  // nothing was lost in it). Not a divergence trigger — a starved round can
  // still be metrically "healthy" — but the guard refuses to snapshot rounds
  // below GuardConfig::min_snapshot_coverage, so coverage-starved states
  // never become rollback targets.
  double coverage = 1.0;
};

enum class WatchdogVerdict : uint32_t {
  kHealthy = 0,
  kNonFinite = 1,  // NaN/Inf metric or loss
  kCollapse = 2,   // metric < best - collapse_threshold
  kStall = 3,      // no improvement > stall_epsilon for `patience` rounds
};

class DivergenceWatchdog {
 public:
  DivergenceWatchdog() = default;
  explicit DivergenceWatchdog(const GuardConfig& config) : config_(config) {}

  // Classifies one round. A healthy round updates the best-seen metric and
  // the stall counter; an unhealthy one leaves them for ResetAfterRollback.
  WatchdogVerdict Check(const HealthSignal& health);

  // Called after a rollback restored a snapshot with `restored_metric`: the
  // best-seen baseline snaps to the restored state and the stall counter
  // clears, but the watchdog stays armed — a second collapse from the
  // restored state triggers again.
  void ResetAfterRollback(double restored_metric);

  bool HasBest() const { return has_best_; }
  double Best() const { return best_; }
  size_t StallRounds() const { return stall_rounds_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.has_best_, self.best_, self.stall_rounds_);
  }

  GuardConfig config_;
  bool has_best_ = false;
  double best_ = 0.0;
  size_t stall_rounds_ = 0;
};

}  // namespace floatfl

#endif  // SRC_GUARD_DIVERGENCE_WATCHDOG_H_
