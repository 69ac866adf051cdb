#include "src/guard/divergence_watchdog.h"

#include <algorithm>
#include <cmath>

namespace floatfl {

WatchdogVerdict DivergenceWatchdog::Check(const HealthSignal& health) {
  if (!std::isfinite(health.metric) || !std::isfinite(health.loss)) {
    return WatchdogVerdict::kNonFinite;
  }
  if (has_best_ && config_.collapse_threshold > 0.0 &&
      health.metric < best_ - config_.collapse_threshold) {
    return WatchdogVerdict::kCollapse;
  }
  // Healthy so far: fold the round into the baseline before the stall check
  // so `patience` counts rounds since the last real improvement.
  const bool improved = !has_best_ || health.metric > best_ + config_.stall_epsilon;
  if (!has_best_ || health.metric > best_) {
    best_ = health.metric;
    has_best_ = true;
  }
  if (improved) {
    stall_rounds_ = 0;
  } else {
    ++stall_rounds_;
  }
  if (config_.patience > 0 && stall_rounds_ >= config_.patience) {
    stall_rounds_ = 0;  // one trigger per stalled window, not one per round
    return WatchdogVerdict::kStall;
  }
  return WatchdogVerdict::kHealthy;
}

void DivergenceWatchdog::ResetAfterRollback(double restored_metric) {
  best_ = restored_metric;
  has_best_ = true;
  stall_rounds_ = 0;
}

}  // namespace floatfl
