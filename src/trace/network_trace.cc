#include "src/trace/network_trace.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace floatfl {

NetworkTrace::NetworkTrace(NetworkKind kind, uint64_t seed) : kind_(kind), rng_(seed) {
  if (kind == NetworkKind::kFourG) {
    // Commercial 4G: tens of Mbps median, strong variability, occasional
    // dead zones (walking/driving traces in [50]).
    nominal_mbps_ = 14.0;
    sigma_ = 0.35;
    revert_ = 0.85;
    outage_prob_ = 0.008;
    degrade_prob_ = 0.03;
    recover_prob_ = 0.35;
  } else {
    // Commercial 5G: order-of-magnitude higher median but far spikier, with
    // frequent fallbacks to much lower rates (coverage holes).
    nominal_mbps_ = 160.0;
    sigma_ = 0.55;
    revert_ = 0.75;
    outage_prob_ = 0.010;
    degrade_prob_ = 0.06;
    recover_prob_ = 0.35;
  }
  // Start with a per-client baseline spread (different users see different
  // typical speeds even on the same technology).
  nominal_mbps_ = rng_.LogNormal(nominal_mbps_, 0.4);
  current_mbps_ = nominal_mbps_;
}

void NetworkTrace::Step() {
  // Regime transitions.
  const double u = rng_.NextDouble();
  if (regime_ == 0) {
    if (u < outage_prob_) {
      regime_ = 2;
    } else if (u < outage_prob_ + degrade_prob_) {
      regime_ = 1;
    }
  } else {
    if (u < recover_prob_) {
      regime_ = 0;
    } else if (regime_ == 1 && u > 1.0 - outage_prob_) {
      regime_ = 2;
    }
  }
  // Log-space AR(1) around the regime median.
  log_dev_ = revert_ * log_dev_ + sigma_ * rng_.Normal();
}

NetworkTrace NetworkTrace::Constant(double mbps) {
  NetworkTrace trace(NetworkKind::kFourG, 0);
  trace.nominal_mbps_ = mbps;
  trace.sigma_ = 0.0;
  trace.revert_ = 0.0;
  trace.outage_prob_ = 0.0;
  trace.degrade_prob_ = 0.0;
  trace.recover_prob_ = 1.0;
  trace.regime_ = 0;
  trace.log_dev_ = 0.0;
  trace.current_mbps_ = mbps;
  return trace;
}

double NetworkTrace::BandwidthMbpsAt(double time_s) {
  FLOATFL_CHECK_MSG(time_s >= last_query_s_,
                    "NetworkTrace queried backwards in time (monotonic contract)");
  last_query_s_ = time_s;
  // Fast-forward across very long gaps: the regime process is ergodic, so
  // after thousands of steps the exact path is irrelevant — burn a bounded
  // number of steps to land in a stationary state instead of iterating
  // through the whole gap.
  constexpr double kMaxCatchupSteps = 4096.0;
  if (time_s - current_time_ > kStepSeconds * kMaxCatchupSteps) {
    current_time_ = time_s - kStepSeconds * (kMaxCatchupSteps / 2.0);
  }
  // A degenerate Constant() trace never steps: it stays pinned forever, even
  // below the 0.01 Mbps floor the stochastic process enforces (Constant(0)
  // must stay 0).
  const bool pinned = sigma_ == 0.0;
  bool stepped = false;
  while (current_time_ + kStepSeconds <= time_s) {
    if (!pinned) {
      Step();
      stepped = true;
    }
    current_time_ += kStepSeconds;
  }
  // Only the bandwidth after the last step can be observed (a checkpoint
  // saves state between queries), so it is derived once per catch-up.
  if (stepped) {
    double median = nominal_mbps_;
    if (regime_ == 1) {
      median *= 0.25;
    } else if (regime_ == 2) {
      median *= 0.005;  // effectively unusable, but never exactly zero
    }
    current_mbps_ = std::max(0.01, median * std::exp(log_dev_));
  }
  return current_mbps_;
}

}  // namespace floatfl
