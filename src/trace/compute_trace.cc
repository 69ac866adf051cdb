#include "src/trace/compute_trace.h"

#include <algorithm>
#include <cmath>


namespace floatfl {
namespace {

struct TierParams {
  DeviceTier tier;
  double weight;        // population share
  double median_gflops; // training-effective throughput
  double sigma;
  double median_mem_gb;
};

// Effective on-device *training* throughput is far below peak inference
// numbers; medians chosen so the population spans roughly 1.5–80 GFLOP/s,
// a >10x spread as in AI-Benchmark.
constexpr TierParams kTiers[] = {
    {DeviceTier::kFlagship, 0.20, 48.0, 0.30, 8.0},
    {DeviceTier::kMid, 0.40, 18.0, 0.35, 6.0},
    {DeviceTier::kBudget, 0.35, 8.0, 0.40, 3.0},
    {DeviceTier::kIot, 0.05, 3.5, 0.45, 1.5},
};

}  // namespace

ComputeTrace ComputeTrace::SampleDevice(uint64_t seed) {
  Rng rng(seed);
  const double u = rng.NextDouble();
  double acc = 0.0;
  const TierParams* chosen = &kTiers[0];
  for (const auto& t : kTiers) {
    acc += t.weight;
    if (u < acc) {
      chosen = &t;
      break;
    }
  }
  const double gflops = rng.LogNormal(chosen->median_gflops, chosen->sigma);
  return ComputeTrace(chosen->tier, gflops, rng.NextU64());
}

ComputeTrace::ComputeTrace(DeviceTier tier, double base_gflops, uint64_t seed)
    : tier_(tier), base_gflops_(base_gflops), rng_(seed), current_gflops_(base_gflops) {
  double median_mem = 4.0;
  for (const auto& t : kTiers) {
    if (t.tier == tier) {
      median_mem = t.median_mem_gb;
      break;
    }
  }
  memory_gb_ = rng_.LogNormal(median_mem, 0.25);
}

double ComputeTrace::GflopsAt(double time_s) {
  // Fast-forward long gaps (see NetworkTrace::BandwidthMbpsAt).
  constexpr double kMaxCatchupSteps = 4096.0;
  if (time_s - current_time_ > kStepSeconds * kMaxCatchupSteps) {
    current_time_ = time_s - kStepSeconds * (kMaxCatchupSteps / 2.0);
  }
  bool stepped = false;
  while (current_time_ + kStepSeconds <= time_s) {
    // Slow log-space AR(1): thermal throttling and background load cause
    // sustained (minutes-long) throughput swings of up to ~2x.
    drift_ = 0.95 * drift_ + 0.08 * rng_.Normal();
    current_time_ += kStepSeconds;
    stepped = true;
  }
  // Only the value after the last step is observable; derive it once.
  if (stepped) {
    current_gflops_ = std::max(0.05 * base_gflops_, base_gflops_ * std::exp(drift_));
  }
  return current_gflops_;
}

}  // namespace floatfl
