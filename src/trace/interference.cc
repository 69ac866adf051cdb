#include "src/trace/interference.h"

#include <algorithm>
#include <cmath>


namespace floatfl {
namespace {

double Clamp01(double x) { return std::clamp(x, 0.02, 1.0); }

}  // namespace

std::string ToString(InterferenceScenario scenario) {
  switch (scenario) {
    case InterferenceScenario::kNone:
      return "none";
    case InterferenceScenario::kStatic:
      return "static";
    case InterferenceScenario::kDynamic:
      return "dynamic";
  }
  return "unknown";
}

InterferenceModel::InterferenceModel(InterferenceScenario scenario, uint64_t seed)
    : scenario_(scenario), rng_(seed) {
  switch (scenario_) {
    case InterferenceScenario::kNone:
      static_level_ = {1.0, 1.0, 1.0};
      break;
    case InterferenceScenario::kStatic:
      // High-priority apps hold a fixed share; FL keeps roughly 30–70 %.
      static_level_.cpu = rng_.Uniform(0.30, 0.70);
      static_level_.memory = rng_.Uniform(0.40, 0.80);
      static_level_.network = rng_.Uniform(0.30, 0.70);
      break;
    case InterferenceScenario::kDynamic:
      // Dynamic fluctuates around a per-client mean level.
      static_level_.cpu = rng_.Uniform(0.30, 0.90);
      static_level_.memory = rng_.Uniform(0.40, 0.90);
      static_level_.network = rng_.Uniform(0.30, 0.90);
      break;
  }
  current_ = static_level_;
}

ResourceAvailability InterferenceModel::At(double time_s) {
  if (scenario_ != InterferenceScenario::kDynamic) {
    return static_level_;
  }
  // Fast-forward long gaps (see NetworkTrace::BandwidthMbpsAt).
  constexpr double kMaxCatchupSteps = 4096.0;
  if (time_s - current_time_ > kStepSeconds * kMaxCatchupSteps) {
    current_time_ = time_s - kStepSeconds * (kMaxCatchupSteps / 2.0);
  }
  bool stepped = false;
  while (current_time_ + kStepSeconds <= time_s) {
    dev_cpu_ = 0.88 * dev_cpu_ + 0.12 * rng_.Normal();
    dev_mem_ = 0.92 * dev_mem_ + 0.08 * rng_.Normal();
    dev_net_ = 0.85 * dev_net_ + 0.15 * rng_.Normal();
    current_time_ += kStepSeconds;
    stepped = true;
  }
  // Only the fractions after the last step are observable; derive them once.
  if (stepped) {
    current_.cpu = Clamp01(static_level_.cpu * std::exp(0.45 * dev_cpu_));
    current_.memory = Clamp01(static_level_.memory * std::exp(0.30 * dev_mem_));
    current_.network = Clamp01(static_level_.network * std::exp(0.55 * dev_net_));
  }
  return current_;
}

}  // namespace floatfl
