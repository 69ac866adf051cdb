// Synthetic per-client device compute capability.
//
// Stand-in for the AI-Benchmark mobile/edge compute trace [27] (950 devices,
// 25 models) used by the paper: a device-tier population (flagship / mid /
// budget / IoT) with log-normal within-tier spread, matching the >10x
// training-speed spread the real trace exhibits, plus slow drift over time
// (thermal throttling, background load).
#ifndef SRC_TRACE_COMPUTE_TRACE_H_
#define SRC_TRACE_COMPUTE_TRACE_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

enum class DeviceTier { kFlagship, kMid, kBudget, kIot };

class ComputeTrace {
 public:
  // Samples a tier from the population mix and a device speed within it.
  static ComputeTrace SampleDevice(uint64_t seed);

  ComputeTrace(DeviceTier tier, double base_gflops, uint64_t seed);

  DeviceTier tier() const { return tier_; }
  double BaseGflops() const { return base_gflops_; }

  // Effective training throughput (GFLOP/s) at `time_s`, including slow
  // drift. Monotonic-time contract as in NetworkTrace.
  double GflopsAt(double time_s);

  // Device memory capacity in GB available to apps.
  double MemoryGb() const { return memory_gb_; }

  // Checkpoint/resume of the mutable drift process (static device
  // parameters are rebuilt deterministically from the experiment seed).
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.rng_, self.drift_, self.current_time_, self.current_gflops_);
  }

  DeviceTier tier_;
  double base_gflops_;
  double memory_gb_;
  Rng rng_;
  double drift_ = 0.0;           // log-space AR(1) deviation
  double current_time_ = 0.0;
  double current_gflops_;
  static constexpr double kStepSeconds = 30.0;
};

}  // namespace floatfl

#endif  // SRC_TRACE_COMPUTE_TRACE_H_
