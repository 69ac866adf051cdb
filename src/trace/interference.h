// On-device interference from co-located applications (Section 4.3).
//
// Three scenarios from the paper:
//  - kNone:    all client resources are dedicated to FL training.
//  - kStatic:  high-priority co-located apps consume a fixed share, drawn
//              once per client.
//  - kDynamic: concurrent apps claim resources that fluctuate over time
//              (bounded AR(1) per resource). The paper focuses on this one
//              as the realistic setting.
#ifndef SRC_TRACE_INTERFERENCE_H_
#define SRC_TRACE_INTERFERENCE_H_

#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

enum class InterferenceScenario { kNone, kStatic, kDynamic };

std::string ToString(InterferenceScenario scenario);

// Fractions of each resource available to FL training, each in [0, 1].
struct ResourceAvailability {
  double cpu = 1.0;
  double memory = 1.0;
  double network = 1.0;
};

class InterferenceModel {
 public:
  InterferenceModel(InterferenceScenario scenario, uint64_t seed);

  // Availability fractions at simulated time `time_s` (monotonic-time
  // contract as in the other traces).
  ResourceAvailability At(double time_s);

  InterferenceScenario scenario() const { return scenario_; }

  // Checkpoint/resume of the mutable AR(1) state.
  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.rng_, self.dev_cpu_, self.dev_mem_, self.dev_net_, self.current_time_,
       self.current_.cpu, self.current_.memory, self.current_.network);
  }

  InterferenceScenario scenario_;
  Rng rng_;
  ResourceAvailability static_level_;
  // Dynamic state: AR(1) deviations per resource.
  double dev_cpu_ = 0.0;
  double dev_mem_ = 0.0;
  double dev_net_ = 0.0;
  double current_time_ = 0.0;
  ResourceAvailability current_;
  static constexpr double kStepSeconds = 15.0;
};

}  // namespace floatfl

#endif  // SRC_TRACE_INTERFERENCE_H_
