// Table-1 state encoding for FLOAT's Q-learning RLHF agent (RQ5).
//
// Continuous client metrics are reduced to 5 discrete bins each (the paper's
// statistically chosen sweet spot): CPU, memory and network availability
// ("Runtime Variance") and, when human feedback is enabled, the client's
// deadline difference. Global training parameters (batch size, local epochs,
// participant count) add 3-bin dimensions when enabled. The default paper
// configuration — runtime variance only — yields 5^3 = 125 state
// combinations with 8 actions (the red line in Figure 8).
#ifndef SRC_CORE_STATE_ENCODER_H_
#define SRC_CORE_STATE_ENCODER_H_

#include <cstddef>
#include <vector>

#include "src/common/discretizer.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/tuning_policy.h"

namespace floatfl {

struct StateEncoderConfig {
  bool include_global = false;        // G_B, G_E, G_K dimensions
  bool include_human_feedback = false;  // deadline-difference dimension
  size_t resource_bins = 5;           // bins per runtime-variance metric
};

class StateEncoder {
 public:
  explicit StateEncoder(const StateEncoderConfig& config);

  size_t NumStates() const { return num_states_; }

  size_t Encode(const ClientObservation& client, const GlobalObservation& global) const;

  // Replaces the fixed Table-1 ranges with statistical (quantile) bin
  // boundaries fitted to observed client metrics — the paper's
  // variance-driven dimensionality reduction.
  void FitResourceBins(const std::vector<double>& cpu_samples,
                       const std::vector<double>& mem_samples,
                       const std::vector<double>& net_samples,
                       const std::vector<double>& deadline_samples);

  const StateEncoderConfig& config() const { return config_; }

  // Checkpoint/resume of the bin boundaries (calibration via FitResourceBins
  // mutates them, so the fixed construction-time defaults are not enough).
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a);

  StateEncoderConfig config_;
  Discretizer cpu_bins_;
  Discretizer mem_bins_;
  Discretizer net_bins_;
  Discretizer deadline_bins_;
  Discretizer batch_bins_;
  Discretizer epoch_bins_;
  Discretizer participant_bins_;
  size_t num_states_;

  void RecomputeNumStates();
};

}  // namespace floatfl

#endif  // SRC_CORE_STATE_ENCODER_H_
