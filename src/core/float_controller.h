// FLOAT's non-intrusive integration point.
//
// FloatController adapts the RLHF agent to the TuningPolicy interface the FL
// engines consume, so FLOAT can be attached to any client-selection
// algorithm (FedAvg, Oort, FedBuff, ...) without touching the training loop
// — the property the paper calls non-intrusiveness. It also tracks the
// aggregation round for the agent's dynamic learning-rate schedule.
#ifndef SRC_CORE_FLOAT_CONTROLLER_H_
#define SRC_CORE_FLOAT_CONTROLLER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/rlhf_agent.h"
#include "src/fl/tuning_policy.h"

namespace floatfl {

class FloatController final : public TuningPolicy {
 public:
  // `calibration_samples` > 0 enables the paper's statistical dimensionality
  // reduction (RQ5): the controller collects that many client observations,
  // fits quantile bin boundaries to the observed resource variance, and only
  // then starts learning (the fixed Table-1 ranges are used during the
  // calibration window and replaced on fit).
  FloatController(const StateEncoderConfig& encoder_config, const RlhfConfig& rlhf_config,
                  size_t calibration_samples = 0);

  // Builds the paper's default FLOAT configuration: runtime-variance state
  // with human feedback enabled.
  static std::unique_ptr<FloatController> MakeDefault(uint64_t seed, size_t total_rounds);

  // FLOAT-RL ablation (Figure 11): no human-feedback state dimension and no
  // dropout feedback cache.
  static std::unique_ptr<FloatController> MakeWithoutHumanFeedback(uint64_t seed,
                                                                   size_t total_rounds);

  TechniqueKind Decide(size_t client_id, const ClientObservation& client,
                       const GlobalObservation& global) override;
  void Report(size_t client_id, const ClientObservation& client, const GlobalObservation& global,
              TechniqueKind technique, bool participated, double accuracy_improvement) override;
  std::string Name() const override;

  void SaveState(CheckpointWriter& w) const override { Fields(*this, w); }
  void LoadState(CheckpointReader& r) override { Fields(*this, r); }

  RlhfAgent& agent() { return agent_; }
  const RlhfAgent& agent() const { return agent_; }
  size_t CurrentRound() const { return round_; }

  bool CalibrationDone() const {
    return calibration_samples_ == 0 || cpu_samples_.size() >= calibration_samples_;
  }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.agent_, self.round_, self.reports_this_round_, self.calibration_samples_,
       self.calibrated_, self.cpu_samples_, self.mem_samples_, self.net_samples_,
       self.deadline_samples_);
  }

  void MaybeCollectCalibration(const ClientObservation& client);

  RlhfAgent agent_;
  size_t round_ = 0;
  size_t reports_this_round_ = 0;
  // RQ5 calibration state.
  size_t calibration_samples_ = 0;
  bool calibrated_ = false;
  std::vector<double> cpu_samples_;
  std::vector<double> mem_samples_;
  std::vector<double> net_samples_;
  std::vector<double> deadline_samples_;
};

}  // namespace floatfl

#endif  // SRC_CORE_FLOAT_CONTROLLER_H_
