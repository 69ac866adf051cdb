#include "src/core/float_controller.h"

namespace floatfl {

FloatController::FloatController(const StateEncoderConfig& encoder_config,
                                 const RlhfConfig& rlhf_config, size_t calibration_samples)
    : agent_(encoder_config, rlhf_config, ActionTechniques().size()),
      calibration_samples_(calibration_samples) {}

void FloatController::MaybeCollectCalibration(const ClientObservation& client) {
  if (calibration_samples_ == 0 || calibrated_) {
    return;
  }
  cpu_samples_.push_back(client.cpu_avail);
  mem_samples_.push_back(client.mem_avail);
  net_samples_.push_back(client.net_avail);
  deadline_samples_.push_back(client.deadline_diff);
  if (cpu_samples_.size() >= calibration_samples_) {
    // RQ5: replace the fixed Table-1 ranges with percentile boundaries fitted
    // to the observed variance of each metric.
    agent_.mutable_encoder().FitResourceBins(cpu_samples_, mem_samples_, net_samples_,
                                             deadline_samples_);
    calibrated_ = true;
    cpu_samples_.shrink_to_fit();
  }
}

std::unique_ptr<FloatController> FloatController::MakeDefault(uint64_t seed, size_t total_rounds) {
  StateEncoderConfig encoder_config;
  encoder_config.include_human_feedback = true;
  RlhfConfig rlhf_config;
  rlhf_config.seed = seed;
  rlhf_config.total_rounds = total_rounds;
  return std::make_unique<FloatController>(encoder_config, rlhf_config);
}

std::unique_ptr<FloatController> FloatController::MakeWithoutHumanFeedback(uint64_t seed,
                                                                           size_t total_rounds) {
  StateEncoderConfig encoder_config;
  encoder_config.include_human_feedback = false;
  RlhfConfig rlhf_config;
  rlhf_config.seed = seed;
  rlhf_config.total_rounds = total_rounds;
  rlhf_config.cache_dropout_feedback = false;
  return std::make_unique<FloatController>(encoder_config, rlhf_config);
}

TechniqueKind FloatController::Decide(size_t client_id, const ClientObservation& client,
                                      const GlobalObservation& global) {
  (void)client_id;
  MaybeCollectCalibration(client);
  return agent_.ChooseTechnique(client, global, round_);
}

void FloatController::Report(size_t client_id, const ClientObservation& client,
                             const GlobalObservation& global, TechniqueKind technique,
                             bool participated, double accuracy_improvement) {
  (void)client_id;
  agent_.Feedback(client, global, technique, participated, accuracy_improvement, round_);
  // Advance the learning-rate round counter once a round's worth of
  // feedback has arrived (the engines report once per selected client).
  ++reports_this_round_;
  if (reports_this_round_ >= global.participants) {
    reports_this_round_ = 0;
    ++round_;
  }
}

std::string FloatController::Name() const {
  return agent_.encoder().config().include_human_feedback ? "float-rlhf" : "float-rl";
}

}  // namespace floatfl
