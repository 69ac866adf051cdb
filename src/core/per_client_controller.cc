#include "src/core/per_client_controller.h"

#include "src/common/check.h"

namespace floatfl {

PerClientController::PerClientController(size_t num_clients,
                                         const StateEncoderConfig& encoder_config,
                                         const RlhfConfig& rlhf_config)
    : rounds_(num_clients, 0) {
  FLOATFL_CHECK(num_clients > 0);
  agents_.reserve(num_clients);
  for (size_t i = 0; i < num_clients; ++i) {
    RlhfConfig config = rlhf_config;
    config.seed = rlhf_config.seed + 0x9E37ULL * (i + 1);
    agents_.push_back(std::make_unique<RlhfAgent>(encoder_config, config));
  }
}

std::unique_ptr<PerClientController> PerClientController::MakeDefault(size_t num_clients,
                                                                      uint64_t seed,
                                                                      size_t total_rounds) {
  StateEncoderConfig encoder_config;
  encoder_config.include_human_feedback = true;
  RlhfConfig rlhf_config;
  rlhf_config.seed = seed;
  // A single client sees only a fraction of the rounds; scale its local
  // learning-rate schedule accordingly.
  rlhf_config.total_rounds = std::max<size_t>(1, total_rounds / 10);
  return std::make_unique<PerClientController>(num_clients, encoder_config, rlhf_config);
}

TechniqueKind PerClientController::Decide(size_t client_id, const ClientObservation& client,
                                          const GlobalObservation& global) {
  FLOATFL_CHECK(client_id < agents_.size());
  return agents_[client_id]->ChooseTechnique(client, global, rounds_[client_id]);
}

void PerClientController::Report(size_t client_id, const ClientObservation& client,
                                 const GlobalObservation& global, TechniqueKind technique,
                                 bool participated, double accuracy_improvement) {
  FLOATFL_CHECK(client_id < agents_.size());
  agents_[client_id]->Feedback(client, global, technique, participated, accuracy_improvement,
                               rounds_[client_id]);
  ++rounds_[client_id];
}

RlhfAgent& PerClientController::agent(size_t client_id) {
  FLOATFL_CHECK(client_id < agents_.size());
  return *agents_[client_id];
}

size_t PerClientController::TotalMemoryBytes() const {
  size_t total = 0;
  for (const auto& agent : agents_) {
    total += agent->MemoryBytes();
  }
  return total;
}

}  // namespace floatfl
