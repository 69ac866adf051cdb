#include "src/fl/experiment.h"

#include "src/agg/aggregator.h"
#include "src/common/check.h"

namespace floatfl {

void ValidateExperimentConfig(const ExperimentConfig& config) {
  FLOATFL_CHECK_MSG(config.num_clients > 0, "num_clients must be positive");
  // clients_per_round may exceed num_clients: selectors clamp to the
  // population, matching the tolerant behavior the robustness suite pins.
  FLOATFL_CHECK_MSG(config.clients_per_round > 0, "clients_per_round must be positive");
  FLOATFL_CHECK_MSG(config.rounds > 0, "rounds must be positive");
  FLOATFL_CHECK_MSG(config.epochs > 0, "epochs must be positive");
  FLOATFL_CHECK_MSG(config.batch_size > 0, "batch_size must be positive");
  FLOATFL_CHECK_MSG(config.async_concurrency > 0, "async_concurrency must be positive");
  FLOATFL_CHECK_MSG(config.async_buffer > 0, "async_buffer must be positive");
  FLOATFL_CHECK_MSG(config.async_buffer <= config.async_concurrency,
                    "async_buffer cannot exceed async_concurrency");
  ValidateFaultConfig(config.faults);
  FLOATFL_CHECK_MSG(config.adaptive_deadline.min_factor > 0.0 &&
                        config.adaptive_deadline.min_factor <= config.adaptive_deadline.max_factor,
                    "adaptive_deadline factors must satisfy 0 < min_factor <= max_factor");
  FLOATFL_CHECK_MSG(config.adaptive_deadline.headroom > 0.0,
                    "adaptive_deadline.headroom must be positive");
  ValidateAggregatorConfig(config.aggregator);
  ValidateGuardConfig(config.guard);
  ValidateTopologyConfig(config.topology);
  ValidateAdmissionConfig(config.admission);
  ValidateSalvageConfig(config.salvage);
}

}  // namespace floatfl
