#include "src/failure/fault_config.h"

#include "src/common/check.h"

namespace floatfl {

namespace {

// A probability, or a fraction of the population.
void CheckUnit(double p, const char* message) {
  FLOATFL_CHECK_MSG(p >= 0.0 && p <= 1.0, message);
}

}  // namespace

void ValidateFaultConfig(const FaultConfig& config) {
  CheckUnit(config.crash_prob, "faults.crash_prob must be in [0, 1]");
  CheckUnit(config.corrupt_prob, "faults.corrupt_prob must be in [0, 1]");
  CheckUnit(config.flaky_fraction, "faults.flaky_fraction must be in [0, 1]");
  CheckUnit(config.flaky_enter_prob, "faults.flaky_enter_prob must be in [0, 1]");
  CheckUnit(config.flaky_exit_prob, "faults.flaky_exit_prob must be in [0, 1]");
  CheckUnit(config.flaky_crash_prob, "faults.flaky_crash_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.overcommit >= 1.0, "faults.overcommit must be >= 1.0");
  FLOATFL_CHECK_MSG(config.reject_norm_threshold > 0.0,
                    "faults.reject_norm_threshold must be positive");
  CheckUnit(config.byzantine_fraction, "faults.byzantine_fraction must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.byzantine_scale >= 0.0, "faults.byzantine_scale must be non-negative");
  FLOATFL_CHECK_MSG(config.chunk_loss_prob >= 0.0 && config.chunk_loss_prob < 1.0,
                    "faults.chunk_loss_prob must be in [0, 1)");
  FLOATFL_CHECK_MSG(config.link_blackout_prob >= 0.0 && config.link_blackout_prob < 1.0,
                    "faults.link_blackout_prob must be in [0, 1)");
  FLOATFL_CHECK_MSG(config.transport_chunk_mb > 0.0, "faults.transport_chunk_mb must be positive");
  CheckUnit(config.duplicate_prob, "faults.duplicate_prob must be in [0, 1]");
  CheckUnit(config.replay_prob, "faults.replay_prob must be in [0, 1]");
  CheckUnit(config.reorder_prob, "faults.reorder_prob must be in [0, 1]");
  CheckUnit(config.stampede_prob, "faults.stampede_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.stampede_prob == 0.0 || config.stampede_factor > 0,
                    "faults.stampede_factor must be positive when stampedes can fire");
}

}  // namespace floatfl
