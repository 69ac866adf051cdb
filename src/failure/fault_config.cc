#include "src/failure/fault_config.h"

#include "src/common/check.h"

namespace floatfl {

void ValidateFaultConfig(const FaultConfig& config) {
  FLOATFL_CHECK_MSG(config.overcommit >= 1.0, "faults.overcommit must be >= 1.0");
  FLOATFL_CHECK_MSG(config.reject_norm_threshold > 0.0,
                    "faults.reject_norm_threshold must be positive");
  FLOATFL_CHECK_MSG(config.byzantine_fraction >= 0.0 && config.byzantine_fraction <= 1.0,
                    "faults.byzantine_fraction must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.byzantine_scale >= 0.0, "faults.byzantine_scale must be non-negative");
  FLOATFL_CHECK_MSG(config.chunk_loss_prob >= 0.0 && config.chunk_loss_prob < 1.0,
                    "faults.chunk_loss_prob must be in [0, 1)");
  FLOATFL_CHECK_MSG(config.link_blackout_prob >= 0.0 && config.link_blackout_prob < 1.0,
                    "faults.link_blackout_prob must be in [0, 1)");
  FLOATFL_CHECK_MSG(config.transport_chunk_mb > 0.0, "faults.transport_chunk_mb must be positive");
  FLOATFL_CHECK_MSG(config.duplicate_prob >= 0.0 && config.duplicate_prob <= 1.0,
                    "faults.duplicate_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.replay_prob >= 0.0 && config.replay_prob <= 1.0,
                    "faults.replay_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.reorder_prob >= 0.0 && config.reorder_prob <= 1.0,
                    "faults.reorder_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.stampede_prob >= 0.0 && config.stampede_prob <= 1.0,
                    "faults.stampede_prob must be in [0, 1]");
  FLOATFL_CHECK_MSG(config.stampede_prob == 0.0 || config.stampede_factor > 0,
                    "faults.stampede_factor must be positive when stampedes can fire");
}

}  // namespace floatfl
