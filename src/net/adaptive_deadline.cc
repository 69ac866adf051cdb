#include "src/net/adaptive_deadline.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/fl/client.h"

namespace floatfl {

AdaptiveDeadlineController::AdaptiveDeadlineController(const AdaptiveDeadlineConfig& config,
                                                       size_t num_clients,
                                                       double base_deadline_s)
    : config_(config),
      base_deadline_s_(base_deadline_s),
      round_time_ewma_(num_clients, 0.0),
      throughput_ewma_(num_clients, 0.0),
      seen_(num_clients, 0) {
  FLOATFL_CHECK_MSG(!config.enabled || base_deadline_s > 0.0,
                    "adaptive deadline needs a positive base deadline");
}

void AdaptiveDeadlineController::Observe(size_t client_id, double round_time_s,
                                         double throughput_mbps) {
  FLOATFL_CHECK(client_id < round_time_ewma_.size());
  if (!seen_[client_id]) {
    seen_[client_id] = 1;
    round_time_ewma_[client_id] = round_time_s;
    throughput_ewma_[client_id] = std::max(0.0, throughput_mbps);
    return;
  }
  round_time_ewma_[client_id] = Client::kProfileEwmaRetain * round_time_ewma_[client_id] +
                                Client::kProfileEwmaObserve * round_time_s;
  if (throughput_mbps > 0.0) {
    throughput_ewma_[client_id] = Client::kProfileEwmaRetain * throughput_ewma_[client_id] +
                                  Client::kProfileEwmaObserve * throughput_mbps;
  }
}

double AdaptiveDeadlineController::CurrentDeadline() const {
  std::vector<double> estimates;
  estimates.reserve(round_time_ewma_.size());
  for (size_t i = 0; i < round_time_ewma_.size(); ++i) {
    if (seen_[i]) {
      estimates.push_back(round_time_ewma_[i]);
    }
  }
  if (estimates.empty()) {
    return base_deadline_s_;
  }
  const double proposed = config_.headroom * Percentile(estimates, 50.0);
  return std::clamp(proposed, config_.min_factor * base_deadline_s_,
                    config_.max_factor * base_deadline_s_);
}

double AdaptiveDeadlineController::ThroughputEstimate(size_t client_id) const {
  FLOATFL_CHECK(client_id < throughput_ewma_.size());
  return throughput_ewma_[client_id];
}

}  // namespace floatfl
