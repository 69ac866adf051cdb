#include "src/metrics/resource_accountant.h"

#include "src/common/check.h"

namespace floatfl {

void ResourceAccountant::Record(double train_time_s, double comm_time_s, double peak_memory_mb,
                                bool completed) {
  FLOATFL_CHECK(train_time_s >= 0.0 && comm_time_s >= 0.0 && peak_memory_mb >= 0.0);
  ResourceTotals delta;
  delta.compute_hours = train_time_s / 3600.0;
  delta.comm_hours = comm_time_s / 3600.0;
  delta.memory_tb = peak_memory_mb / (1024.0 * 1024.0);
  std::lock_guard<std::mutex> lock(mu_);
  if (completed) {
    useful_ += delta;
  } else {
    wasted_ += delta;
  }
  ++records_;
}

}  // namespace floatfl
