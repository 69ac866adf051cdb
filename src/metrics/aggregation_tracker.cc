#include "src/metrics/aggregation_tracker.h"

namespace floatfl {

void AggregationTracker::Record(size_t byzantine_selected, const AggregatorStats& round_stats) {
  AggregationRoundRecord record;
  record.byzantine_selected = byzantine_selected;
  record.updates_clipped = round_stats.updates_clipped;
  record.krum_rejections = round_stats.krum_rejections;
  record.updates_trimmed = round_stats.updates_trimmed;
  history_.push_back(record);
}

size_t AggregationTracker::TotalByzantineSelected() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.byzantine_selected;
  }
  return total;
}

size_t AggregationTracker::TotalClipped() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.updates_clipped;
  }
  return total;
}

size_t AggregationTracker::TotalKrumRejections() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.krum_rejections;
  }
  return total;
}

size_t AggregationTracker::TotalTrimmed() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.updates_trimmed;
  }
  return total;
}

}  // namespace floatfl
