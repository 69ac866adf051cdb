// Attack-vs-defense bookkeeping for the aggregation subsystem (DESIGN.md
// §9): how many selected clients were Byzantine and what the configured
// aggregator did about it (clipped, trimmed, Krum-rejected updates), per
// round and cumulatively.
#ifndef SRC_METRICS_AGGREGATION_TRACKER_H_
#define SRC_METRICS_AGGREGATION_TRACKER_H_

#include <cstddef>
#include <vector>

#include "src/agg/aggregator.h"
#include "src/failure/checkpoint_io.h"

namespace floatfl {

// One round's attack-vs-defense ledger.
struct AggregationRoundRecord {
  size_t byzantine_selected = 0;
  size_t updates_clipped = 0;
  size_t krum_rejections = 0;
  size_t updates_trimmed = 0;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.byzantine_selected, self.updates_clipped, self.krum_rejections, self.updates_trimmed);
  }
};

// Recorded from sequential bookkeeping code only (not thread-safe; the
// engines record after the per-round fan-out has joined).
struct AggregationTracker {
  std::vector<AggregationRoundRecord> history;

  void Record(size_t byzantine_selected, const AggregatorStats& round_stats) {
    history.push_back({byzantine_selected, round_stats.updates_clipped,
                       round_stats.krum_rejections, round_stats.updates_trimmed});
  }
  // Every round's ledger summed.
  AggregationRoundRecord Totals() const {
    AggregationRoundRecord total;
    for (const AggregationRoundRecord& r : history) {
      total.byzantine_selected += r.byzantine_selected;
      total.updates_clipped += r.updates_clipped;
      total.krum_rejections += r.krum_rejections;
      total.updates_trimmed += r.updates_trimmed;
    }
    return total;
  }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.history);
  }
};

}  // namespace floatfl

#endif  // SRC_METRICS_AGGREGATION_TRACKER_H_
