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

class AggregationTracker {
 public:
  // Records one round. Call from sequential bookkeeping code only (not
  // thread-safe; the engines record after the per-round fan-out has joined).
  void Record(size_t byzantine_selected, const AggregatorStats& round_stats);

  size_t rounds() const { return history_.size(); }
  const std::vector<AggregationRoundRecord>& history() const { return history_; }

  size_t TotalByzantineSelected() const;
  size_t TotalClipped() const;
  size_t TotalKrumRejections() const;
  size_t TotalTrimmed() const;

  // Checkpoint/resume.
  void SaveState(CheckpointWriter& w) const { Io(w, history_); }
  void LoadState(CheckpointReader& r) { Io(r, history_); }

 private:
  std::vector<AggregationRoundRecord> history_;
};

}  // namespace floatfl

#endif  // SRC_METRICS_AGGREGATION_TRACKER_H_
