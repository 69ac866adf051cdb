// Cumulative accounting of the server-ingestion (admission) layer
// (DESIGN.md §15): what the gate admitted and what it turned away, by
// verdict, plus the deepest the bounded ingress queue ever got. Recorded
// from sequential engine code only; rides inside engine checkpoints so the
// totals are bit-exact across resumes.
#ifndef SRC_METRICS_ADMISSION_TRACKER_H_
#define SRC_METRICS_ADMISSION_TRACKER_H_

#include <algorithm>
#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct AdmissionTracker {
  size_t admitted = 0;
  size_t deduplicated = 0;
  size_t shed = 0;
  size_t rate_limited = 0;
  size_t replay_rejected = 0;
  size_t peak_queue_depth = 0;

  void RecordQueueDepth(size_t depth) { peak_queue_depth = std::max(peak_queue_depth, depth); }
  // Folds `other`'s counts into this tracker (one round's bursts into the
  // run's totals); the peak stays the deeper of the two.
  void Merge(const AdmissionTracker& other) {
    admitted += other.admitted;
    deduplicated += other.deduplicated;
    shed += other.shed;
    rate_limited += other.rate_limited;
    replay_rejected += other.replay_rejected;
    RecordQueueDepth(other.peak_queue_depth);
  }
  size_t TotalRejected() const { return deduplicated + shed + rate_limited + replay_rejected; }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.admitted, self.deduplicated, self.shed, self.rate_limited, self.replay_rejected,
       self.peak_queue_depth);
  }
};

}  // namespace floatfl

#endif  // SRC_METRICS_ADMISSION_TRACKER_H_
