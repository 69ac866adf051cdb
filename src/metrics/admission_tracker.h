// Cumulative accounting of the server-ingestion (admission) layer
// (DESIGN.md §15): what the gate admitted and what it turned away, by
// verdict, plus the deepest the bounded ingress queue ever got. Recorded
// from sequential engine code only; rides inside engine checkpoints so the
// totals are bit-exact across resumes.
#ifndef SRC_METRICS_ADMISSION_TRACKER_H_
#define SRC_METRICS_ADMISSION_TRACKER_H_

#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class AdmissionTracker {
 public:
  void RecordAdmitted(size_t n) { admitted_ += n; }
  void RecordDeduplicated() { ++deduplicated_; }
  void RecordShed() { ++shed_; }
  void RecordRateLimited() { ++rate_limited_; }
  void RecordReplayRejected() { ++replay_rejected_; }
  void RecordQueueDepth(size_t depth) {
    if (depth > peak_queue_depth_) {
      peak_queue_depth_ = depth;
    }
  }
  // Folds `other`'s counts into this tracker (one round's bursts into the
  // run's totals); the peak stays the deeper of the two.
  void Merge(const AdmissionTracker& other) {
    admitted_ += other.admitted_;
    deduplicated_ += other.deduplicated_;
    shed_ += other.shed_;
    rate_limited_ += other.rate_limited_;
    replay_rejected_ += other.replay_rejected_;
    RecordQueueDepth(other.peak_queue_depth_);
  }

  size_t Admitted() const { return admitted_; }
  size_t Deduplicated() const { return deduplicated_; }
  size_t Shed() const { return shed_; }
  size_t RateLimited() const { return rate_limited_; }
  size_t ReplayRejected() const { return replay_rejected_; }
  size_t PeakQueueDepth() const { return peak_queue_depth_; }
  size_t TotalRejected() const {
    return deduplicated_ + shed_ + rate_limited_ + replay_rejected_;
  }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.admitted_, self.deduplicated_, self.shed_, self.rate_limited_, self.replay_rejected_,
       self.peak_queue_depth_);
  }

  size_t admitted_ = 0;
  size_t deduplicated_ = 0;
  size_t shed_ = 0;
  size_t rate_limited_ = 0;
  size_t replay_rejected_ = 0;
  size_t peak_queue_depth_ = 0;
};

}  // namespace floatfl

#endif  // SRC_METRICS_ADMISSION_TRACKER_H_
