// Graceful-degradation accounting (DESIGN.md §16): how many interrupted
// clients yielded a salvageable partial update, how much completed work the
// partials carried (local steps, progress fractions, acked payload bytes),
// and how the speculative backups fared (planned / won the race / charged
// as redundant, deadline misses averted). All counters are cumulative and
// ride inside engine checkpoints for bit-exact resume. Call from sequential
// bookkeeping code only (not thread-safe; the engines record after the
// per-round fan-out has joined).
#ifndef SRC_METRICS_SALVAGE_TRACKER_H_
#define SRC_METRICS_SALVAGE_TRACKER_H_

#include <cstddef>
#include <cstdint>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class SalvageTracker {
 public:
  // One interrupted client whose partial was accepted into the aggregate.
  // `steps` is the completed-local-steps metadata, `fraction` the completed
  // work fraction in [0, 1], `progress_mb` the unique acked payload bytes a
  // transfer interruption preserved (0 for training interruptions).
  void RecordPartialSalvaged(uint64_t steps, double fraction, double progress_mb) {
    ++partials_salvaged_;
    salvaged_steps_ += steps;
    salvaged_fraction_sum_ += fraction;
    salvaged_progress_mb_ += progress_mb;
  }
  // An interrupted client whose progress fell below salvage.min_progress.
  void RecordPartialBelowMin() { ++partials_below_min_; }
  // A qualifying partial the server refused (admission gate or validation).
  void RecordPartialRejected() { ++partials_rejected_; }

  void RecordBackupsPlanned(size_t n) { backups_planned_ += n; }
  // A backup whose completion covered an interrupted (or slower) primary.
  void RecordBackupWin() { ++backups_won_; }
  // A backup (or out-raced primary) charged as redundant work.
  void RecordBackupRedundant() { ++backups_redundant_; }
  // A primary that would have been a missed-deadline dropout but for its
  // backup — the figure speculation exists to cut.
  void RecordDeadlineMissAverted() { ++deadline_misses_averted_; }

  size_t PartialsSalvaged() const { return partials_salvaged_; }
  size_t PartialsBelowMin() const { return partials_below_min_; }
  size_t PartialsRejected() const { return partials_rejected_; }
  uint64_t SalvagedSteps() const { return salvaged_steps_; }
  double SalvagedFractionSum() const { return salvaged_fraction_sum_; }
  double SalvagedProgressMb() const { return salvaged_progress_mb_; }
  size_t BackupsPlanned() const { return backups_planned_; }
  size_t BackupsWon() const { return backups_won_; }
  size_t BackupsRedundant() const { return backups_redundant_; }
  size_t DeadlineMissesAverted() const { return deadline_misses_averted_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.partials_salvaged_, self.partials_below_min_, self.partials_rejected_,
       self.salvaged_steps_, self.salvaged_fraction_sum_, self.salvaged_progress_mb_,
       self.backups_planned_, self.backups_won_, self.backups_redundant_,
       self.deadline_misses_averted_);
  }

  size_t partials_salvaged_ = 0;
  size_t partials_below_min_ = 0;
  size_t partials_rejected_ = 0;
  uint64_t salvaged_steps_ = 0;
  double salvaged_fraction_sum_ = 0.0;
  double salvaged_progress_mb_ = 0.0;
  size_t backups_planned_ = 0;
  size_t backups_won_ = 0;
  size_t backups_redundant_ = 0;
  size_t deadline_misses_averted_ = 0;
};

}  // namespace floatfl

#endif  // SRC_METRICS_SALVAGE_TRACKER_H_
