// Bookkeeping for the crash-consistent run supervisor (src/recovery,
// DESIGN.md §14).
//
// Counts what durability cost and what recovery did: ring checkpoints
// written / failed (disk faults) / garbage-collected, process lives that
// restored from the ring, corrupt or torn archives the recovery scan had to
// skip, and rounds replayed because a kill lost work since the last durable
// archive. The tracker lives *inside* each engine and is serialized with it,
// so the totals accumulate across process lives: the final result of a run
// that died five times reports all five restarts. Recorded only from the
// supervisor's sequential drive loop; not thread-safe by design.
#ifndef SRC_METRICS_RECOVERY_TRACKER_H_
#define SRC_METRICS_RECOVERY_TRACKER_H_

#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

class RecoveryTracker {
 public:
  // A process life that restored engine state from the ring (recorded after
  // the restore, so it persists with the recovered state from then on).
  void RecordRestart() { ++restarts_; }
  // Ring archives the recovery scan refused (torn, bit-flipped, truncated,
  // foreign config) before finding a good one — or before giving up.
  void RecordArchivesSkipped(size_t archives) { archives_skipped_ += archives; }
  // Rounds a previous life had provably completed (newest round number named
  // in the ring, archives and torn temps alike) that the restored state is
  // behind on and this life must re-run.
  void RecordRoundsReplayed(size_t rounds) { rounds_replayed_ += rounds; }
  void RecordCheckpointWritten() { ++checkpoints_written_; }
  // Save returned false (unwritable directory, disk full, torn write): the
  // run continues on the previous archive, one cadence more exposed.
  void RecordCheckpointFailed() { ++checkpoints_failed_; }
  // Archives deleted by the ring's retention GC.
  void RecordCheckpointsCollected(size_t archives) { checkpoints_collected_ += archives; }
  // Leftover "*.tmp" files from killed writers swept on recovery.
  void RecordTempsSwept(size_t temps) { temps_swept_ += temps; }

  size_t Restarts() const { return restarts_; }
  size_t ArchivesSkipped() const { return archives_skipped_; }
  size_t RoundsReplayed() const { return rounds_replayed_; }
  size_t CheckpointsWritten() const { return checkpoints_written_; }
  size_t CheckpointsFailed() const { return checkpoints_failed_; }
  size_t CheckpointsCollected() const { return checkpoints_collected_; }
  size_t TempsSwept() const { return temps_swept_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.restarts_, self.archives_skipped_, self.rounds_replayed_, self.checkpoints_written_,
       self.checkpoints_failed_, self.checkpoints_collected_, self.temps_swept_);
  }

  size_t restarts_ = 0;
  size_t archives_skipped_ = 0;
  size_t rounds_replayed_ = 0;
  size_t checkpoints_written_ = 0;
  size_t checkpoints_failed_ = 0;
  size_t checkpoints_collected_ = 0;
  size_t temps_swept_ = 0;
};

}  // namespace floatfl

#endif  // SRC_METRICS_RECOVERY_TRACKER_H_
