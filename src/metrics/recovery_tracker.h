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

struct RecoveryTracker {
  // Process lives that restored engine state from the ring (counted after
  // the restore, so each persists with the recovered state from then on).
  size_t restarts = 0;
  // Ring archives the recovery scan refused (torn, bit-flipped, truncated,
  // foreign config) before finding a good one — or before giving up.
  size_t archives_skipped = 0;
  // Rounds a previous life had provably completed (newest round number named
  // in the ring, archives and torn temps alike) that the restored state was
  // behind on and a later life re-ran.
  size_t rounds_replayed = 0;
  size_t checkpoints_written = 0;
  // Saves that returned false (unwritable directory, disk full, torn write):
  // the run continued on the previous archive, one cadence more exposed.
  size_t checkpoints_failed = 0;
  // Archives deleted by the ring's retention GC.
  size_t checkpoints_collected = 0;
  // Leftover "*.tmp" files from killed writers swept on recovery.
  size_t temps_swept = 0;

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.restarts, self.archives_skipped, self.rounds_replayed, self.checkpoints_written,
       self.checkpoints_failed, self.checkpoints_collected, self.temps_swept);
  }
};

}  // namespace floatfl

#endif  // SRC_METRICS_RECOVERY_TRACKER_H_
