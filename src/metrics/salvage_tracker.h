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

struct SalvageTracker {
  size_t partials_salvaged = 0;
  // Interrupted clients whose progress fell below salvage.min_progress.
  size_t partials_below_min = 0;
  // Qualifying partials the server refused (admission gate or validation).
  size_t partials_rejected = 0;
  uint64_t salvaged_steps = 0;
  double salvaged_fraction_sum = 0.0;
  double salvaged_progress_mb = 0.0;
  size_t backups_planned = 0;
  // Backups whose completion covered an interrupted (or slower) primary.
  size_t backups_won = 0;
  // Backups (or out-raced primaries) charged as redundant work.
  size_t backups_redundant = 0;
  // Primaries that would have been missed-deadline dropouts but for their
  // backups — the figure speculation exists to cut.
  size_t deadline_misses_averted = 0;

  // One interrupted client whose partial was accepted into the aggregate.
  // `steps` is the completed-local-steps metadata, `fraction` the completed
  // work fraction in [0, 1], `progress_mb` the unique acked payload bytes a
  // transfer interruption preserved (0 for training interruptions).
  void RecordPartialSalvaged(uint64_t steps, double fraction, double progress_mb) {
    ++partials_salvaged;
    salvaged_steps += steps;
    salvaged_fraction_sum += fraction;
    salvaged_progress_mb += progress_mb;
  }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.partials_salvaged, self.partials_below_min, self.partials_rejected,
       self.salvaged_steps, self.salvaged_fraction_sum, self.salvaged_progress_mb,
       self.backups_planned, self.backups_won, self.backups_redundant,
       self.deadline_misses_averted);
  }
};

}  // namespace floatfl

#endif  // SRC_METRICS_SALVAGE_TRACKER_H_
