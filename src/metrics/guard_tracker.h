// Bookkeeping for the self-healing guard (src/guard, DESIGN.md §11).
//
// Counts what the guard did — snapshots taken, watchdog triggers by verdict,
// rollbacks, masked (quarantined) actions, quarantine windows opened,
// rejected rewards, safe-mode rounds — so experiments can report recovery
// behavior without digging into guard internals. Recorded only from the
// engines' sequential bookkeeping phases; not thread-safe by design.
#ifndef SRC_METRICS_GUARD_TRACKER_H_
#define SRC_METRICS_GUARD_TRACKER_H_

#include <cstddef>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

struct GuardTracker {
  size_t snapshots = 0;
  size_t nonfinite_triggers = 0;
  size_t collapse_triggers = 0;
  size_t stall_triggers = 0;
  size_t rollbacks = 0;
  // Decide() results masked to kNone by safe mode or a quarantine window.
  size_t masked_actions = 0;
  size_t quarantine_openings = 0;
  size_t rejected_rewards = 0;
  size_t safe_mode_rounds = 0;

  size_t WatchdogTriggers() const {
    return nonfinite_triggers + collapse_triggers + stall_triggers;
  }

  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.snapshots, self.nonfinite_triggers, self.collapse_triggers, self.stall_triggers,
       self.rollbacks, self.masked_actions, self.quarantine_openings, self.rejected_rewards,
       self.safe_mode_rounds);
  }
};

}  // namespace floatfl

#endif  // SRC_METRICS_GUARD_TRACKER_H_
