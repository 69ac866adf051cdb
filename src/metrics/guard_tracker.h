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

class GuardTracker {
 public:
  void RecordSnapshot() { ++snapshots_; }
  void RecordNonFiniteTrigger() { ++nonfinite_triggers_; }
  void RecordCollapseTrigger() { ++collapse_triggers_; }
  void RecordStallTrigger() { ++stall_triggers_; }
  void RecordRollback() { ++rollbacks_; }
  // A Decide() result masked to kNone by safe mode or a quarantine window.
  void RecordMaskedAction() { ++masked_actions_; }
  void RecordQuarantineOpened() { ++quarantine_openings_; }
  void RecordRejectedReward() { ++rejected_rewards_; }
  void RecordSafeModeRound() { ++safe_mode_rounds_; }

  size_t Snapshots() const { return snapshots_; }
  size_t NonFiniteTriggers() const { return nonfinite_triggers_; }
  size_t CollapseTriggers() const { return collapse_triggers_; }
  size_t StallTriggers() const { return stall_triggers_; }
  size_t WatchdogTriggers() const {
    return nonfinite_triggers_ + collapse_triggers_ + stall_triggers_;
  }
  size_t Rollbacks() const { return rollbacks_; }
  size_t MaskedActions() const { return masked_actions_; }
  size_t QuarantineOpenings() const { return quarantine_openings_; }
  size_t RejectedRewards() const { return rejected_rewards_; }
  size_t SafeModeRounds() const { return safe_mode_rounds_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.snapshots_, self.nonfinite_triggers_, self.collapse_triggers_, self.stall_triggers_,
       self.rollbacks_, self.masked_actions_, self.quarantine_openings_, self.rejected_rewards_,
       self.safe_mode_rounds_);
  }

  size_t snapshots_ = 0;
  size_t nonfinite_triggers_ = 0;
  size_t collapse_triggers_ = 0;
  size_t stall_triggers_ = 0;
  size_t rollbacks_ = 0;
  size_t masked_actions_ = 0;
  size_t quarantine_openings_ = 0;
  size_t rejected_rewards_ = 0;
  size_t safe_mode_rounds_ = 0;
};

}  // namespace floatfl

#endif  // SRC_METRICS_GUARD_TRACKER_H_
