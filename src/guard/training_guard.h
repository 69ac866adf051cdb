// Façade tying the self-healing pieces together for the FL engines.
//
// Per-round protocol (all calls from the engine's sequential phases — the
// guard owns no locks and no RNG, so it is trivially thread-count-invariant):
//
//   BeginRound(round)           once per aggregation round (idempotent per
//                               round value; the async engine calls it every
//                               StepOnce for the same version)
//   Filter(decision, round)     wraps every TuningPolicy::Decide result; masks
//                               to kNone under safe mode or quarantine
//   Observe(technique, ...)     per finished client, feeds failure attribution
//   SanitizeReward(credit)      wraps the accuracy credit fed to Report
//   EndRound(round, health,     health check + snapshot-or-rollback; returns
//            save, restore)     true when a rollback restored older state
//
// When `config.enabled` is false every call is a strict pass-through with no
// state change, so pre-guard goldens stay byte-identical. SaveState/LoadState
// still serialize (a fixed all-zero layout when disabled) so the checkpoint
// payload shape does not depend on the config.
#ifndef SRC_GUARD_TRAINING_GUARD_H_
#define SRC_GUARD_TRAINING_GUARD_H_

#include <cstddef>
#include <functional>

#include "src/failure/checkpoint_io.h"
#include "src/guard/action_quarantine.h"
#include "src/guard/divergence_watchdog.h"
#include "src/guard/guard_config.h"
#include "src/guard/snapshot_ring.h"
#include "src/metrics/guard_tracker.h"
#include "src/opt/technique.h"

namespace floatfl {

class TrainingGuard {
 public:
  // Engine-provided state capture/restore. The blob must round-trip the
  // exact state a rollback should rewind: global model parameters or the
  // surrogate quality model, plus the attached TuningPolicy (so the Q-table
  // cannot keep the decisions that caused the divergence).
  using SaveFn = std::function<void(CheckpointWriter&)>;
  using RestoreFn = std::function<void(CheckpointReader&)>;

  TrainingGuard() : TrainingGuard(GuardConfig{}) {}
  explicit TrainingGuard(const GuardConfig& config);

  bool enabled() const { return config_.enabled; }

  void BeginRound(size_t round);

  TechniqueKind Filter(TechniqueKind decision, size_t round);

  void Observe(TechniqueKind technique, bool completed, DropoutReason reason, size_t round);

  double SanitizeReward(double credit);

  // Health check for the finished round. Healthy rounds may snapshot (only
  // on improvement, never mid-decay, so the ring holds known-good states);
  // unhealthy rounds roll back to the newest ring entry, escalating to older
  // entries on consecutive triggers, and arm safe mode. Returns true when
  // `restore` was invoked.
  bool EndRound(size_t round, const HealthSignal& health, const SaveFn& save,
                const RestoreFn& restore);

  bool InSafeMode(size_t round) const { return config_.enabled && round < safe_mode_until_round_; }

  const GuardTracker& tracker() const { return tracker_; }
  const DivergenceWatchdog& watchdog() const { return watchdog_; }
  const ActionQuarantine& quarantine() const { return quarantine_; }
  const SnapshotRing& ring() const { return ring_; }

  void SaveState(CheckpointWriter& w) const { Fields(*this, w); }
  void LoadState(CheckpointReader& r) { Fields(*this, r); }

 private:
  template <typename Self, typename Archive>
  static void Fields(Self& self, Archive& a) {
    Io(a, self.watchdog_, self.ring_, self.quarantine_, self.tracker_, self.safe_mode_until_round_,
       self.consecutive_triggers_, self.next_snapshot_round_, self.last_round_begun_);
  }

  GuardConfig config_;
  DivergenceWatchdog watchdog_;
  SnapshotRing ring_;
  ActionQuarantine quarantine_;
  GuardTracker tracker_;
  // First round at which techniques are allowed again after a rollback.
  size_t safe_mode_until_round_ = 0;
  // Unhealthy verdicts since the last healthy round; escalates restore depth.
  size_t consecutive_triggers_ = 0;
  // Earliest round eligible for the next snapshot (cadence control).
  size_t next_snapshot_round_ = 0;
  // BeginRound idempotency sentinel (SIZE_MAX = no round begun yet).
  size_t last_round_begun_;
};

}  // namespace floatfl

#endif  // SRC_GUARD_TRAINING_GUARD_H_
