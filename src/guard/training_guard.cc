#include "src/guard/training_guard.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

TrainingGuard::TrainingGuard(const GuardConfig& config)
    : config_(config),
      watchdog_(config),
      ring_(config.snapshot_ring),
      quarantine_(config),
      last_round_begun_(SIZE_MAX) {}

void TrainingGuard::BeginRound(size_t round) {
  if (!config_.enabled || round == last_round_begun_) {
    return;
  }
  last_round_begun_ = round;
  if (InSafeMode(round)) {
    ++tracker_.safe_mode_rounds;
  }
}

TechniqueKind TrainingGuard::Filter(TechniqueKind decision, size_t round) {
  if (!config_.enabled || decision == TechniqueKind::kNone) {
    return decision;
  }
  if (InSafeMode(round) || quarantine_.Blocked(decision, round)) {
    ++tracker_.masked_actions;
    return TechniqueKind::kNone;
  }
  return decision;
}

void TrainingGuard::Observe(TechniqueKind technique, bool completed, DropoutReason reason,
                            size_t round) {
  if (!config_.enabled) {
    return;
  }
  if (quarantine_.Observe(technique, completed, reason, round)) {
    ++tracker_.quarantine_openings;
  }
}

double TrainingGuard::SanitizeReward(double credit) {
  if (!config_.enabled) {
    return credit;
  }
  if (!std::isfinite(credit)) {
    ++tracker_.rejected_rewards;
    return 0.0;
  }
  return credit;
}

bool TrainingGuard::EndRound(size_t round, const HealthSignal& health, const SaveFn& save,
                             const RestoreFn& restore) {
  if (!config_.enabled) {
    return false;
  }
  const WatchdogVerdict verdict = watchdog_.Check(health);
  if (verdict == WatchdogVerdict::kHealthy) {
    consecutive_triggers_ = 0;
    // Snapshot only states at (or above) the best seen so far: during a slow
    // decay every round is individually "healthy" but still tainted, and the
    // ring must never learn to prefer it. Coverage-starved rounds (partials
    // lost in the aggregation tree) are likewise never ring candidates.
    if (health.metric >= watchdog_.Best() && round >= next_snapshot_round_ &&
        health.coverage >= config_.min_snapshot_coverage) {
      CheckpointWriter w;
      save(w);
      ring_.Push(round, health.metric, w.buffer());
      next_snapshot_round_ = round + config_.snapshot_every;
      ++tracker_.snapshots;
    }
    return false;
  }
  switch (verdict) {
    case WatchdogVerdict::kNonFinite:
      ++tracker_.nonfinite_triggers;
      break;
    case WatchdogVerdict::kCollapse:
      ++tracker_.collapse_triggers;
      break;
    case WatchdogVerdict::kStall:
      ++tracker_.stall_triggers;
      break;
    case WatchdogVerdict::kHealthy:
      break;
  }
  // "Do no harm" even with nothing to restore: an empty ring (divergence
  // before the first healthy round) still arms safe mode.
  safe_mode_until_round_ = std::max(safe_mode_until_round_, round + 1 + config_.safe_mode_rounds);
  if (ring_.Empty()) {
    ++consecutive_triggers_;
    return false;
  }
  // Peek, never pop: under a persistent attack the same good state keeps
  // getting restored. Consecutive triggers escalate to older entries in case
  // the newest snapshot itself is somehow tainted.
  const size_t depth = std::min(consecutive_triggers_, ring_.Size() - 1);
  ++consecutive_triggers_;
  const SnapshotRing::Entry& entry = ring_.FromNewest(depth);
  CheckpointReader r(entry.blob);
  restore(r);
  watchdog_.ResetAfterRollback(entry.metric);
  ++tracker_.rollbacks;
  return true;
}

}  // namespace floatfl
