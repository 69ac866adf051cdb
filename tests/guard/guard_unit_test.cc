// Unit coverage of the self-healing guard pieces (DESIGN.md §11): the
// divergence watchdog's verdicts, the snapshot ring's eviction/lookup
// semantics, the action quarantine's deterministic cooldown schedule, the
// TrainingGuard façade's snapshot-or-rollback protocol, and the GuardConfig
// validation invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/failure/checkpoint_io.h"
#include "src/fl/experiment.h"
#include "src/guard/action_quarantine.h"
#include "src/guard/divergence_watchdog.h"
#include "src/guard/guard_config.h"
#include "src/guard/snapshot_ring.h"
#include "src/guard/training_guard.h"
#include "src/metrics/guard_tracker.h"

namespace floatfl {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

GuardConfig EnabledConfig() {
  GuardConfig config;
  config.enabled = true;
  return config;
}

// --- Divergence watchdog ---------------------------------------------------

TEST(DivergenceWatchdogTest, NonFiniteMetricOrLossTriggers) {
  DivergenceWatchdog dog(EnabledConfig());
  EXPECT_EQ(dog.Check({kNaN, 0.0}), WatchdogVerdict::kNonFinite);
  EXPECT_EQ(dog.Check({0.5, kInf}), WatchdogVerdict::kNonFinite);
  EXPECT_EQ(dog.Check({-kInf, 0.0}), WatchdogVerdict::kNonFinite);
  EXPECT_EQ(dog.Check({0.5, 0.7}), WatchdogVerdict::kHealthy);
}

TEST(DivergenceWatchdogTest, CollapseFiresBelowBestMinusThreshold) {
  GuardConfig config = EnabledConfig();
  config.collapse_threshold = 0.1;
  DivergenceWatchdog dog(config);
  EXPECT_EQ(dog.Check({0.50, 0.0}), WatchdogVerdict::kHealthy);
  EXPECT_EQ(dog.Check({0.45, 0.0}), WatchdogVerdict::kHealthy);  // within budget
  EXPECT_DOUBLE_EQ(dog.Best(), 0.50);
  EXPECT_EQ(dog.Check({0.39, 0.0}), WatchdogVerdict::kCollapse);
  // An unhealthy round must not move the best-seen baseline.
  EXPECT_DOUBLE_EQ(dog.Best(), 0.50);
}

TEST(DivergenceWatchdogTest, ZeroThresholdDisablesCollapseCheck) {
  GuardConfig config = EnabledConfig();
  config.collapse_threshold = 0.0;
  DivergenceWatchdog dog(config);
  EXPECT_EQ(dog.Check({0.9, 0.0}), WatchdogVerdict::kHealthy);
  EXPECT_EQ(dog.Check({0.1, 0.0}), WatchdogVerdict::kHealthy);
  // The non-finite check stays armed regardless.
  EXPECT_EQ(dog.Check({kNaN, 0.0}), WatchdogVerdict::kNonFinite);
}

TEST(DivergenceWatchdogTest, StallFiresAfterPatienceRoundsWithoutImprovement) {
  GuardConfig config = EnabledConfig();
  config.collapse_threshold = 0.0;
  config.patience = 3;
  config.stall_epsilon = 0.01;
  DivergenceWatchdog dog(config);
  EXPECT_EQ(dog.Check({0.50, 0.0}), WatchdogVerdict::kHealthy);  // first best
  EXPECT_EQ(dog.Check({0.50, 0.0}), WatchdogVerdict::kHealthy);   // stall 1
  EXPECT_EQ(dog.Check({0.505, 0.0}), WatchdogVerdict::kHealthy);  // < epsilon: stall 2
  EXPECT_EQ(dog.Check({0.505, 0.0}), WatchdogVerdict::kStall);    // stall 3 == patience
  // One trigger per stalled window: the counter restarts after firing.
  EXPECT_EQ(dog.StallRounds(), 0u);
  EXPECT_EQ(dog.Check({0.505, 0.0}), WatchdogVerdict::kHealthy);
  // A real improvement clears the counter.
  EXPECT_EQ(dog.Check({0.60, 0.0}), WatchdogVerdict::kHealthy);
  EXPECT_EQ(dog.StallRounds(), 0u);
}

TEST(DivergenceWatchdogTest, ResetAfterRollbackSnapsBestToRestoredMetricAndStaysArmed) {
  GuardConfig config = EnabledConfig();
  config.collapse_threshold = 0.1;
  DivergenceWatchdog dog(config);
  EXPECT_EQ(dog.Check({0.80, 0.0}), WatchdogVerdict::kHealthy);
  EXPECT_EQ(dog.Check({0.60, 0.0}), WatchdogVerdict::kCollapse);
  dog.ResetAfterRollback(0.75);
  EXPECT_DOUBLE_EQ(dog.Best(), 0.75);
  // A second collapse from the restored baseline triggers again.
  EXPECT_EQ(dog.Check({0.60, 0.0}), WatchdogVerdict::kCollapse);
}

TEST(DivergenceWatchdogTest, StateRoundTripsThroughCheckpoint) {
  GuardConfig config = EnabledConfig();
  config.patience = 5;
  DivergenceWatchdog dog(config);
  dog.Check({0.4, 0.0});
  dog.Check({0.4, 0.0});
  CheckpointWriter w;
  dog.SaveState(w);
  DivergenceWatchdog loaded(config);
  CheckpointReader r(w.buffer());
  loaded.LoadState(r);
  EXPECT_TRUE(loaded.HasBest());
  EXPECT_DOUBLE_EQ(loaded.Best(), 0.4);
  EXPECT_EQ(loaded.StallRounds(), dog.StallRounds());
}

// --- Snapshot ring ---------------------------------------------------------

TEST(SnapshotRingTest, EvictsOldestBeyondCapacityAndLooksUpFromNewest) {
  SnapshotRing ring(3);
  EXPECT_TRUE(ring.Empty());
  for (size_t i = 0; i < 5; ++i) {
    ring.Push(i, 0.1 * static_cast<double>(i), "blob" + std::to_string(i));
  }
  EXPECT_EQ(ring.Size(), 3u);
  EXPECT_EQ(ring.FromNewest(0).round, 4u);
  EXPECT_EQ(ring.FromNewest(1).round, 3u);
  EXPECT_EQ(ring.FromNewest(2).round, 2u);
  // Depth beyond the oldest entry clamps to the oldest.
  EXPECT_EQ(ring.FromNewest(99).round, 2u);
  EXPECT_EQ(ring.FromNewest(0).blob, "blob4");
}

TEST(SnapshotRingTest, StateRoundTripsThroughCheckpoint) {
  SnapshotRing ring(4);
  ring.Push(7, 0.5, "alpha");
  ring.Push(9, 0.6, "beta");
  CheckpointWriter w;
  ring.SaveState(w);
  SnapshotRing loaded(4);
  CheckpointReader r(w.buffer());
  loaded.LoadState(r);
  ASSERT_EQ(loaded.Size(), 2u);
  EXPECT_EQ(loaded.FromNewest(0).round, 9u);
  EXPECT_EQ(loaded.FromNewest(0).blob, "beta");
  EXPECT_EQ(loaded.FromNewest(1).blob, "alpha");
  EXPECT_DOUBLE_EQ(loaded.FromNewest(1).metric, 0.5);
}

// --- Action quarantine -----------------------------------------------------

TEST(ActionQuarantineTest, OnlyClientSideFailuresAreAttributable) {
  EXPECT_TRUE(ActionQuarantine::Attributable(DropoutReason::kOutOfMemory));
  EXPECT_TRUE(ActionQuarantine::Attributable(DropoutReason::kMissedDeadline));
  EXPECT_TRUE(ActionQuarantine::Attributable(DropoutReason::kCrashed));
  EXPECT_TRUE(ActionQuarantine::Attributable(DropoutReason::kCorrupted));
  EXPECT_TRUE(ActionQuarantine::Attributable(DropoutReason::kRejected));
  EXPECT_TRUE(ActionQuarantine::Attributable(DropoutReason::kTransferTimedOut));
  // Availability churn says nothing about the technique.
  EXPECT_FALSE(ActionQuarantine::Attributable(DropoutReason::kNone));
  EXPECT_FALSE(ActionQuarantine::Attributable(DropoutReason::kUnavailable));
  EXPECT_FALSE(ActionQuarantine::Attributable(DropoutReason::kDeparted));
}

GuardConfig QuarantineConfig() {
  GuardConfig config = EnabledConfig();
  config.quarantine_min_trials = 4;
  config.quarantine_failure_rate = 0.5;
  config.quarantine_cooldown_rounds = 2;
  config.quarantine_max_strikes = 3;
  return config;
}

TEST(ActionQuarantineTest, TripsAtMinTrialsAndFailureRate) {
  ActionQuarantine q(QuarantineConfig());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(q.Observe(TechniqueKind::kQuant8, false, DropoutReason::kCrashed, 10));
  }
  EXPECT_FALSE(q.Blocked(TechniqueKind::kQuant8, 10));
  EXPECT_TRUE(q.Observe(TechniqueKind::kQuant8, false, DropoutReason::kCrashed, 10));
  EXPECT_EQ(q.Strikes(TechniqueKind::kQuant8), 1u);
  // until_round = 10 + 1 + (cooldown << 0) = 13: blocked through round 12.
  EXPECT_TRUE(q.Blocked(TechniqueKind::kQuant8, 10));
  EXPECT_TRUE(q.Blocked(TechniqueKind::kQuant8, 12));
  EXPECT_FALSE(q.Blocked(TechniqueKind::kQuant8, 13));
  // Other techniques are untouched.
  EXPECT_FALSE(q.Blocked(TechniqueKind::kPrune50, 10));
  EXPECT_EQ(q.BlockedCount(11), 1u);
}

TEST(ActionQuarantineTest, CooldownDoublesPerStrikeAndCapsAtMaxStrikes) {
  ActionQuarantine q(QuarantineConfig());
  auto trip = [&](size_t round) {
    for (size_t i = 0; i < 4; ++i) {
      q.Observe(TechniqueKind::kPrune75, false, DropoutReason::kOutOfMemory, round);
    }
  };
  trip(0);
  EXPECT_EQ(q.QuarantinedUntil(TechniqueKind::kPrune75), 3u);  // 0 + 1 + 2
  trip(3);
  EXPECT_EQ(q.Strikes(TechniqueKind::kPrune75), 2u);
  EXPECT_EQ(q.QuarantinedUntil(TechniqueKind::kPrune75), 8u);  // 3 + 1 + 4
  trip(8);
  EXPECT_EQ(q.Strikes(TechniqueKind::kPrune75), 3u);
  EXPECT_EQ(q.QuarantinedUntil(TechniqueKind::kPrune75), 17u);  // 8 + 1 + 8
  trip(17);
  // max_strikes = 3: the shift stops escalating.
  EXPECT_EQ(q.Strikes(TechniqueKind::kPrune75), 3u);
  EXPECT_EQ(q.QuarantinedUntil(TechniqueKind::kPrune75), 26u);  // 17 + 1 + 8
}

TEST(ActionQuarantineTest, SuccessesDiluteTheFailureRate) {
  ActionQuarantine q(QuarantineConfig());
  // 2 failures / 4 trials = 0.5 >= 0.5 would trip; keep successes ahead.
  EXPECT_FALSE(q.Observe(TechniqueKind::kQuant16, true, DropoutReason::kNone, 0));
  EXPECT_FALSE(q.Observe(TechniqueKind::kQuant16, true, DropoutReason::kNone, 0));
  EXPECT_FALSE(q.Observe(TechniqueKind::kQuant16, true, DropoutReason::kNone, 0));
  EXPECT_FALSE(q.Observe(TechniqueKind::kQuant16, false, DropoutReason::kCrashed, 0));
  EXPECT_FALSE(q.Observe(TechniqueKind::kQuant16, false, DropoutReason::kCrashed, 1));
  EXPECT_FALSE(q.Blocked(TechniqueKind::kQuant16, 1));
}

TEST(ActionQuarantineTest, NonAttributableFailuresNeverTrip) {
  ActionQuarantine q(QuarantineConfig());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_FALSE(q.Observe(TechniqueKind::kQuant8, false, DropoutReason::kUnavailable, i));
  }
  EXPECT_FALSE(q.Blocked(TechniqueKind::kQuant8, 20));
}

TEST(ActionQuarantineTest, KNoneIsNeverBlockedAndZeroMinTrialsDisables) {
  ActionQuarantine q(QuarantineConfig());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(q.Observe(TechniqueKind::kNone, false, DropoutReason::kCrashed, i));
  }
  EXPECT_FALSE(q.Blocked(TechniqueKind::kNone, 10));

  GuardConfig disabled = QuarantineConfig();
  disabled.quarantine_min_trials = 0;
  ActionQuarantine off(disabled);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(off.Observe(TechniqueKind::kQuant8, false, DropoutReason::kCrashed, i));
  }
  EXPECT_FALSE(off.Blocked(TechniqueKind::kQuant8, 10));
}

TEST(ActionQuarantineTest, StateRoundTripsThroughCheckpoint) {
  ActionQuarantine q(QuarantineConfig());
  for (size_t i = 0; i < 4; ++i) {
    q.Observe(TechniqueKind::kQuant8, false, DropoutReason::kCrashed, 5);
  }
  q.Observe(TechniqueKind::kPrune25, false, DropoutReason::kCorrupted, 5);
  CheckpointWriter w;
  q.SaveState(w);
  ActionQuarantine loaded(QuarantineConfig());
  CheckpointReader r(w.buffer());
  loaded.LoadState(r);
  EXPECT_EQ(loaded.QuarantinedUntil(TechniqueKind::kQuant8),
            q.QuarantinedUntil(TechniqueKind::kQuant8));
  EXPECT_EQ(loaded.Strikes(TechniqueKind::kQuant8), 1u);
  CheckpointWriter again;
  loaded.SaveState(again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

// --- TrainingGuard façade --------------------------------------------------

GuardConfig RollbackConfig() {
  GuardConfig config = EnabledConfig();
  config.collapse_threshold = 0.1;
  config.snapshot_ring = 3;
  config.safe_mode_rounds = 2;
  return config;
}

struct ScalarState {
  int value = 0;
  TrainingGuard::SaveFn Save() {
    return [this](CheckpointWriter& w) { w.Size(static_cast<size_t>(value)); };
  }
  TrainingGuard::RestoreFn Restore() {
    return [this](CheckpointReader& r) { value = static_cast<int>(r.Size()); };
  }
};

TEST(TrainingGuardTest, SnapshotsOnlyOnImprovementAndRollsBackOnCollapse) {
  TrainingGuard guard(RollbackConfig());
  ScalarState state;
  state.value = 1;
  EXPECT_FALSE(guard.EndRound(0, {0.5, 0.0}, state.Save(), state.Restore()));
  state.value = 2;
  EXPECT_FALSE(guard.EndRound(1, {0.6, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(guard.tracker().snapshots, 2u);
  // Healthy but below best: individually fine, never snapshotted.
  state.value = 3;
  EXPECT_FALSE(guard.EndRound(2, {0.55, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(guard.tracker().snapshots, 2u);
  // Collapse: restore the newest (best) snapshot, arm safe mode.
  state.value = 99;
  EXPECT_TRUE(guard.EndRound(3, {0.2, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(state.value, 2);
  EXPECT_EQ(guard.tracker().rollbacks, 1u);
  EXPECT_EQ(guard.tracker().collapse_triggers, 1u);
  EXPECT_TRUE(guard.InSafeMode(4));
  EXPECT_TRUE(guard.InSafeMode(5));
  EXPECT_FALSE(guard.InSafeMode(6));  // 3 + 1 + safe_mode_rounds(2)
}

TEST(TrainingGuardTest, ConsecutiveTriggersEscalateToOlderSnapshots) {
  TrainingGuard guard(RollbackConfig());
  ScalarState state;
  for (int i = 1; i <= 3; ++i) {
    state.value = i;
    guard.EndRound(static_cast<size_t>(i - 1), {0.5 + 0.1 * i, 0.0}, state.Save(),
                   state.Restore());
  }
  ASSERT_EQ(guard.tracker().snapshots, 3u);
  state.value = 99;
  EXPECT_TRUE(guard.EndRound(3, {0.1, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(state.value, 3);  // newest first
  state.value = 99;
  EXPECT_TRUE(guard.EndRound(4, {0.1, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(state.value, 2);  // second trigger: one entry older
  state.value = 99;
  EXPECT_TRUE(guard.EndRound(5, {0.1, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(state.value, 1);  // oldest
  state.value = 99;
  EXPECT_TRUE(guard.EndRound(6, {0.1, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(state.value, 1);  // depth clamps at the oldest entry
}

TEST(TrainingGuardTest, NonFiniteHealthWithEmptyRingStillArmsSafeMode) {
  TrainingGuard guard(RollbackConfig());
  ScalarState state;
  state.value = 7;
  EXPECT_FALSE(guard.EndRound(0, {kNaN, 0.0}, state.Save(), state.Restore()));
  EXPECT_EQ(state.value, 7);  // nothing to restore
  EXPECT_EQ(guard.tracker().nonfinite_triggers, 1u);
  EXPECT_EQ(guard.tracker().rollbacks, 0u);
  EXPECT_TRUE(guard.InSafeMode(1));
}

TEST(TrainingGuardTest, SafeModeMasksDecisionsButNeverKNone) {
  TrainingGuard guard(RollbackConfig());
  ScalarState state;
  state.value = 1;
  guard.EndRound(0, {0.5, 0.0}, state.Save(), state.Restore());
  guard.EndRound(1, {0.2, 0.0}, state.Save(), state.Restore());
  ASSERT_TRUE(guard.InSafeMode(2));
  EXPECT_EQ(guard.Filter(TechniqueKind::kQuant8, 2), TechniqueKind::kNone);
  EXPECT_EQ(guard.Filter(TechniqueKind::kNone, 2), TechniqueKind::kNone);
  EXPECT_EQ(guard.tracker().masked_actions, 1u);  // kNone pass-through not counted
  // Outside the window decisions pass through.
  EXPECT_EQ(guard.Filter(TechniqueKind::kQuant8, 10), TechniqueKind::kQuant8);
}

TEST(TrainingGuardTest, SanitizeRewardZeroesNonFiniteCreditsWhenEnabled) {
  TrainingGuard guard(RollbackConfig());
  EXPECT_DOUBLE_EQ(guard.SanitizeReward(0.25), 0.25);
  EXPECT_DOUBLE_EQ(guard.SanitizeReward(kNaN), 0.0);
  EXPECT_DOUBLE_EQ(guard.SanitizeReward(kInf), 0.0);
  EXPECT_EQ(guard.tracker().rejected_rewards, 2u);
}

TEST(TrainingGuardTest, DisabledGuardIsAStrictPassThrough) {
  TrainingGuard guard{GuardConfig{}};
  ScalarState state;
  state.value = 11;
  guard.BeginRound(0);
  EXPECT_EQ(guard.Filter(TechniqueKind::kPrune75, 0), TechniqueKind::kPrune75);
  guard.Observe(TechniqueKind::kPrune75, false, DropoutReason::kCrashed, 0);
  EXPECT_TRUE(std::isnan(guard.SanitizeReward(kNaN)));  // untouched
  EXPECT_FALSE(guard.EndRound(0, {kNaN, kNaN}, state.Save(), state.Restore()));
  EXPECT_EQ(state.value, 11);
  EXPECT_FALSE(guard.InSafeMode(1));
  EXPECT_EQ(guard.tracker().snapshots, 0u);
  EXPECT_EQ(guard.tracker().WatchdogTriggers(), 0u);
  EXPECT_EQ(guard.tracker().rejected_rewards, 0u);
}

TEST(TrainingGuardTest, FullStateRoundTripsThroughCheckpoint) {
  GuardConfig config = RollbackConfig();
  config.quarantine_min_trials = 2;
  config.quarantine_failure_rate = 0.5;
  TrainingGuard guard(config);
  ScalarState state;
  state.value = 1;
  guard.BeginRound(0);
  guard.Observe(TechniqueKind::kQuant8, false, DropoutReason::kCrashed, 0);
  guard.Observe(TechniqueKind::kQuant8, false, DropoutReason::kCrashed, 0);
  guard.EndRound(0, {0.5, 0.0}, state.Save(), state.Restore());
  guard.BeginRound(1);
  guard.EndRound(1, {0.1, 0.0}, state.Save(), state.Restore());

  CheckpointWriter w;
  guard.SaveState(w);
  TrainingGuard loaded(config);
  CheckpointReader r(w.buffer());
  loaded.LoadState(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(loaded.InSafeMode(2), guard.InSafeMode(2));
  EXPECT_EQ(loaded.tracker().rollbacks, guard.tracker().rollbacks);
  CheckpointWriter again;
  loaded.SaveState(again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

// --- GuardTracker ----------------------------------------------------------

TEST(GuardTrackerTest, CountsAndRoundTrips) {
  GuardTracker tracker;
  ++tracker.snapshots;
  ++tracker.nonfinite_triggers;
  ++tracker.collapse_triggers;
  ++tracker.collapse_triggers;
  ++tracker.stall_triggers;
  ++tracker.rollbacks;
  ++tracker.masked_actions;
  ++tracker.quarantine_openings;
  ++tracker.rejected_rewards;
  ++tracker.safe_mode_rounds;
  EXPECT_EQ(tracker.WatchdogTriggers(), 4u);
  EXPECT_EQ(tracker.collapse_triggers, 2u);

  CheckpointWriter w;
  Io(w, tracker);
  GuardTracker loaded;
  CheckpointReader r(w.buffer());
  Io(r, loaded);
  EXPECT_EQ(loaded.snapshots, 1u);
  EXPECT_EQ(loaded.WatchdogTriggers(), 4u);
  EXPECT_EQ(loaded.rollbacks, 1u);
  EXPECT_EQ(loaded.masked_actions, 1u);
  EXPECT_EQ(loaded.quarantine_openings, 1u);
  EXPECT_EQ(loaded.rejected_rewards, 1u);
  EXPECT_EQ(loaded.safe_mode_rounds, 1u);
}

// --- GuardConfig validation ------------------------------------------------

using GuardConfigDeathTest = ::testing::Test;

TEST(GuardConfigDeathTest, RejectsInvalidKnobs) {
  GuardConfig config;
  config.collapse_threshold = -0.1;
  EXPECT_DEATH(ValidateGuardConfig(config), "collapse_threshold must be >= 0");

  config = GuardConfig{};
  config.stall_epsilon = -1.0;
  EXPECT_DEATH(ValidateGuardConfig(config), "stall_epsilon must be >= 0");

  config = GuardConfig{};
  config.snapshot_ring = 0;
  EXPECT_DEATH(ValidateGuardConfig(config), "snapshot_ring must be >= 1");

  config = GuardConfig{};
  config.snapshot_every = 0;
  EXPECT_DEATH(ValidateGuardConfig(config), "snapshot_every must be >= 1");

  config = GuardConfig{};
  config.quarantine_failure_rate = 1.5;
  EXPECT_DEATH(ValidateGuardConfig(config), "quarantine_failure_rate must be in");

  config = GuardConfig{};
  config.quarantine_failure_rate = 0.0;
  EXPECT_DEATH(ValidateGuardConfig(config), "quarantine_failure_rate must be in");

  config = GuardConfig{};
  config.quarantine_cooldown_rounds = 0;
  EXPECT_DEATH(ValidateGuardConfig(config), "quarantine_cooldown_rounds must be >= 1");

  config = GuardConfig{};
  config.quarantine_max_strikes = 0;
  EXPECT_DEATH(ValidateGuardConfig(config), "quarantine_max_strikes must be >= 1");

  config = GuardConfig{};
  config.quarantine_max_strikes = 33;
  EXPECT_DEATH(ValidateGuardConfig(config), "quarantine_max_strikes must be <= 32");
}

TEST(GuardConfigDeathTest, DefaultAndTypicalEnabledConfigsValidate) {
  ValidateGuardConfig(GuardConfig{});
  GuardConfig enabled;
  enabled.enabled = true;
  enabled.patience = 10;
  enabled.quarantine_min_trials = 5;
  ValidateGuardConfig(enabled);
}

}  // namespace
}  // namespace floatfl
