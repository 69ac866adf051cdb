// Strict no-op guarantee (DESIGN.md §11): a disabled GuardConfig — the
// default, and equally a disabled config with every other knob cranked —
// must leave all four engines byte-identical: same results, same serialized
// state, all guard counters zero. This is what keeps every pre-guard golden
// valid with the guard code compiled in.
#include <gtest/gtest.h>

#include "src/failure/checkpoint_io.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

// A disabled guard with every other knob away from its default: if any code
// path consults a knob without checking `enabled` first, this diverges.
GuardConfig DisarmedButTweaked() {
  GuardConfig guard;
  guard.enabled = false;
  guard.collapse_threshold = 0.001;
  guard.patience = 2;
  guard.stall_epsilon = 0.5;
  guard.snapshot_ring = 9;
  guard.snapshot_every = 3;
  guard.safe_mode_rounds = 50;
  guard.quarantine_min_trials = 1;
  guard.quarantine_failure_rate = 0.01;
  guard.quarantine_cooldown_rounds = 1;
  guard.quarantine_max_strikes = 8;
  return guard;
}

ExperimentConfig SmallExperiment() {
  ExperimentConfig config;
  config.num_clients = 30;
  config.clients_per_round = 6;
  config.rounds = 20;
  config.seed = 77;
  config.model = ModelId::kShuffleNetV2;
  config.faults.crash_prob = 0.1;  // exercise dropout + Observe paths
  config.async_concurrency = 12;
  config.async_buffer = 4;
  return config;
}

TEST(GuardNoOpTest, SyncEngineDisabledGuardIsByteIdentical) {
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.guard = DisarmedButTweaked();

  RandomSelector sel_a(plain.seed);
  StaticPolicy pol_a(TechniqueKind::kQuant8);
  SyncEngine a(plain, &sel_a, &pol_a);
  const ExperimentResult ra = a.Run();

  RandomSelector sel_b(tweaked.seed);
  StaticPolicy pol_b(TechniqueKind::kQuant8);
  SyncEngine b(tweaked, &sel_b, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.total_completed, rb.total_completed);
  EXPECT_EQ(ra.wall_clock_hours, rb.wall_clock_hours);

  // Guard counters must be zero on both.
  for (const ExperimentResult* r : {&ra, &rb}) {
    EXPECT_EQ(r->guard_snapshots, 0u);
    EXPECT_EQ(r->watchdog_triggers, 0u);
    EXPECT_EQ(r->rollbacks, 0u);
    EXPECT_EQ(r->quarantined_actions, 0u);
    EXPECT_EQ(r->quarantine_openings, 0u);
    EXPECT_EQ(r->rejected_rewards, 0u);
    EXPECT_EQ(r->safe_mode_rounds, 0u);
  }

  // The serialized engine state (guard section included) is byte-identical:
  // a disabled guard always serializes the same all-default layout.
  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(GuardNoOpTest, AsyncEngineDisabledGuardIsByteIdentical) {
  const ExperimentConfig plain = SmallExperiment();
  ExperimentConfig tweaked = plain;
  tweaked.guard = DisarmedButTweaked();

  StaticPolicy pol_a(TechniqueKind::kPrune50);
  AsyncEngine a(plain, &pol_a);
  const ExperimentResult ra = a.Run();

  StaticPolicy pol_b(TechniqueKind::kPrune50);
  AsyncEngine b(tweaked, &pol_b);
  const ExperimentResult rb = b.Run();

  EXPECT_EQ(ra.accuracy_history, rb.accuracy_history);
  EXPECT_EQ(ra.global_accuracy, rb.global_accuracy);
  EXPECT_EQ(ra.total_completed, rb.total_completed);
  EXPECT_EQ(ra.rollbacks, 0u);
  EXPECT_EQ(ra.quarantined_actions, 0u);
  EXPECT_EQ(rb.guard_snapshots, 0u);
  EXPECT_EQ(rb.safe_mode_rounds, 0u);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(GuardNoOpTest, RealEngineDisabledGuardIsByteIdentical) {
  RealFlConfig plain;
  plain.num_clients = 8;
  plain.clients_per_round = 4;
  plain.num_classes = 3;
  plain.input_dim = 8;
  plain.hidden_dims = {12};
  plain.test_samples_per_class = 10;
  plain.seed = 5;
  plain.num_threads = 1;
  plain.faults.crash_prob = 0.2;
  RealFlConfig tweaked = plain;
  tweaked.guard = DisarmedButTweaked();

  RealFlEngine a(plain);
  RealFlEngine b(tweaked);
  RealRoundStats sa;
  RealRoundStats sb;
  for (size_t r = 0; r < 5; ++r) {
    sa = a.RunRound(TechniqueKind::kQuant8);
    sb = b.RunRound(TechniqueKind::kQuant8);
  }
  EXPECT_EQ(a.global_model().GetParameters(), b.global_model().GetParameters());
  EXPECT_EQ(sa.test_accuracy, sb.test_accuracy);
  EXPECT_FALSE(sa.rolled_back);
  EXPECT_FALSE(sb.rolled_back);
  EXPECT_EQ(a.guard().tracker().snapshots, 0u);
  EXPECT_EQ(b.guard().tracker().snapshots, 0u);
  EXPECT_EQ(b.guard().tracker().masked_actions, 0u);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(GuardNoOpTest, VflEngineDisabledGuardIsByteIdentical) {
  VflConfig plain;
  plain.num_parties = 3;
  plain.features_per_party = 5;
  plain.embedding_dim = 6;
  plain.num_classes = 4;
  plain.train_samples = 120;
  plain.test_samples = 80;
  plain.seed = 11;
  plain.faults.crash_prob = 0.15;
  VflConfig tweaked = plain;
  tweaked.guard = DisarmedButTweaked();

  VflEngine a(plain);
  VflEngine b(tweaked);
  VflRoundStats sa;
  VflRoundStats sb;
  for (size_t e = 0; e < 6; ++e) {
    sa = a.TrainEpoch(TechniqueKind::kQuant8);
    sb = b.TrainEpoch(TechniqueKind::kQuant8);
  }
  EXPECT_EQ(sa.test_accuracy, sb.test_accuracy);
  EXPECT_EQ(sa.train_loss, sb.train_loss);
  EXPECT_FALSE(sa.rolled_back);
  EXPECT_FALSE(sb.rolled_back);
  EXPECT_EQ(b.guard().tracker().WatchdogTriggers(), 0u);

  CheckpointWriter wa;
  a.SaveState(wa);
  CheckpointWriter wb;
  b.SaveState(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

}  // namespace
}  // namespace floatfl
