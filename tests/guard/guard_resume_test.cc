// Golden kill-and-resume mid-recovery (checkpoint format v4).
//
// With the guard actively rolling back — a scaled-replacement attack (or a
// stall trigger for VFL) plus crash-driven quarantine pressure — run 50
// rounds, checkpoint while safe mode and a quarantine cooldown are in
// flight, restore into freshly constructed objects, run 50 more: the result
// must be bit-for-bit identical to an uninterrupted 100-round run. The
// watchdog baseline, snapshot ring (blobs included), quarantine cells,
// tracker counters and safe-mode window are all part of the serialized
// state, so any missed field shows up as a golden mismatch. A v3 header is
// refused up front.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "src/failure/checkpointer.h"
#include "src/fl/async_engine.h"
#include "src/fl/real_engine.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/fl/vfl_engine.h"
#include "src/selection/random_selector.h"

namespace floatfl {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

// Sleeper attack landing well before the round-50 split, so the checkpoint
// is taken with safe mode armed and rollbacks behind it; crashes keep the
// quarantine's failure attribution fed on top.
ExperimentConfig GuardedAttackedExperiment() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 100;
  config.seed = 808;
  config.model = ModelId::kShuffleNetV2;
  config.async_concurrency = 20;
  config.async_buffer = 6;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.2;
  config.faults.byzantine_scale = 4.0;
  config.faults.byzantine_start_round = 30;
  config.faults.crash_prob = 0.2;
  config.guard.enabled = true;
  config.guard.collapse_threshold = 0.02;
  config.guard.snapshot_ring = 4;
  config.guard.safe_mode_rounds = 6;
  config.guard.quarantine_min_trials = 5;
  config.guard.quarantine_failure_rate = 0.15;
  config.guard.quarantine_cooldown_rounds = 6;
  return config;
}

void ExpectResultsIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.accuracy_history, b.accuracy_history);
  EXPECT_EQ(a.accuracy_avg, b.accuracy_avg);
  EXPECT_EQ(a.global_accuracy, b.global_accuracy);
  EXPECT_EQ(a.total_selected, b.total_selected);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_dropouts, b.total_dropouts);
  EXPECT_EQ(a.byzantine_selected, b.byzantine_selected);
  EXPECT_EQ(a.wall_clock_hours, b.wall_clock_hours);
  EXPECT_EQ(a.per_client_selected, b.per_client_selected);
  EXPECT_EQ(a.per_client_completed, b.per_client_completed);
  // Guard bookkeeping is part of the golden.
  EXPECT_EQ(a.guard_snapshots, b.guard_snapshots);
  EXPECT_EQ(a.watchdog_triggers, b.watchdog_triggers);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.quarantined_actions, b.quarantined_actions);
  EXPECT_EQ(a.quarantine_openings, b.quarantine_openings);
  EXPECT_EQ(a.rejected_rewards, b.rejected_rewards);
  EXPECT_EQ(a.safe_mode_rounds, b.safe_mode_rounds);
  EXPECT_EQ(a.per_technique_dropouts, b.per_technique_dropouts);
}

TEST(GuardResumeTest, SyncEngineGoldenResumeMidRecovery) {
  const ExperimentConfig config = GuardedAttackedExperiment();
  const std::string path = TempPath("guard_sync_resume.ckpt");
  const size_t split = config.rounds / 2;

  RandomSelector full_sel(config.seed);
  StaticPolicy full_pol(TechniqueKind::kQuant8);
  SyncEngine full(config, &full_sel, &full_pol);
  const ExperimentResult expected = full.Run();
  EXPECT_GE(expected.rollbacks, 1u);
  EXPECT_GE(expected.quarantine_openings, 1u);

  RandomSelector half_sel(config.seed);
  StaticPolicy half_pol(TechniqueKind::kQuant8);
  SyncEngine half(config, &half_sel, &half_pol);
  for (size_t round = 0; round < split; ++round) {
    half.RunRound(round);
  }
  // The split lands mid-recovery: safe mode is armed and the guard has
  // already rolled back, so the checkpoint carries in-flight guard state.
  EXPECT_TRUE(half.guard().InSafeMode(split));
  EXPECT_GE(half.guard().tracker().rollbacks, 1u);
  EXPECT_GE(half.guard().tracker().quarantine_openings, 1u);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RandomSelector resumed_sel(config.seed);
  StaticPolicy resumed_pol(TechniqueKind::kQuant8);
  SyncEngine resumed(config, &resumed_sel, &resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.RoundsRun(), split);
  EXPECT_TRUE(resumed.guard().InSafeMode(split));
  ExpectResultsIdentical(expected, resumed.Run());
  std::remove(path.c_str());
}

TEST(GuardResumeTest, AsyncEngineGoldenResumeMidRecovery) {
  ExperimentConfig config = GuardedAttackedExperiment();
  const std::string path = TempPath("guard_async_resume.ckpt");
  const size_t split = config.rounds / 2;

  // The async injector keys byzantine_start_round off the client's own
  // selection count (~15 flights each over 100 versions), so the sleepers
  // must wake on an early flight to land the attack before the split.
  config.faults.byzantine_start_round = 5;

  StaticPolicy full_pol(TechniqueKind::kQuant8);
  AsyncEngine full(config, &full_pol);
  const ExperimentResult expected = full.Run();
  EXPECT_GE(expected.rollbacks, 1u);

  StaticPolicy half_pol(TechniqueKind::kQuant8);
  AsyncEngine half(config, &half_pol);
  half.RunUntil(split);
  EXPECT_GE(half.guard().tracker().rollbacks, 1u);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  StaticPolicy resumed_pol(TechniqueKind::kQuant8);
  AsyncEngine resumed(config, &resumed_pol);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  EXPECT_EQ(resumed.Version(), split);
  ExpectResultsIdentical(expected, resumed.Run());
  std::remove(path.c_str());
}

TEST(GuardResumeTest, RealEngineGoldenResumeMidRecovery) {
  RealFlConfig config;
  config.num_clients = 10;
  config.clients_per_round = 5;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 20;
  config.seed = 9;
  config.num_threads = 1;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.2;
  config.faults.byzantine_scale = 150.0;  // see guard_recovery_test.cc: real
  config.faults.byzantine_start_round = 3;  // replacement needs a big scale
  config.guard.enabled = true;
  config.guard.collapse_threshold = 0.1;
  config.guard.snapshot_ring = 3;
  config.guard.safe_mode_rounds = 3;
  const std::string path = TempPath("guard_real_resume.ckpt");
  const size_t total_rounds = 12;
  const size_t split = total_rounds / 2;

  RealFlEngine full(config);
  RealRoundStats expected;
  for (size_t r = 0; r < total_rounds; ++r) {
    expected = full.RunRound(TechniqueKind::kQuant8);
  }
  EXPECT_GE(full.guard().tracker().rollbacks, 1u);

  RealFlEngine half(config);
  for (size_t r = 0; r < split; ++r) {
    half.RunRound(TechniqueKind::kQuant8);
  }
  // The attack landed at round 4: the split checkpoint is mid-recovery.
  EXPECT_GE(half.guard().tracker().rollbacks, 1u);
  EXPECT_TRUE(half.guard().InSafeMode(split));
  ASSERT_TRUE(Checkpointer::Save(path, half));

  RealFlEngine resumed(config);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  RealRoundStats actual;
  for (size_t r = split; r < total_rounds; ++r) {
    actual = resumed.RunRound(TechniqueKind::kQuant8);
  }

  EXPECT_EQ(full.global_model().GetParameters(), resumed.global_model().GetParameters());
  EXPECT_EQ(expected.test_accuracy, actual.test_accuracy);
  EXPECT_EQ(expected.rolled_back, actual.rolled_back);
  EXPECT_EQ(full.guard().tracker().rollbacks, resumed.guard().tracker().rollbacks);
  EXPECT_EQ(full.guard().tracker().masked_actions, resumed.guard().tracker().masked_actions);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(GuardResumeTest, VflEngineGoldenResumeMidRecovery) {
  // VFL has no Byzantine mode; an aggressive stall trigger keeps the guard
  // rolling back every epoch instead, which is exactly the in-flight state
  // the resume contract must survive.
  VflConfig config;
  config.num_parties = 3;
  config.features_per_party = 5;
  config.embedding_dim = 6;
  config.num_classes = 4;
  config.train_samples = 120;
  config.test_samples = 80;
  config.seed = 37;
  config.guard.enabled = true;
  config.guard.collapse_threshold = 0.0;
  config.guard.patience = 2;
  config.guard.stall_epsilon = 1.0;  // nothing improves by a full accuracy point
  config.guard.snapshot_ring = 2;
  config.guard.safe_mode_rounds = 3;
  const std::string path = TempPath("guard_vfl_resume.ckpt");
  const size_t total_epochs = 8;
  const size_t split = total_epochs / 2;

  VflEngine full(config);
  VflRoundStats expected;
  for (size_t e = 0; e < total_epochs; ++e) {
    expected = full.TrainEpoch(TechniqueKind::kQuant8);
  }
  EXPECT_GE(full.guard().tracker().stall_triggers, 1u);
  EXPECT_GE(full.guard().tracker().rollbacks, 1u);

  VflEngine half(config);
  for (size_t e = 0; e < split; ++e) {
    half.TrainEpoch(TechniqueKind::kQuant8);
  }
  EXPECT_GE(half.guard().tracker().rollbacks, 1u);
  ASSERT_TRUE(Checkpointer::Save(path, half));

  VflEngine resumed(config);
  ASSERT_TRUE(Checkpointer::Restore(path, resumed));
  VflRoundStats actual;
  for (size_t e = split; e < total_epochs; ++e) {
    actual = resumed.TrainEpoch(TechniqueKind::kQuant8);
  }

  EXPECT_EQ(expected.train_loss, actual.train_loss);
  EXPECT_EQ(expected.test_accuracy, actual.test_accuracy);
  EXPECT_EQ(expected.rolled_back, actual.rolled_back);
  CheckpointWriter full_state;
  full.SaveState(full_state);
  CheckpointWriter resumed_state;
  resumed.SaveState(resumed_state);
  EXPECT_EQ(full_state.buffer(), resumed_state.buffer());
  std::remove(path.c_str());
}

TEST(GuardResumeTest, V3CheckpointRefused) {
  // The v4 payload grew guard (and, for the real engine, policy) sections a
  // v3 reader cannot place; a v3 header must be rejected up front.
  ExperimentConfig config = GuardedAttackedExperiment();
  config.rounds = 4;
  const std::string path = TempPath("guard_version_refused.ckpt");

  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  engine.RunRound(0);
  ASSERT_TRUE(Checkpointer::Save(path, engine));

  // Corrupt the version field (bytes 4..7 of the little-endian header).
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GE(bytes.size(), 8u);
  bytes[4] = 3;  // pretend this is a v3 checkpoint
  bytes[5] = bytes[6] = bytes[7] = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  RandomSelector fresh_sel(config.seed);
  SyncEngine fresh(config, &fresh_sel, nullptr);
  EXPECT_FALSE(Checkpointer::Restore(path, fresh));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace floatfl
